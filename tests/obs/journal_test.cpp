#include "obs/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace stellar::obs {
namespace {

// Local Journal instances: the global one is shared with production code.

TEST(Journal, AppendAndCsvFormat) {
  Journal j;
  j.append(1.5, EventKind::kRuleInstalled, "qos.rule1", "install ok");
  j.append(2.0, EventKind::kSessionFlap, "asn65001");
  const std::string csv = j.csv();
  EXPECT_NE(csv.find("t_s,kind,subject,detail\n"), std::string::npos);
  EXPECT_NE(csv.find("1.500000,rule_installed,qos.rule1,install ok\n"), std::string::npos);
  EXPECT_NE(csv.find("2.000000,session_flap,asn65001,\n"), std::string::npos);
}

TEST(Journal, CsvEscapesCommasAndNewlines) {
  Journal j;
  j.append(0.0, EventKind::kRuleDeadLettered, "k,ey", "line1\nline2,x");
  const std::string csv = j.csv();
  EXPECT_NE(csv.find("k;ey"), std::string::npos);
  EXPECT_NE(csv.find("line1 line2;x"), std::string::npos);
  // No raw commas beyond the three field separators per row.
  const auto row_start = csv.find("0.000000");
  ASSERT_NE(row_start, std::string::npos);
  const auto row_end = csv.find('\n', row_start);
  const std::string row = csv.substr(row_start, row_end - row_start);
  EXPECT_EQ(std::count(row.begin(), row.end(), ','), 3);
}

TEST(Journal, ToStringCoversEveryKind) {
  // snake_case, unique, non-empty for every enumerator.
  const EventKind kinds[] = {
      EventKind::kSessionFlap,        EventKind::kSessionReconnect,
      EventKind::kSessionSuppressed,  EventKind::kDialTimeout,
      EventKind::kSessionGiveUp,      EventKind::kFaultDrop,
      EventKind::kFaultCorrupt,       EventKind::kFaultDelay,
      EventKind::kFaultPartitionDrop, EventKind::kFaultKill,
      EventKind::kRuleInstalled,      EventKind::kRuleRemoved,
      EventKind::kRuleRetry,          EventKind::kRuleDeadLettered,
      EventKind::kFailsafeFlush,      EventKind::kReconciliation,
      EventKind::kDetectorTriggered,  EventKind::kDetectorCleared,
      EventKind::kMitigationEscalated, EventKind::kMitigationWithdrawn,
  };
  std::vector<std::string> names;
  for (const EventKind kind : kinds) {
    const std::string name(ToString(kind));
    EXPECT_FALSE(name.empty());
    for (const char c : name) {
      EXPECT_TRUE((c >= 'a' && c <= 'z') || c == '_') << name;
    }
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
      << "duplicate kind name";
}

TEST(Journal, CountByKind) {
  Journal j;
  j.append(1.0, EventKind::kRuleRetry, "k");
  j.append(2.0, EventKind::kRuleRetry, "k");
  j.append(3.0, EventKind::kRuleDeadLettered, "k");
  EXPECT_EQ(j.count(EventKind::kRuleRetry), 2u);
  EXPECT_EQ(j.count(EventKind::kRuleDeadLettered), 1u);
  EXPECT_EQ(j.count(EventKind::kSessionFlap), 0u);
}

TEST(Journal, CapacityBoundEvictsOldest) {
  Journal j(/*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    j.append(i, EventKind::kFaultDrop, "link#" + std::to_string(i));
  }
  EXPECT_EQ(j.events().size(), 4u);
  EXPECT_EQ(j.events().total(), 10u);
  EXPECT_EQ(j.events().evicted(), 6u);
  // Oldest retained event is #6.
  EXPECT_EQ(j.events().front().subject, "link#6");
  EXPECT_EQ(j.events().back().subject, "link#9");
}

TEST(Journal, ClearEmptiesRetainedEvents) {
  Journal j;
  j.append(1.0, EventKind::kRuleInstalled, "k");
  j.clear();
  EXPECT_TRUE(j.events().empty());
  EXPECT_EQ(j.count(EventKind::kRuleInstalled), 0u);
}

}  // namespace
}  // namespace stellar::obs
