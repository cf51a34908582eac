#include "filter/tcam.hpp"

#include <gtest/gtest.h>

namespace stellar::filter {
namespace {

MatchCriteria L3L4Rule(int criteria) {
  MatchCriteria m;
  if (criteria >= 1) m.dst_prefix = net::Prefix4::Parse("100.10.10.10/32").value();
  if (criteria >= 2) m.proto = net::IpProto::kUdp;
  if (criteria >= 3) m.src_port = PortRange::Single(123);
  return m;
}

MatchCriteria MacRule() {
  MatchCriteria m;
  m.src_mac = net::MacAddress::ForRouter(65001);
  return m;
}

TEST(TcamTest, AllocatesWithinPools) {
  Tcam tcam({.l3l4_criteria_pool = 10, .mac_filter_pool = 2});
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kNone);
  EXPECT_EQ(tcam.l3l4_in_use(), 3);
  EXPECT_EQ(tcam.allocate(2, MacRule()), TcamFailure::kNone);
  EXPECT_EQ(tcam.mac_in_use(), 1);
}

TEST(TcamTest, L3L4PoolExhaustionIsF1) {
  Tcam tcam({.l3l4_criteria_pool = 5, .mac_filter_pool = 100});
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kNone);
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kL3L4PoolExhausted);
  EXPECT_EQ(ToString(TcamFailure::kL3L4PoolExhausted), "F1");
  // Failed allocation reserved nothing.
  EXPECT_EQ(tcam.l3l4_in_use(), 3);
}

TEST(TcamTest, MacPoolExhaustionIsF2) {
  Tcam tcam({.l3l4_criteria_pool = 100, .mac_filter_pool = 1});
  EXPECT_EQ(tcam.allocate(1, MacRule()), TcamFailure::kNone);
  EXPECT_EQ(tcam.allocate(2, MacRule()), TcamFailure::kMacPoolExhausted);
  EXPECT_EQ(ToString(TcamFailure::kMacPoolExhausted), "F2");
}

TEST(TcamTest, F1TakesPrecedenceWhenBothExhausted) {
  Tcam tcam({.l3l4_criteria_pool = 1, .mac_filter_pool = 1});
  MatchCriteria both = L3L4Rule(2);
  both.src_mac = net::MacAddress::ForRouter(1);
  EXPECT_EQ(tcam.allocate(1, both), TcamFailure::kL3L4PoolExhausted);
}

TEST(TcamTest, PerPortLimits) {
  Tcam tcam({.l3l4_criteria_pool = 100,
             .mac_filter_pool = 100,
             .per_port_l3l4_criteria = 4,
             .per_port_mac_filters = 1});
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kNone);
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kPortL3L4LimitReached);
  // Another port still has room.
  EXPECT_EQ(tcam.allocate(2, L3L4Rule(3)), TcamFailure::kNone);
  EXPECT_EQ(tcam.allocate(1, MacRule()), TcamFailure::kNone);
  EXPECT_EQ(tcam.allocate(1, MacRule()), TcamFailure::kPortMacLimitReached);
}

TEST(TcamTest, ZeroPoolMeansUnlimited) {
  Tcam tcam(TcamLimits{});
  for (int i = 0; i < 10'000; ++i) {
    ASSERT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kNone);
  }
}

TEST(TcamTest, ReleaseReturnsResources) {
  Tcam tcam({.l3l4_criteria_pool = 3, .mac_filter_pool = 10});
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kNone);
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kL3L4PoolExhausted);
  EXPECT_TRUE(tcam.release(1, L3L4Rule(3)));
  EXPECT_EQ(tcam.l3l4_in_use(), 0);
  EXPECT_EQ(tcam.l3l4_in_use(1), 0);
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kNone);
}

TEST(TcamTest, HeadroomFractions) {
  Tcam tcam({.l3l4_criteria_pool = 10, .mac_filter_pool = 4});
  EXPECT_DOUBLE_EQ(tcam.l3l4_headroom(), 1.0);
  tcam.allocate(1, L3L4Rule(3));
  EXPECT_DOUBLE_EQ(tcam.l3l4_headroom(), 0.7);
  tcam.allocate(1, MacRule());
  EXPECT_DOUBLE_EQ(tcam.mac_headroom(), 0.75);
  Tcam unlimited(TcamLimits{});
  EXPECT_DOUBLE_EQ(unlimited.l3l4_headroom(), 1.0);
}

TEST(TcamTest, RejectedAllocationLeavesStateUntouched) {
  // Regression: allocate() used to insert the per-port usage entry *before*
  // the limit checks, so every rejected allocation permanently grew the map.
  Tcam tcam({.l3l4_criteria_pool = 2, .mac_filter_pool = 1});
  EXPECT_EQ(tcam.ports_tracked(), 0u);
  for (PortId port = 1; port <= 100; ++port) {
    EXPECT_EQ(tcam.allocate(port, L3L4Rule(3)), TcamFailure::kL3L4PoolExhausted);
  }
  EXPECT_EQ(tcam.ports_tracked(), 0u);
  EXPECT_EQ(tcam.l3l4_in_use(), 0);

  // Same for per-port limit rejections on a port that already has an entry.
  Tcam limited({.l3l4_criteria_pool = 100, .per_port_l3l4_criteria = 4});
  EXPECT_EQ(limited.allocate(1, L3L4Rule(3)), TcamFailure::kNone);
  EXPECT_EQ(limited.allocate(1, L3L4Rule(3)), TcamFailure::kPortL3L4LimitReached);
  EXPECT_EQ(limited.ports_tracked(), 1u);
  EXPECT_EQ(limited.l3l4_in_use(1), 3);
  EXPECT_EQ(limited.l3l4_in_use(), 3);
}

TEST(TcamTest, DoubleReleaseClampsAtZero) {
  // Regression: release() only assert()ed, so in release builds a
  // double-release drove the used counters negative and inflated headroom
  // past 1.0. Now the counters clamp and the caller is told.
  Tcam tcam({.l3l4_criteria_pool = 10, .mac_filter_pool = 10});
  MatchCriteria match = L3L4Rule(3);
  match.src_mac = net::MacAddress::ForRouter(65001);
  EXPECT_EQ(tcam.allocate(1, match), TcamFailure::kNone);
  EXPECT_TRUE(tcam.release(1, match));   // Balanced release succeeds.
  EXPECT_FALSE(tcam.release(1, match));  // Double-release is reported...
  EXPECT_EQ(tcam.l3l4_in_use(), 0);      // ...and never goes negative,
  EXPECT_EQ(tcam.mac_in_use(), 0);
  EXPECT_EQ(tcam.l3l4_in_use(1), 0);
  EXPECT_LE(tcam.l3l4_headroom(), 1.0);  // ...so headroom stays a fraction.
  EXPECT_LE(tcam.mac_headroom(), 1.0);
}

TEST(TcamTest, ReleaseOnUnknownPortIsReportedNotRecorded) {
  Tcam tcam({.l3l4_criteria_pool = 10, .mac_filter_pool = 10});
  EXPECT_FALSE(tcam.release(42, L3L4Rule(2)));
  EXPECT_EQ(tcam.ports_tracked(), 0u);
  EXPECT_EQ(tcam.l3l4_in_use(), 0);
  // A criteria-free release is vacuously fine.
  EXPECT_TRUE(tcam.release(42, MatchCriteria{}));
}

TEST(TcamTest, PartialOverReleaseClampsPerCounter) {
  Tcam tcam({.l3l4_criteria_pool = 10, .mac_filter_pool = 10});
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(2)), TcamFailure::kNone);
  // Release claims 3 criteria but only 2 are reserved: clamp, report.
  EXPECT_FALSE(tcam.release(1, L3L4Rule(3)));
  EXPECT_EQ(tcam.l3l4_in_use(), 0);
  EXPECT_EQ(tcam.l3l4_in_use(1), 0);
  // The pool is genuinely free again.
  EXPECT_EQ(tcam.allocate(2, L3L4Rule(3)), TcamFailure::kNone);
}

TEST(TcamTest, FullReleaseForgetsThePort) {
  Tcam tcam(TcamLimits{});
  EXPECT_EQ(tcam.allocate(1, L3L4Rule(3)), TcamFailure::kNone);
  EXPECT_EQ(tcam.ports_tracked(), 1u);
  EXPECT_TRUE(tcam.release(1, L3L4Rule(3)));
  EXPECT_EQ(tcam.ports_tracked(), 0u);
}

TEST(TcamTest, PerPortAccounting) {
  Tcam tcam(TcamLimits{});
  tcam.allocate(7, L3L4Rule(2));
  tcam.allocate(8, L3L4Rule(3));
  EXPECT_EQ(tcam.l3l4_in_use(7), 2);
  EXPECT_EQ(tcam.l3l4_in_use(8), 3);
  EXPECT_EQ(tcam.l3l4_in_use(9), 0);
  EXPECT_EQ(tcam.l3l4_in_use(), 5);
}

}  // namespace
}  // namespace stellar::filter
