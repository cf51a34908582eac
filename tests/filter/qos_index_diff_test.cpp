// Differential test: QosPolicy's indexed classification must be
// *bit-identical* to the reference linear first-match scan — same rule id,
// same action, and (through ApplyEgressQos) the same RuleCounters — over
// randomized rule/flow corpora that cover every index bucket class, rule
// overlap, removal compaction and re-insertion.
#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <unordered_map>
#include <vector>

#include "filter/qos.hpp"
#include "util/rng.hpp"

namespace stellar::filter {
namespace {

// Small value universes so rules and flows overlap heavily: plenty of
// multi-rule candidate sets, shadowed rules, and near-miss bucket probes.
constexpr std::uint16_t kPorts[] = {0, 19, 53, 123, 389, 443, 11211, 60000};
constexpr net::IpProto kProtos[] = {net::IpProto::kIcmp, net::IpProto::kTcp,
                                    net::IpProto::kUdp};

net::IPv4Address RandomIp(util::Rng& rng) {
  return net::IPv4Address(static_cast<std::uint32_t>(
      (60u << 24) | static_cast<std::uint32_t>(rng.uniform_int(0, 255)) << 8 |
      static_cast<std::uint32_t>(rng.uniform_int(0, 7))));
}

net::MacAddress RandomMac(util::Rng& rng) {
  return net::MacAddress::ForRouter(
      static_cast<std::uint32_t>(rng.uniform_int(65001, 65008)));
}

std::uint16_t RandomPort(util::Rng& rng) {
  return kPorts[rng.uniform_int(0, std::ssize(kPorts) - 1)];
}

net::IpProto RandomProto(util::Rng& rng) {
  return kProtos[rng.uniform_int(0, std::ssize(kProtos) - 1)];
}

/// A random rule spread across every Selectivity class: exact host routes,
/// proto+single-port, MAC-only, short prefixes, port ranges, wildcards, and
/// combinations thereof.
FilterRule RandomRule(util::Rng& rng) {
  FilterRule rule;
  if (rng.chance(0.35)) {
    const int len = rng.chance(0.5) ? 32 : static_cast<int>(rng.uniform_int(8, 31));
    rule.match.dst_prefix = net::Prefix4(RandomIp(rng), static_cast<std::uint8_t>(len));
  }
  if (rng.chance(0.25)) {
    rule.match.src_prefix = net::Prefix4(RandomIp(rng), 24);
  }
  if (rng.chance(0.5)) rule.match.proto = RandomProto(rng);
  if (rng.chance(0.4)) {
    rule.match.src_port = rng.chance(0.7)
                              ? PortRange::Single(RandomPort(rng))
                              : PortRange{RandomPort(rng), 65535};
  }
  if (rng.chance(0.4)) {
    rule.match.dst_port = rng.chance(0.7)
                              ? PortRange::Single(RandomPort(rng))
                              : PortRange{0, RandomPort(rng)};
  }
  if (rng.chance(0.2)) rule.match.src_mac = RandomMac(rng);
  const double action = rng.uniform();
  if (action < 0.5) {
    rule.action = FilterAction::kDrop;
  } else if (action < 0.8) {
    rule.action = FilterAction::kShape;
    rule.shape_rate_mbps = rng.uniform(10.0, 500.0);
  } else {
    rule.action = FilterAction::kForward;
  }
  return rule;
}

net::FlowSample RandomFlow(util::Rng& rng) {
  net::FlowSample s;
  s.key.src_mac = RandomMac(rng);
  s.key.src_ip = RandomIp(rng);
  s.key.dst_ip = RandomIp(rng);
  s.key.proto = RandomProto(rng);
  s.key.src_port = RandomPort(rng);
  s.key.dst_port = RandomPort(rng);
  s.bytes = static_cast<std::uint64_t>(rng.uniform_int(1'000, 10'000'000));
  s.packets = s.bytes / 1000;
  return s;
}

void ExpectIdentical(const QosPolicy& policy, const net::FlowKey& flow,
                     const char* context) {
  const InstalledRule* indexed = policy.classify(flow);
  const InstalledRule* linear = policy.classify_linear(flow);
  ASSERT_EQ(indexed, linear) << context << ": indexed="
                             << (indexed ? std::to_string(indexed->id) : "null")
                             << " linear="
                             << (linear ? std::to_string(linear->id) : "null")
                             << " flow=" << flow.str();
  if (indexed != nullptr) {
    EXPECT_EQ(indexed->id, linear->id);
    EXPECT_EQ(indexed->rule.action, linear->rule.action);
  }
}

TEST(QosIndexDifferentialTest, RandomizedCorporaMatchLinearScan) {
  // 10 corpora × (rules in [1, 256]) × 1500 flows ≥ 10k flow classifications,
  // re-checked after removal compaction and re-insertion.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed);
    QosPolicy policy;
    const int n_rules = static_cast<int>(rng.uniform_int(1, 256));
    std::vector<RuleId> ids;
    for (int i = 0; i < n_rules; ++i) {
      ids.push_back(static_cast<RuleId>(i + 1));
      policy.add_rule(ids.back(), RandomRule(rng));
    }
    std::vector<net::FlowSample> flows;
    for (int i = 0; i < 1500; ++i) flows.push_back(RandomFlow(rng));

    for (const auto& f : flows) {
      ExpectIdentical(policy, f.key, "fresh policy");
      if (HasFatalFailure()) return;
    }

    // classify_batch must agree with scalar classify element-for-element.
    std::vector<net::FlowKey> keys;
    for (const auto& f : flows) keys.push_back(f.key);
    const auto batch = policy.classify_batch(keys);
    ASSERT_EQ(batch.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(batch[i], policy.classify_linear(keys[i])) << "batch idx " << i;
    }

    // Remove a random ~third of the rules (forces index rebuild + position
    // compaction), then re-insert fresh rules at the tail.
    for (const RuleId id : ids) {
      if (rng.chance(0.33)) {
        EXPECT_TRUE(policy.remove_rule(id));
      }
    }
    for (const auto& f : flows) {
      ExpectIdentical(policy, f.key, "after removals");
      if (HasFatalFailure()) return;
    }
    for (int i = 0; i < 16; ++i) {
      policy.add_rule(static_cast<RuleId>(1000 + i), RandomRule(rng));
    }
    for (const auto& f : flows) {
      ExpectIdentical(policy, f.key, "after re-insertion");
      if (HasFatalFailure()) return;
    }
  }
}

TEST(QosIndexDifferentialTest, RuleCountersMatchLinearClassification) {
  // ApplyEgressQos (which classifies via the index) must account every byte
  // to exactly the rule the linear scan selects.
  util::Rng rng(42);
  QosPolicy policy;
  for (int i = 0; i < 128; ++i) {
    policy.add_rule(static_cast<RuleId>(i + 1), RandomRule(rng));
  }
  std::vector<net::FlowSample> demand;
  for (int i = 0; i < 2000; ++i) demand.push_back(RandomFlow(rng));

  std::unordered_map<RuleId, std::uint64_t> expected_matched;
  std::unordered_map<RuleId, std::uint64_t> expected_drop_dropped;
  for (const auto& d : demand) {
    const InstalledRule* rule = policy.classify_linear(d.key);
    if (rule == nullptr) continue;
    expected_matched[rule->id] += d.bytes;
    if (rule->rule.action == FilterAction::kDrop) {
      expected_drop_dropped[rule->id] += d.bytes;
    }
  }

  const PortBinResult result = ApplyEgressQos(demand, policy, 10'000.0, 1.0);
  for (const auto& [id, counters] : result.rule_counters) {
    EXPECT_EQ(counters.matched_bytes, expected_matched[id]) << "rule " << id;
  }
  EXPECT_EQ(result.rule_counters.size(), expected_matched.size());
  for (const auto& [id, dropped] : expected_drop_dropped) {
    EXPECT_EQ(result.rule_counters.at(id).dropped_bytes, dropped) << "rule " << id;
  }
}

}  // namespace
}  // namespace stellar::filter
