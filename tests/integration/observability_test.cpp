// End-to-end exercise of the observability plane: one advanced-blackholing
// signal through a small IXP must leave (a) a complete signal-path trace
// whose per-stage deltas sum exactly to the end-to-end latency, (b) journal
// entries for the rule lifecycle, and (c) live registry counters in the
// registry's Prometheus text.
#include <cmath>

#include <gtest/gtest.h>

#include "core/stellar.hpp"
#include "net/ports.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stellar {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }
constexpr bgp::Asn kVictimAsn = 63'000;

struct Scenario {
  sim::EventQueue queue;
  std::unique_ptr<ixp::Ixp> ixp;
  ixp::MemberRouter* victim;
  net::IPv4Address target;

  // The tracer is process-wide and keyed by prefix, so each test signals a
  // target that no other test in this binary traces.
  explicit Scenario(net::IPv4Address victim_target) : target(victim_target) {
    obs::journal().clear();
    ixp::LargeIxpParams params;
    params.member_count = 12;
    params.seed = 7;
    ixp = ixp::MakeLargeIxp(queue, params);
    ixp::MemberSpec v;
    v.asn = kVictimAsn;
    v.address_space = P4("100.10.10.0/24");
    victim = &ixp->add_member(v);
    ixp->settle(60.0);
  }
};

TEST(ObservabilityIntegration, SignalPathTraceTelescopesToEndToEndLatency) {
  Scenario s(net::IPv4Address(100, 10, 10, 31));
  core::StellarSystem stellar(*s.ixp);
  s.ixp->settle(10.0);

  const std::uint64_t applied_before =
      obs::registry().counter_total("core.manager.applied");

  core::Signal sig;
  sig.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortNtp});
  const net::Prefix4 prefix = net::Prefix4::HostRoute(s.target);
  core::SignalAdvancedBlackholing(*s.victim, s.ixp->route_server(), prefix, sig);
  s.ixp->settle(20.0);

  // The trace must cover the whole signal path, in causal order.
  const auto stages = obs::tracer().breakdown(prefix.str());
  const char* expected[] = {"member_announce", "route_server_accept", "controller_rx",
                            "controller_decode", "config_enqueued", "config_applied"};
  ASSERT_EQ(stages.size(), std::size(expected));
  for (std::size_t i = 0; i < std::size(expected); ++i) {
    EXPECT_EQ(stages[i].stage, expected[i]) << "stage " << i;
    if (i > 0) {
      EXPECT_GE(stages[i].at_s, stages[i - 1].at_s) << "stage " << i;
      EXPECT_DOUBLE_EQ(stages[i].delta_s, stages[i].at_s - stages[i - 1].at_s);
    }
  }
  // The telescoping guarantee: per-stage deltas sum exactly (double identity,
  // not within-epsilon) to the signal -> install latency.
  double delta_sum = 0.0;
  for (const auto& st : stages) delta_sum += st.delta_s;
  EXPECT_DOUBLE_EQ(delta_sum, stages.back().at_s - stages.front().at_s);
  // Token-bucket pacing means install strictly follows the announcement.
  EXPECT_GT(stages.back().at_s, stages.front().at_s);

  // The journal saw the install, and the registry counted it.
  EXPECT_GE(obs::journal().count(obs::EventKind::kRuleInstalled), 1u);
  EXPECT_GT(obs::registry().counter_total("core.manager.applied"), applied_before);

  // The Prometheus text carries the counter and the wait histogram.
  const std::string metrics = obs::registry().expose_text();
  EXPECT_NE(metrics.find("core_manager_applied"), std::string::npos);
  EXPECT_NE(metrics.find("core_manager_wait_seconds"), std::string::npos);

  // Withdrawal journals the removal.
  core::WithdrawAdvancedBlackholing(*s.victim, prefix);
  s.ixp->settle(20.0);
  EXPECT_GE(obs::journal().count(obs::EventKind::kRuleRemoved), 1u);
}

TEST(ObservabilityIntegration, ShapeSignalTracesEveryRule) {
  Scenario s(net::IPv4Address(100, 10, 10, 32));
  core::StellarSystem stellar(*s.ixp);
  s.ixp->settle(10.0);

  core::Signal shape;
  shape.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortNtp});
  shape.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortDns});
  shape.shape_rate_mbps = 200.0;
  const net::Prefix4 prefix = net::Prefix4::HostRoute(s.target);
  core::SignalAdvancedBlackholing(*s.victim, s.ixp->route_server(), prefix, shape);
  s.ixp->settle(20.0);

  // Two rules, one trace: the per-prefix trace records the first install but
  // the journal records each rule's lifecycle.
  const auto stages = obs::tracer().breakdown(prefix.str());
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages.front().stage, "member_announce");
  EXPECT_EQ(stages.back().stage, "config_applied");
  EXPECT_GE(obs::journal().count(obs::EventKind::kRuleInstalled), 2u);
}

}  // namespace
}  // namespace stellar
