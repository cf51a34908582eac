// Failure-injection tests for the signaling layer's resilience requirements
// (paper §4.1.2 / §4.2.1): filters must be implicitly withdrawn when the
// signaling path fails, and the platform must fall back to simple forwarding
// rather than strand members behind stale filters.
#include <gtest/gtest.h>

#include "core/stellar.hpp"
#include "mitigation/rtbh.hpp"
#include "net/ports.hpp"

namespace stellar {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

struct ResilienceFixture {
  sim::EventQueue queue;
  std::unique_ptr<ixp::Ixp> ixp;
  std::unique_ptr<core::StellarSystem> stellar;
  ixp::MemberRouter* victim;
  ixp::MemberRouter* honoring;

  ResilienceFixture() {
    ixp = std::make_unique<ixp::Ixp>(queue);
    ixp::MemberSpec v;
    v.asn = 65001;
    v.port_capacity_mbps = 1000.0;
    v.address_space = P4("100.10.10.0/24");
    victim = &ixp->add_member(v);
    ixp::MemberSpec h;
    h.asn = 65002;
    h.address_space = P4("60.2.0.0/20");
    h.policy.accepts_more_specifics = true;
    honoring = &ixp->add_member(h);
    stellar = std::make_unique<core::StellarSystem>(*ixp);
    ixp->settle(30.0);
  }

  void settle(double s = 10.0) { ixp->settle(s); }

  void signal_ntp_drop() {
    core::Signal s;
    s.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortNtp});
    core::SignalAdvancedBlackholing(*victim, ixp->route_server(), P4("100.10.10.10/32"), s);
    settle();
  }
};

TEST(ResilienceTest, MemberSessionFailureImplicitlyWithdrawsStellarRules) {
  ResilienceFixture f;
  f.signal_ntp_drop();
  ASSERT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 1u);

  // The victim's router dies (no graceful withdraw): hold timer expires.
  f.victim->session()->stop();
  f.settle(30.0);
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 0u);
  EXPECT_FALSE(
      f.ixp->route_server().adj_rib_in().best(P4("100.10.10.10/32")).has_value());
}

TEST(ResilienceTest, MemberSessionFailureWithdrawsRtbhAtOtherMembers) {
  ResilienceFixture f;
  mitigation::TriggerRtbh(*f.victim, P4("100.10.10.10/32"));
  f.settle();
  ASSERT_TRUE(f.honoring->blackholes(net::IPv4Address(100, 10, 10, 10)));

  f.victim->session()->stop();
  f.settle(30.0);
  EXPECT_FALSE(f.honoring->blackholes(net::IPv4Address(100, 10, 10, 10)));
}

TEST(ResilienceTest, MemberSessionFailureAlsoWithdrawsRegularRoutes) {
  ResilienceFixture f;
  ASSERT_TRUE(f.honoring->rib().best(P4("100.10.10.0/24")).has_value());
  f.victim->session()->stop();
  f.settle(30.0);
  EXPECT_FALSE(f.honoring->rib().best(P4("100.10.10.0/24")).has_value());
}

TEST(ResilienceTest, ControllerSessionFailureFlushesAllRulesFailSafe) {
  ResilienceFixture f;
  f.signal_ntp_drop();
  ASSERT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 1u);

  // The route server side of the controller session dies.
  f.stellar->controller().session().stop();
  f.settle(30.0);
  EXPECT_EQ(f.stellar->controller().stats().failsafe_flushes, 1u);
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 0u);
  EXPECT_TRUE(f.stellar->controller().desired().empty());
  // TCAM resources are back.
  EXPECT_EQ(f.ixp->edge_router().tcam().l3l4_in_use(), 0);
}

TEST(ResilienceTest, FailSafeRestoresForwarding) {
  ResilienceFixture f;
  f.signal_ntp_drop();

  net::FlowSample ntp;
  ntp.key.src_mac = f.honoring->info().mac;
  ntp.key.src_ip = net::IPv4Address(60, 2, 0, 5);
  ntp.key.dst_ip = net::IPv4Address(100, 10, 10, 10);
  ntp.key.proto = net::IpProto::kUdp;
  ntp.key.src_port = net::kPortNtp;
  ntp.key.dst_port = 5555;
  ntp.bytes = static_cast<std::uint64_t>(100e6 / 8.0);

  const auto filtered = f.ixp->deliver_bin({&ntp, 1}, 1.0);
  EXPECT_NEAR(filtered.rule_dropped_mbps, 100.0, 1.0);

  f.stellar->controller().session().stop();
  f.settle(30.0);
  const auto restored = f.ixp->deliver_bin({&ntp, 1}, 1.0);
  EXPECT_NEAR(restored.delivered_mbps, 100.0, 1.0);  // Simple forwarding again.
}

TEST(ResilienceTest, MemberReconnectsAndProtectionResumes) {
  // Full lifecycle: session dies (rules implicitly withdrawn), the member
  // router reconnects on a fresh session, re-announces, and re-signals —
  // the platform must converge back to the protected state.
  ResilienceFixture f;
  f.signal_ntp_drop();
  ASSERT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 1u);

  f.victim->session()->stop();
  f.settle(30.0);
  ASSERT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 0u);

  // Reconnect: new transport from the route server, new session, resync.
  f.victim->connect(f.ixp->route_server().accept_member(65001));
  f.settle(10.0);
  ASSERT_TRUE(f.victim->session()->established());
  f.victim->announce(f.victim->info().address_space);
  f.signal_ntp_drop();
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 1u);
  EXPECT_TRUE(
      f.ixp->route_server().adj_rib_in().best(P4("100.10.10.0/24")).has_value());
  // The honoring member sees the member's prefix again.
  EXPECT_TRUE(f.honoring->rib().best(P4("100.10.10.0/24")).has_value());
}

TEST(ResilienceTest, MalformedPeerIsIsolatedFromThePlatform) {
  // A compromised/buggy member router sends garbage on its BGP session: the
  // route server must tear down THAT session (and implicitly withdraw its
  // routes) while every other member and Stellar keep working.
  ResilienceFixture f;
  f.signal_ntp_drop();

  // Raw endpoint posing as a new member whose announcements turn to garbage.
  auto endpoint = f.ixp->route_server().accept_member(65099);
  f.settle(5.0);
  endpoint->send(std::vector<std::uint8_t>(64, 0xAB));
  f.settle(5.0);

  // The honoring member and the installed Stellar rule are unaffected.
  EXPECT_TRUE(f.honoring->session()->established());
  EXPECT_TRUE(f.victim->session()->established());
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 1u);
  // The garbage peer's session is gone.
  EXPECT_EQ(f.ixp->route_server().established_member_sessions(), 2u);
}

TEST(ResilienceTest, WithdrawBeforeFailureIsNotDoubleRemoved) {
  ResilienceFixture f;
  f.signal_ntp_drop();
  core::WithdrawAdvancedBlackholing(*f.victim, P4("100.10.10.10/32"));
  f.settle();
  const auto removals = f.stellar->controller().stats().removals_emitted;
  f.victim->session()->stop();
  f.settle(30.0);
  // Nothing further to remove: the rule was already gone.
  EXPECT_EQ(f.stellar->controller().stats().removals_emitted, removals);
  EXPECT_EQ(f.stellar->manager().stats().failed, 0u);
}

TEST(ResilienceTest, RejoinedMemberDropsRoutesWithdrawnWhileItWasDown) {
  ResilienceFixture f;
  bgp::ReconnectPolicy policy;
  policy.initial_backoff_s = 1.0;
  policy.jitter_frac = 0.0;
  f.honoring->connect_resilient(
      [&f] { return f.ixp->route_server().accept_member(65002); }, policy);
  f.settle();
  mitigation::TriggerRtbh(*f.victim, P4("100.10.10.10/32"));
  f.settle();
  ASSERT_TRUE(f.honoring->blackholes(net::IPv4Address(100, 10, 10, 10)));

  // The honoring member's session dies, and the victim withdraws the /32
  // before it re-joins: nothing will ever withdraw it on the new session.
  f.honoring->session()->stop();
  f.victim->withdraw(P4("100.10.10.10/32"));
  f.settle();
  ASSERT_EQ(f.honoring->reconnector()->stats().reconnects, 1u);
  EXPECT_FALSE(f.honoring->rib().best(P4("100.10.10.10/32")).has_value());
  EXPECT_FALSE(f.honoring->blackholes(net::IPv4Address(100, 10, 10, 10)));
  // The re-joined session's refresh brings back every current route.
  EXPECT_TRUE(f.honoring->rib().best(P4("100.10.10.0/24")).has_value());
}

}  // namespace
}  // namespace stellar
