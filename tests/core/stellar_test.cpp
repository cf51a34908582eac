#include "core/stellar.hpp"

#include <gtest/gtest.h>

#include "net/ports.hpp"

namespace stellar::core {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

/// Full stack: IXP with members + StellarSystem on top.
struct StellarFixture {
  sim::EventQueue queue;
  std::unique_ptr<ixp::Ixp> ixp;
  std::unique_ptr<StellarSystem> stellar;
  ixp::MemberRouter* victim;
  ixp::MemberRouter* other;

  StellarFixture() {
    ixp = std::make_unique<ixp::Ixp>(queue);
    ixp::MemberSpec v;
    v.asn = 65001;
    v.port_capacity_mbps = 1000.0;
    v.address_space = P4("100.10.10.0/24");
    victim = &ixp->add_member(v);
    ixp::MemberSpec o;
    o.asn = 65002;
    o.address_space = P4("60.2.0.0/20");
    other = &ixp->add_member(o);
    stellar = std::make_unique<StellarSystem>(*ixp);
    ixp->settle(30.0);
  }

  void settle(double s = 10.0) { ixp->settle(s); }

  net::FlowSample NtpFlow(double mbps) const {
    net::FlowSample s;
    s.key.src_mac = other->info().mac;
    s.key.src_ip = net::IPv4Address(60, 2, 0, 5);
    s.key.dst_ip = net::IPv4Address(100, 10, 10, 10);
    s.key.proto = net::IpProto::kUdp;
    s.key.src_port = net::kPortNtp;
    s.key.dst_port = 5555;
    s.bytes = static_cast<std::uint64_t>(mbps * 1e6 / 8.0);
    return s;
  }
};

Signal NtpDrop() {
  Signal s;
  s.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  return s;
}

TEST(StellarSystemTest, SignalInstallsRuleOnVictimEgressPort) {
  StellarFixture f;
  SignalAdvancedBlackholing(*f.victim, f.ixp->route_server(), P4("100.10.10.10/32"), NtpDrop());
  f.settle();
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 1u);
  EXPECT_EQ(f.stellar->manager().stats().applied, 1u);
  // The signal never reached the other member (announce-to-none default).
  EXPECT_FALSE(f.other->rib().best(P4("100.10.10.10/32")).has_value());
}

TEST(StellarSystemTest, InstalledRuleDropsAttackKeepsBenign) {
  StellarFixture f;
  SignalAdvancedBlackholing(*f.victim, f.ixp->route_server(), P4("100.10.10.10/32"), NtpDrop());
  f.settle();

  net::FlowSample benign = f.NtpFlow(100);
  benign.key.proto = net::IpProto::kTcp;
  benign.key.src_port = 50'000;
  benign.key.dst_port = 443;
  const std::vector<net::FlowSample> offered{f.NtpFlow(800), benign};
  const auto report = f.ixp->deliver_bin(offered, 1.0);
  EXPECT_NEAR(report.rule_dropped_mbps, 800.0, 1.0);
  EXPECT_NEAR(report.delivered_mbps, 100.0, 1.0);
}

TEST(StellarSystemTest, WithdrawRemovesRule) {
  StellarFixture f;
  SignalAdvancedBlackholing(*f.victim, f.ixp->route_server(), P4("100.10.10.10/32"), NtpDrop());
  f.settle();
  ASSERT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 1u);
  WithdrawAdvancedBlackholing(*f.victim, P4("100.10.10.10/32"));
  f.settle();
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 0u);
}

TEST(StellarSystemTest, ShapingSignalInstallsShaper) {
  StellarFixture f;
  Signal s = NtpDrop();
  s.shape_rate_mbps = 200.0;
  SignalAdvancedBlackholing(*f.victim, f.ixp->route_server(), P4("100.10.10.10/32"), s);
  f.settle();
  const std::vector<net::FlowSample> offered{f.NtpFlow(1000)};
  const auto report = f.ixp->deliver_bin(offered, 1.0);
  EXPECT_NEAR(report.delivered_mbps, 200.0, 2.0);
  EXPECT_NEAR(report.shaper_dropped_mbps, 800.0, 2.0);
}

TEST(StellarSystemTest, TelemetryExposesCounters) {
  StellarFixture f;
  Signal s = NtpDrop();
  s.shape_rate_mbps = 200.0;
  SignalAdvancedBlackholing(*f.victim, f.ixp->route_server(), P4("100.10.10.10/32"), s);
  f.settle();
  const std::vector<net::FlowSample> offered{f.NtpFlow(1000)};
  f.ixp->deliver_bin(offered, 1.0);

  const auto records = f.stellar->telemetry(65001);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].port, f.victim->info().port);
  EXPECT_GT(records[0].counters.matched_bytes, 0u);
  EXPECT_GT(records[0].counters.dropped_bytes, 0u);
  EXPECT_GT(records[0].counters.delivered_bytes, 0u);  // Shaped sample.
  // Telemetry is per member.
  EXPECT_TRUE(f.stellar->telemetry(65002).empty());
}

TEST(StellarSystemTest, PropagateToMembersAlsoWorks) {
  StellarFixture f;
  SignalAdvancedBlackholing(*f.victim, f.ixp->route_server(), P4("100.10.10.10/32"), NtpDrop(),
                            /*also_propagate_to_members=*/true);
  f.settle();
  // Members with default policy reject the /32, but it was exported.
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 1u);
  EXPECT_EQ(f.other->rejected_more_specifics(), 1u);
}

TEST(StellarSystemTest, OnlyPrefixOwnerCanFilter) {
  StellarFixture f;
  // The other member signals for the victim's prefix: the route server's IRR
  // check rejects the announcement, so no rule is installed anywhere.
  SignalAdvancedBlackholing(*f.other, f.ixp->route_server(), P4("100.10.10.10/32"), NtpDrop());
  f.settle();
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 0u);
  EXPECT_EQ(f.ixp->edge_router().policy(f.other->info().port).rule_count(), 0u);
  EXPECT_GE(f.ixp->route_server().rejects().irr_unauthorized, 1u);
}

TEST(StellarSystemTest, EscalationShapeThenDrop) {
  StellarFixture f;
  Signal shape = NtpDrop();
  shape.shape_rate_mbps = 200.0;
  SignalAdvancedBlackholing(*f.victim, f.ixp->route_server(), P4("100.10.10.10/32"), shape);
  f.settle();
  SignalAdvancedBlackholing(*f.victim, f.ixp->route_server(), P4("100.10.10.10/32"), NtpDrop());
  f.settle();
  const auto& policy = f.ixp->edge_router().policy(f.victim->info().port);
  ASSERT_EQ(policy.rule_count(), 1u);
  EXPECT_EQ(policy.rules()[0].rule.action, filter::FilterAction::kDrop);
}

TEST(StellarSystemTest, SignalReannouncedWithOriginMismatchIsWithdrawn) {
  StellarFixture f;
  const ixp::RouteServer& rs = f.ixp->route_server();
  SignalAdvancedBlackholing(*f.victim, rs, P4("100.10.10.10/32"), NtpDrop());
  f.settle();
  ASSERT_EQ(f.stellar->controller().desired().size(), 1u);
  const auto origin_mismatch = rs.rejects().origin_mismatch;

  // The same signal again, over a path the victim does not originate: the
  // route server rejects it, and the rejected path replaces the signal.
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65099}}};
  u.attrs.next_hop = f.victim->info().router_ip;
  u.attrs.communities = {rs.announce_to_none()};
  u.attrs.extended_communities =
      EncodeSignal(static_cast<std::uint16_t>(rs.config().asn), NtpDrop()).value();
  u.announced = {{0, P4("100.10.10.10/32")}};
  f.victim->session()->announce(u);
  f.settle();
  EXPECT_EQ(rs.rejects().origin_mismatch, origin_mismatch + 1);
  EXPECT_FALSE(rs.adj_rib_in().best(P4("100.10.10.10/32")).has_value());
  EXPECT_TRUE(f.stellar->controller().desired().empty());
  EXPECT_EQ(f.ixp->edge_router().policy(f.victim->info().port).rule_count(), 0u);
}

}  // namespace
}  // namespace stellar::core
