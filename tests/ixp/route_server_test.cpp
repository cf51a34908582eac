#include "ixp/route_server.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "bgp/session.hpp"
#include "ixp/ixp.hpp"
#include "obs/metrics.hpp"

namespace stellar::ixp {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

/// Number of paths `rib` holds for `prefix`.
template <typename RibT, typename PrefixT>
std::size_t PathCount(const RibT& rib, const PrefixT& prefix) {
  std::size_t count = 0;
  rib.visit_prefix(prefix, [&](const bgp::BasicRouteView<PrefixT>&) { ++count; });
  return count;
}

/// Small IXP with three members: m1 (victim, honors RTBH irrelevant), m2
/// honors RTBH, m3 does not accept more-specifics.
struct RsFixture {
  sim::EventQueue queue;
  std::unique_ptr<Ixp> ixp;
  MemberRouter* m1;
  MemberRouter* m2;
  MemberRouter* m3;

  RsFixture() {
    ixp = std::make_unique<Ixp>(queue);
    MemberSpec s1;
    s1.asn = 65001;
    s1.address_space = P4("100.10.10.0/24");
    s1.policy.accepts_more_specifics = true;
    m1 = &ixp->add_member(s1);
    MemberSpec s2;
    s2.asn = 65002;
    s2.address_space = P4("60.2.0.0/20");
    s2.policy.accepts_more_specifics = true;
    s2.policy.participates_in_rtbh = true;
    m2 = &ixp->add_member(s2);
    MemberSpec s3;
    s3.asn = 65003;
    s3.address_space = P4("60.3.0.0/20");
    s3.policy.accepts_more_specifics = false;
    m3 = &ixp->add_member(s3);
    ixp->settle(30.0);
  }

  RouteServer& rs() { return ixp->route_server(); }
  void settle() { ixp->settle(10.0); }
};

TEST(RouteServerTest, SessionsEstablishAndPrefixesPropagate) {
  RsFixture f;
  EXPECT_EQ(f.rs().established_member_sessions(), 3u);
  EXPECT_EQ(f.rs().adj_rib_in().size(), 3u);  // One prefix per member.
  // m2 sees m1's and m3's prefixes, not its own.
  EXPECT_EQ(f.m2->rib().size(), 2u);
  EXPECT_TRUE(f.m2->rib().best(P4("100.10.10.0/24")).has_value());
  EXPECT_TRUE(f.m2->rib().best(P4("60.3.0.0/20")).has_value());
}

TEST(RouteServerTest, RejectsUnauthorizedPrefix) {
  RsFixture f;
  f.m1->announce(P4("61.0.0.0/20"));  // Not in m1's IRR objects.
  f.settle();
  EXPECT_GE(f.rs().rejects().irr_unauthorized, 1u);
  EXPECT_FALSE(f.rs().adj_rib_in().best(P4("61.0.0.0/20")).has_value());
}

TEST(RouteServerTest, RejectsBogon) {
  RsFixture f;
  // Register the bogon in the IRR so only the bogon check can reject it.
  f.ixp->irr().add_route_object(P4("10.0.0.0/8"), 65001);
  f.m1->announce(P4("10.1.0.0/16"));
  f.settle();
  EXPECT_GE(f.rs().rejects().bogon, 1u);
}

TEST(RouteServerTest, RejectsRpkiInvalid) {
  RsFixture f;
  // IRR authorizes, but a ROA for a different origin makes it RPKI-invalid.
  f.ixp->irr().add_route_object(P4("62.0.0.0/16"), 65001);
  f.ixp->rpki().add_roa({P4("62.0.0.0/16"), 24, 65099});
  f.m1->announce(P4("62.0.0.0/16"));
  f.settle();
  EXPECT_GE(f.rs().rejects().rpki_invalid, 1u);
}

TEST(RouteServerTest, RejectsTooSpecificWithoutBlackhole) {
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"));  // No blackhole community.
  f.settle();
  EXPECT_GE(f.rs().rejects().too_specific, 1u);
}

TEST(RouteServerTest, AcceptsBlackholeSlash32AndRewritesNextHop) {
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"), {bgp::kBlackhole});
  f.settle();
  // Accepted at the route server.
  EXPECT_EQ(PathCount(f.rs().adj_rib_in(), P4("100.10.10.10/32")), 1u);
  // m2 (honors) received it with the blackhole next-hop and installs it.
  ASSERT_EQ(PathCount(f.m2->rib(), P4("100.10.10.10/32")), 1u);
  const auto route = *f.m2->rib().best(P4("100.10.10.10/32"));
  EXPECT_EQ(route.attrs.next_hop, f.ixp->config().blackhole_next_hop);
  EXPECT_TRUE(route.attrs.has_community(bgp::kBlackhole));
  EXPECT_TRUE(route.attrs.has_community(bgp::kNoExport));
  EXPECT_TRUE(f.m2->blackholes(net::IPv4Address(100, 10, 10, 10)));
  // m3 (default config) filtered the /32.
  EXPECT_FALSE(f.m3->blackholes(net::IPv4Address(100, 10, 10, 10)));
}

TEST(RouteServerTest, FourByteIxpAsnHasNoExtendedNamespace) {
  // AS 4 200 000 000 truncates to AS 59904 in a two-octet AS field. AS
  // 59904's extended communities belong to AS 59904: they neither make a
  // /32 an Advanced Blackholing request nor get stripped on export. The
  // IXP's large communities still do both.
  constexpr std::uint32_t kAsn = 4'200'000'000;
  constexpr std::uint16_t kTruncated = 59904;
  static_assert(static_cast<std::uint16_t>(kAsn) == kTruncated);
  sim::EventQueue queue;
  Ixp::Config config;
  config.asn = kAsn;
  Ixp ixp(queue, config);
  MemberSpec s1;
  s1.asn = 65001;
  s1.address_space = P4("100.10.10.0/24");
  auto& m1 = ixp.add_member(s1);
  MemberSpec s2;
  s2.asn = 65002;
  s2.address_space = P4("60.2.0.0/20");
  s2.policy.accepts_more_specifics = true;
  auto& m2 = ixp.add_member(s2);
  ixp.settle(30.0);

  const auto route_target = bgp::ExtendedCommunity::TwoOctetAs(
      bgp::ExtendedCommunity::kSubTypeRouteTarget, kTruncated, 1);
  m1.announce(P4("100.10.10.0/24"), {}, {route_target});
  m1.announce(P4("100.10.10.10/32"), {},
              {bgp::ExtendedCommunity::TwoOctetAs(0x80, kTruncated, 7)});
  m1.announce(P4("100.10.10.20/32"), {}, {}, {bgp::LargeCommunity{kAsn, 0x80u << 24, 7}});
  ixp.settle(10.0);

  EXPECT_EQ(ixp.route_server().rejects().too_specific, 1u);
  EXPECT_FALSE(ixp.route_server().adj_rib_in().best(P4("100.10.10.10/32")).has_value());
  EXPECT_FALSE(m2.rib().best(P4("100.10.10.10/32")).has_value());
  const auto covering = m2.rib().best(P4("100.10.10.0/24"));
  ASSERT_TRUE(covering.has_value());
  EXPECT_EQ(covering->attrs.extended_communities, std::vector{route_target});
  const auto signaled = m2.rib().best(P4("100.10.10.20/32"));
  ASSERT_TRUE(signaled.has_value());
  EXPECT_TRUE(signaled->attrs.large_communities.empty());
}

TEST(RouteServerTest, ScopeExcludePeer) {
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"),
                 {bgp::kBlackhole, f.rs().exclude_peer(65002)});
  f.settle();
  EXPECT_FALSE(f.m2->rib().best(P4("100.10.10.10/32")).has_value());
}

TEST(RouteServerTest, ScopeAnnounceToNoneWithInclude) {
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"),
                 {bgp::kBlackhole, f.rs().announce_to_none(), f.rs().include_peer(65002)});
  f.settle();
  EXPECT_TRUE(f.m2->rib().best(P4("100.10.10.10/32")).has_value());
  // Scope communities are stripped on export.
  ASSERT_EQ(PathCount(f.m2->rib(), P4("100.10.10.10/32")), 1u);
  const auto route = *f.m2->rib().best(P4("100.10.10.10/32"));
  EXPECT_FALSE(route.attrs.has_community(f.rs().announce_to_none()));
  EXPECT_FALSE(route.attrs.has_community(f.rs().include_peer(65002)));
}

TEST(RouteServerTest, AnnounceToNoneReachesNoMember) {
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"), {bgp::kBlackhole, f.rs().announce_to_none()});
  f.settle();
  EXPECT_FALSE(f.m2->rib().best(P4("100.10.10.10/32")).has_value());
  EXPECT_FALSE(f.m3->rib().best(P4("100.10.10.10/32")).has_value());
  // But the RIB (and thus the controller session) still has it.
  EXPECT_EQ(PathCount(f.rs().adj_rib_in(), P4("100.10.10.10/32")), 1u);
}

TEST(RouteServerTest, WithdrawPropagates) {
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"), {bgp::kBlackhole});
  f.settle();
  ASSERT_TRUE(f.m2->blackholes(net::IPv4Address(100, 10, 10, 10)));
  f.m1->withdraw(P4("100.10.10.10/32"));
  f.settle();
  EXPECT_FALSE(f.m2->blackholes(net::IPv4Address(100, 10, 10, 10)));
  EXPECT_FALSE(f.rs().adj_rib_in().best(P4("100.10.10.10/32")).has_value());
}

TEST(RouteServerTest, BlackholeEventsLogged) {
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"), {bgp::kBlackhole, f.rs().exclude_peer(65002)});
  f.settle();
  ASSERT_GE(f.rs().blackhole_events().size(), 1u);
  const auto& ev = f.rs().blackhole_events().back();
  EXPECT_EQ(ev.member, 65001u);
  EXPECT_EQ(ev.prefix, P4("100.10.10.10/32"));
  EXPECT_EQ(ev.excluded_peers, 1);
  EXPECT_FALSE(ev.announce_to_none);
  EXPECT_FALSE(ev.withdrawn);
}

TEST(RouteServerTest, SessionFailureLogsBlackholeWithdrawEvent) {
  // Regression: the session-failure path used to call controller_withdraw but
  // never log_blackhole_event, so implicit withdraws were invisible to the
  // journal / looking glass while explicit withdraws were logged.
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"), {bgp::kBlackhole, f.rs().exclude_peer(65002)});
  f.settle();
  ASSERT_EQ(f.rs().blackhole_events().size(), 1u);  // The announce.

  f.m1->session()->stop();
  f.settle();
  ASSERT_FALSE(f.rs().adj_rib_in().best(P4("100.10.10.10/32")).has_value());

  // Journal parity with the explicit-withdraw path: every logged announce has
  // a matching withdrawn=true event once the route is gone.
  ASSERT_EQ(f.rs().blackhole_events().size(), 2u);
  const auto& ev = f.rs().blackhole_events().back();
  EXPECT_TRUE(ev.withdrawn);
  EXPECT_EQ(ev.member, 65001u);
  EXPECT_EQ(ev.prefix, P4("100.10.10.10/32"));
  // Scope attrs of the torn-down route are preserved in the event.
  EXPECT_EQ(ev.excluded_peers, 1);
}

TEST(RouteServerTest, ExplicitWithdrawLogsWithdrawnRouteScope) {
  // Regression: an explicit withdraw logged the withdraw UPDATE's own
  // attributes, which are empty, so the event lost the route's scope.
  RsFixture f;
  f.m1->announce(P4("100.10.10.10/32"), {bgp::kBlackhole, f.rs().exclude_peer(65002)});
  f.m1->announce(P4("100.10.10.11/32"), {bgp::kBlackhole, f.rs().announce_to_none(),
                                         f.rs().include_peer(65002)});
  f.settle();
  f.m1->withdraw(P4("100.10.10.10/32"));
  f.m1->withdraw(P4("100.10.10.11/32"));
  f.settle();

  ASSERT_EQ(f.rs().blackhole_events().size(), 4u);
  const auto& excluded = f.rs().blackhole_events()[2];
  EXPECT_TRUE(excluded.withdrawn);
  EXPECT_EQ(excluded.prefix, P4("100.10.10.10/32"));
  EXPECT_EQ(excluded.excluded_peers, 1);
  EXPECT_FALSE(excluded.announce_to_none);
  const auto& scoped = f.rs().blackhole_events()[3];
  EXPECT_TRUE(scoped.withdrawn);
  EXPECT_EQ(scoped.prefix, P4("100.10.10.11/32"));
  EXPECT_TRUE(scoped.announce_to_none);
  EXPECT_EQ(scoped.included_peers, 1);
}

TEST(RouteServerTest, SessionFailureWithoutBlackholeRoutesLogsNothing) {
  RsFixture f;
  const auto before = f.rs().blackhole_events().size();
  f.m3->session()->stop();  // m3 only announced its plain member prefix.
  f.settle();
  EXPECT_EQ(f.rs().blackhole_events().size(), before);
}

TEST(RouteServerTest, ControllerSessionReceivesAllPathsWithAddPath) {
  RsFixture f;
  auto endpoint = f.rs().accept_controller();
  bgp::SessionConfig config;
  config.local_asn = 64500;
  config.router_id = net::IPv4Address(10, 99, 0, 2);
  config.add_path_rx = true;
  bgp::Session controller(f.queue, endpoint, config);
  bgp::Rib rib;
  controller.set_update_handler(
      [&rib](const bgp::UpdateMessage& u) { rib.apply_update(0, u); });
  controller.start();
  f.settle();
  // Initial sync: all three member prefixes.
  EXPECT_EQ(rib.size(), 3u);

  // A signal scoped to announce-to-none still reaches the controller.
  f.m1->announce(P4("100.10.10.10/32"), {bgp::kBlackhole, f.rs().announce_to_none()});
  f.settle();
  ASSERT_EQ(PathCount(rib, P4("100.10.10.10/32")), 1u);
  // Path-ids are nonzero on the ADD-PATH session.
  EXPECT_NE(rib.best(P4("100.10.10.10/32"))->path_id, 0u);
}

TEST(RouteServerTest, OriginMismatchRejected) {
  RsFixture f;
  // Craft an update whose AS path origin differs from the announcing member.
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65099}}};
  u.attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
  u.announced = {{0, P4("100.10.10.0/24")}};
  f.m1->session()->announce(u);
  f.settle();
  EXPECT_GE(f.rs().rejects().origin_mismatch, 1u);
}

TEST(RouteServerTest, RejectedReannouncementWithdrawsEarlierRoute) {
  RsFixture f;
  f.m1->announce(P4("100.10.10.1/32"), {bgp::kBlackhole});
  f.settle();
  ASSERT_TRUE(f.m2->blackholes(net::IPv4Address(100, 10, 10, 1)));
  const auto too_specific = f.rs().rejects().too_specific;

  // The same /32 without BLACKHOLE is rejected as too specific, and it
  // replaces the blackhole route all the same.
  f.m1->announce(P4("100.10.10.1/32"));
  f.settle();
  EXPECT_EQ(f.rs().rejects().too_specific, too_specific + 1);
  EXPECT_FALSE(f.rs().adj_rib_in().best(P4("100.10.10.1/32")).has_value());
  EXPECT_FALSE(f.m2->rib().best(P4("100.10.10.1/32")).has_value());
  EXPECT_FALSE(f.m2->blackholes(net::IPv4Address(100, 10, 10, 1)));
  ASSERT_FALSE(f.rs().blackhole_events().empty());
  EXPECT_TRUE(f.rs().blackhole_events().back().withdrawn);
}

/// Codec work of one announcement by the first of `members` members, all
/// Established. With `filter_last`, the last member's link has a
/// pass-through fault filter.
struct CodecWork {
  std::uint64_t encoded = 0;
  std::uint64_t decoded = 0;
  std::size_t receivers = 0;
};
CodecWork AnnounceOnce(std::size_t members, bool filter_last) {
  obs::registry().arm();
  sim::EventQueue queue;
  Ixp ixp(queue);
  std::vector<MemberRouter*> routers;
  for (std::size_t i = 0; i < members; ++i) {
    bgp::LinkHook previous;
    if (filter_last && i + 1 == members) {
      previous = bgp::SetLinkHook(
          [](const std::shared_ptr<bgp::Endpoint>& a, const std::shared_ptr<bgp::Endpoint>&) {
            a->set_fault_filter([](std::vector<std::uint8_t>&, sim::Duration&) { return true; });
          });
    }
    MemberSpec spec;
    spec.asn = static_cast<bgp::Asn>(65001 + i);
    spec.address_space = net::Prefix4(net::IPv4Address(60, static_cast<std::uint8_t>(i + 1), 0, 0), 20);
    routers.push_back(&ixp.add_member(spec));
    if (filter_last && i + 1 == members) bgp::SetLinkHook(std::move(previous));
  }
  ixp.settle(30.0);
  const auto& registry = obs::registry();
  const std::uint64_t encoded = registry.counter_total("bgp.codec.updates_encoded");
  const std::uint64_t decoded = registry.counter_total("bgp.codec.updates_decoded");
  routers[0]->announce(P4("60.1.1.0/24"));
  ixp.settle(5.0);
  CodecWork work{registry.counter_total("bgp.codec.updates_encoded") - encoded,
                 registry.counter_total("bgp.codec.updates_decoded") - decoded, 0};
  for (MemberRouter* router : routers) {
    if (router->rib().best(P4("60.1.1.0/24"))) ++work.receivers;
  }
  return work;
}

TEST(RouteServerTest, FanOutEncodesAndDecodesOncePerUpdateGroup) {
  // One encode and one decode for the member's UPDATE to the route server,
  // and one of each for the fan-out, whatever the number of receivers.
  for (const std::size_t members : {3u, 9u}) {
    const CodecWork work = AnnounceOnce(members, /*filter_last=*/false);
    EXPECT_EQ(work.receivers, members - 1) << members << " members";
    EXPECT_EQ(work.encoded, 2u) << members << " members";
    EXPECT_EQ(work.decoded, 2u) << members << " members";
  }
  // A fault-filtered link carries a private copy, which its receiver decodes
  // for itself.
  const CodecWork filtered = AnnounceOnce(9, /*filter_last=*/true);
  EXPECT_EQ(filtered.receivers, 8u);
  EXPECT_EQ(filtered.encoded, 2u);
  EXPECT_EQ(filtered.decoded, 3u);
}

}  // namespace
}  // namespace stellar::ixp
