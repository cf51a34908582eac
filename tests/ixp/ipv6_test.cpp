// IPv6 blackholing path (paper footnote 4: IPv6 blackholing exists at <1%
// volume — the mechanism is AFI-agnostic): MP-BGP announcements through the
// route server, IRR6/bogon6 hygiene, the /48 more-specific boundary, and
// RTBH next-hop rewriting into the RFC 6666 discard prefix.
#include <gtest/gtest.h>

#include "ixp/ixp.hpp"
#include "ixp/looking_glass.hpp"

namespace stellar::ixp {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }
net::Prefix6 P6(const char* text) { return net::Prefix6::Parse(text).value(); }
net::IPv6Address A6(const char* text) { return net::IPv6Address::Parse(text).value(); }

/// Number of paths `rib` holds for `prefix`.
template <typename RibT, typename PrefixT>
std::size_t PathCount(const RibT& rib, const PrefixT& prefix) {
  std::size_t count = 0;
  rib.visit_prefix(prefix, [&](const bgp::BasicRouteView<PrefixT>&) { ++count; });
  return count;
}

struct V6Fixture {
  sim::EventQueue queue;
  std::unique_ptr<Ixp> ixp;
  MemberRouter* v6_member;   ///< Dual-stack victim.
  MemberRouter* honoring;    ///< Accepts more-specifics.
  MemberRouter* defaults;    ///< Default config (rejects > /48).

  V6Fixture() {
    ixp = std::make_unique<Ixp>(queue);
    MemberSpec a;
    a.asn = 65001;
    a.address_space = P4("100.10.10.0/24");
    a.address_space6 = P6("2001:678:a::/48");
    v6_member = &ixp->add_member(a);
    MemberSpec b;
    b.asn = 65002;
    b.address_space = P4("60.2.0.0/20");
    b.address_space6 = P6("2001:678:b::/48");
    b.policy.accepts_more_specifics = true;
    honoring = &ixp->add_member(b);
    MemberSpec c;
    c.asn = 65003;
    c.address_space = P4("60.3.0.0/20");
    c.address_space6 = P6("2001:678:c::/48");
    defaults = &ixp->add_member(c);
    ixp->settle(30.0);
  }

  void settle() { ixp->settle(10.0); }
};

TEST(Ipv6Test, MemberPrefixesPropagate) {
  V6Fixture f;
  EXPECT_EQ(f.ixp->route_server().adj_rib_in<net::Prefix6>().size(), 3u);
  // Everyone sees the other members' v6 allocations.
  EXPECT_EQ(f.honoring->rib<net::Prefix6>().size(), 2u);
  EXPECT_TRUE(f.honoring->rib<net::Prefix6>().best(P6("2001:678:a::/48")).has_value());
  EXPECT_TRUE(f.defaults->rib<net::Prefix6>().best(P6("2001:678:b::/48")).has_value());
  // Nobody received their own prefix back.
  EXPECT_FALSE(f.v6_member->rib<net::Prefix6>().best(P6("2001:678:a::/48")).has_value());
}

TEST(Ipv6Test, UnauthorizedV6PrefixRejected) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:999::/32"));
  f.settle();
  EXPECT_FALSE(
      f.ixp->route_server().adj_rib_in<net::Prefix6>().best(P6("2001:999::/32")).has_value());
  EXPECT_GE(f.ixp->route_server().rejects().irr_unauthorized, 1u);
}

TEST(Ipv6Test, BogonV6Rejected) {
  V6Fixture f;
  f.ixp->irr6().add_route_object(P6("2001:db8::/32"), 65001);  // Documentation space.
  f.v6_member->announce(P6("2001:db8::/32"));
  f.settle();
  EXPECT_GE(f.ixp->route_server().rejects().bogon, 1u);
}

TEST(Ipv6Test, TooSpecificWithoutBlackholeRejected) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"));
  f.settle();
  EXPECT_GE(f.ixp->route_server().rejects().too_specific, 1u);
}

TEST(Ipv6Test, BlackholeHostRouteRewritesNextHopToDiscardPrefix) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  // Accepted at the route server and logged.
  EXPECT_EQ(
      PathCount(f.ixp->route_server().adj_rib_in<net::Prefix6>(), P6("2001:678:a::1/128")),
      1u);
  ASSERT_GE(f.ixp->route_server().blackhole_events<net::Prefix6>().size(), 1u);
  EXPECT_EQ(f.ixp->route_server().blackhole_events<net::Prefix6>().back().member, 65001u);

  // The honoring member received it with next-hop 100::1 and installs it.
  ASSERT_EQ(PathCount(f.honoring->rib<net::Prefix6>(), P6("2001:678:a::1/128")), 1u);
  const auto route = *f.honoring->rib<net::Prefix6>().best(P6("2001:678:a::1/128"));
  ASSERT_TRUE(route.attrs.mp_reach_ipv6.has_value());
  EXPECT_EQ(route.attrs.mp_reach_ipv6->next_hop, A6("100::1"));
  EXPECT_TRUE(route.attrs.has_community(bgp::kBlackhole));
  EXPECT_TRUE(f.honoring->blackholes(A6("2001:678:a::1")));
  EXPECT_FALSE(f.honoring->blackholes(A6("2001:678:a::2")));

  // The default-config member filtered the /128 (same barrier as v4 /32s).
  EXPECT_FALSE(f.defaults->blackholes(A6("2001:678:a::1")));
  EXPECT_GE(f.defaults->rejected_more_specifics(), 1u);
}

TEST(Ipv6Test, WithdrawRemovesBlackhole) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  ASSERT_TRUE(f.honoring->blackholes(A6("2001:678:a::1")));
  f.v6_member->withdraw(P6("2001:678:a::1/128"));
  f.settle();
  EXPECT_FALSE(f.honoring->blackholes(A6("2001:678:a::1")));
  EXPECT_FALSE(
      f.ixp->route_server().adj_rib_in<net::Prefix6>().best(P6("2001:678:a::1/128")).has_value());
  // The withdraw event was logged too.
  EXPECT_TRUE(f.ixp->route_server().blackhole_events<net::Prefix6>().back().withdrawn);
}

TEST(Ipv6Test, ScopeCommunitiesApplyToV6) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"),
                        {bgp::kBlackhole, f.ixp->route_server().exclude_peer(65002)});
  f.settle();
  EXPECT_FALSE(f.honoring->rib<net::Prefix6>().best(P6("2001:678:a::1/128")).has_value());
}

TEST(Ipv6Test, SessionFailureImplicitlyWithdrawsV6Routes) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  ASSERT_TRUE(f.honoring->blackholes(A6("2001:678:a::1")));
  f.v6_member->session()->stop();
  f.settle();
  EXPECT_FALSE(f.honoring->blackholes(A6("2001:678:a::1")));
  EXPECT_FALSE(f.honoring->rib<net::Prefix6>().best(P6("2001:678:a::/48")).has_value());
}

TEST(Ipv6Test, SessionFailureLogsV6BlackholeWithdrawEvent) {
  // Regression: implicit v6 withdraws (session failure) never reached
  // events6_, so the journal undercounted removals vs explicit withdraws.
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  ASSERT_EQ(f.ixp->route_server().blackhole_events<net::Prefix6>().size(), 1u);

  f.v6_member->session()->stop();
  f.settle();
  ASSERT_EQ(f.ixp->route_server().blackhole_events<net::Prefix6>().size(), 2u);
  const auto& ev = f.ixp->route_server().blackhole_events<net::Prefix6>().back();
  EXPECT_TRUE(ev.withdrawn);
  EXPECT_EQ(ev.member, 65001u);
  EXPECT_EQ(ev.prefix, P6("2001:678:a::1/128"));
}

TEST(Ipv6Test, ResilientReconnectReplaysV6Announcements) {
  V6Fixture f;
  bgp::ReconnectPolicy policy;
  policy.initial_backoff_s = 1.0;
  policy.jitter_frac = 0.0;
  f.v6_member->connect_resilient(
      [&f] { return f.ixp->route_server().accept_member(65001); }, policy);
  f.settle();
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  ASSERT_TRUE(f.honoring->blackholes(A6("2001:678:a::1")));

  // An unexpected session loss implicitly withdraws the member's v6 routes...
  f.v6_member->session()->stop();
  f.ixp->settle(0.5);
  ASSERT_FALSE(f.honoring->blackholes(A6("2001:678:a::1")));
  ASSERT_FALSE(f.honoring->rib<net::Prefix6>().best(P6("2001:678:a::/48")).has_value());

  // ...and the re-established session replays them.
  f.settle();
  EXPECT_EQ(f.v6_member->reconnector()->stats().reconnects, 1u);
  EXPECT_TRUE(f.honoring->blackholes(A6("2001:678:a::1")));
  EXPECT_TRUE(f.honoring->rib<net::Prefix6>().best(P6("2001:678:a::/48")).has_value());
}

TEST(Ipv6Test, OriginMismatchV6Rejected) {
  V6Fixture f;
  const auto before = f.ixp->route_server().rejects().origin_mismatch;
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65099}}};
  bgp::MpReachIPv6 reach;
  reach.nlri = {P6("2001:678:a:1::/64")};
  u.attrs.mp_reach_ipv6 = std::move(reach);
  f.v6_member->session()->announce(u);
  f.settle();
  EXPECT_EQ(f.ixp->route_server().rejects().origin_mismatch, before + 1);
  EXPECT_FALSE(
      f.ixp->route_server().adj_rib_in<net::Prefix6>().best(P6("2001:678:a:1::/64")).has_value());
}

TEST(Ipv6Test, V4PathUnaffectedByV6Churn) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  // The v4 allocations are still intact everywhere.
  EXPECT_EQ(f.ixp->route_server().adj_rib_in().size(), 3u);
  EXPECT_TRUE(f.honoring->rib().best(P4("100.10.10.0/24")).has_value());
}

TEST(Ipv6Test, LookingGlassShowsV6Routes) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  LookingGlass lg(f.ixp->route_server());
  const auto routes = lg.show_route(P6("2001:678:a::1/128"));
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_NE(routes[0].find("AS65001"), std::string::npos);
  EXPECT_NE(routes[0].find("65535:666"), std::string::npos);
  EXPECT_EQ(f.ixp->route_server().adj_rib_in<net::Prefix6>().size(), 4u);
}

TEST(Ipv6Test, LookingGlassShowsV6ExtendedCommunities) {
  // show_route is one body for both prefix types, so v6 lines list
  // extended communities like v4 lines do.
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole},
                        {bgp::ExtendedCommunity::TwoOctetAs(0x80, 64500, 123)});
  f.settle();
  LookingGlass lg(f.ixp->route_server());
  const auto routes = lg.show_route(P6("2001:678:a::1/128"));
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_NE(routes[0].find(" extended "), std::string::npos);
}

TEST(Ipv6Test, Bogon6ListStandard) {
  const auto bogons = Bogon6List::Standard();
  EXPECT_TRUE(bogons.is_bogon(P6("::1/128")));
  EXPECT_TRUE(bogons.is_bogon(P6("fe80::/64")));
  EXPECT_TRUE(bogons.is_bogon(P6("fd00::/8")));
  EXPECT_TRUE(bogons.is_bogon(P6("2001:db8:1::/48")));
  EXPECT_TRUE(bogons.is_bogon(P6("ff02::/16")));
  EXPECT_FALSE(bogons.is_bogon(P6("2001:678:a::/48")));
  // The discard prefix must NOT be a bogon: it is the blackhole next-hop.
  EXPECT_FALSE(bogons.is_bogon(P6("100::/64")));
}

TEST(Ipv6Test, RejectedReannouncementWithdrawsEarlierRoute) {
  V6Fixture f;
  f.v6_member->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  ASSERT_TRUE(f.honoring->blackholes(A6("2001:678:a::1")));
  const auto too_specific = f.ixp->route_server().rejects().too_specific;

  // The same /128 without BLACKHOLE is rejected as too specific, and it
  // replaces the blackhole route all the same.
  f.v6_member->announce(P6("2001:678:a::1/128"));
  f.settle();
  EXPECT_EQ(f.ixp->route_server().rejects().too_specific, too_specific + 1);
  EXPECT_FALSE(
      f.ixp->route_server().adj_rib_in<net::Prefix6>().best(P6("2001:678:a::1/128")).has_value());
  EXPECT_FALSE(f.honoring->rib<net::Prefix6>().best(P6("2001:678:a::1/128")).has_value());
  EXPECT_FALSE(f.honoring->blackholes(A6("2001:678:a::1")));
  EXPECT_TRUE(f.ixp->route_server().blackhole_events<net::Prefix6>().back().withdrawn);
}

}  // namespace
}  // namespace stellar::ixp
