// ROUTE-REFRESH (RFC 2918) and runtime policy changes — the §2.4 remediation
// story: most members do not honor /32 blackholes because their default
// import policy filters more-specifics; an operator fixing that config must
// regain the filtered routes without bouncing the session.
#include <gtest/gtest.h>

#include "ixp/ixp.hpp"
#include "mitigation/rtbh.hpp"

namespace stellar::ixp {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }
net::Prefix6 P6(const char* text) { return net::Prefix6::Parse(text).value(); }

struct RefreshFixture {
  sim::EventQueue queue;
  std::unique_ptr<Ixp> ixp;
  MemberRouter* victim;
  MemberRouter* fixable;  ///< Starts with the default (filtering) config.

  RefreshFixture() {
    ixp = std::make_unique<Ixp>(queue);
    MemberSpec v;
    v.asn = 65001;
    v.address_space = P4("100.10.10.0/24");
    v.address_space6 = P6("2001:678:a::/48");
    victim = &ixp->add_member(v);
    MemberSpec f;
    f.asn = 65002;
    f.address_space = P4("60.2.0.0/20");
    f.address_space6 = P6("2001:678:b::/48");
    f.policy.accepts_more_specifics = false;
    fixable = &ixp->add_member(f);
    ixp->settle(30.0);
  }

  void settle() { ixp->settle(10.0); }
};

TEST(RouteRefreshTest, MessageRoundTrip) {
  const bgp::RouteRefreshMessage m{bgp::kAfiIPv6, bgp::kSafiUnicast};
  const auto decoded = bgp::Decode(bgp::Encode(m));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<bgp::RouteRefreshMessage>(*decoded), m);
  EXPECT_EQ(bgp::Encode(m).size(), bgp::kHeaderSize + 4);
}

TEST(RouteRefreshTest, FixingPolicyRecoversFilteredBlackhole) {
  RefreshFixture f;
  // The attack: victim triggers RTBH; the fixable member filters the /32.
  mitigation::TriggerRtbh(*f.victim, P4("100.10.10.10/32"));
  f.settle();
  EXPECT_FALSE(f.fixable->blackholes(net::IPv4Address(100, 10, 10, 10)));
  EXPECT_GE(f.fixable->rejected_more_specifics(), 1u);

  // The remediation: operator enables the blackhole exception; ROUTE-REFRESH
  // re-delivers the /32 without a session reset.
  MemberPolicy fixed;
  fixed.accepts_more_specifics = true;
  fixed.participates_in_rtbh = true;
  f.fixable->update_policy(fixed);
  f.settle();
  EXPECT_TRUE(f.fixable->blackholes(net::IPv4Address(100, 10, 10, 10)));
  EXPECT_TRUE(f.fixable->session()->established());  // No reset.
}

TEST(RouteRefreshTest, RefreshIsIdempotentForUnchangedPolicy) {
  RefreshFixture f;
  const auto routes_before = f.fixable->rib().size();
  f.fixable->session()->request_route_refresh();
  f.settle();
  EXPECT_EQ(f.fixable->rib().size(), routes_before);
}

TEST(RouteRefreshTest, TighteningPolicyDropsMoreSpecifics) {
  RefreshFixture f;
  MemberPolicy open;
  open.accepts_more_specifics = true;
  f.fixable->update_policy(open);
  mitigation::TriggerRtbh(*f.victim, P4("100.10.10.10/32"));
  f.settle();
  ASSERT_TRUE(f.fixable->blackholes(net::IPv4Address(100, 10, 10, 10)));

  MemberPolicy strict;
  strict.accepts_more_specifics = false;
  f.fixable->update_policy(strict);
  EXPECT_FALSE(f.fixable->blackholes(net::IPv4Address(100, 10, 10, 10)));
  EXPECT_FALSE(f.fixable->rib().best(P4("100.10.10.10/32")).has_value());
  f.settle();
  // The refresh re-sent the /32 but the strict policy filters it again.
  EXPECT_FALSE(f.fixable->blackholes(net::IPv4Address(100, 10, 10, 10)));
}

TEST(RouteRefreshTest, TighteningPolicyDropsV6MoreSpecifics) {
  RefreshFixture f;
  MemberPolicy open;
  open.accepts_more_specifics = true;
  f.fixable->update_policy(open);
  f.victim->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  const auto host = net::IPv6Address::Parse("2001:678:a::1").value();
  ASSERT_TRUE(f.fixable->blackholes(host));

  MemberPolicy strict;
  strict.accepts_more_specifics = false;
  f.fixable->update_policy(strict);
  EXPECT_FALSE(f.fixable->blackholes(host));
  EXPECT_TRUE(f.fixable->blackholed_prefixes<net::Prefix6>().empty());
  EXPECT_FALSE(f.fixable->rib<net::Prefix6>().best(P6("2001:678:a::1/128")).has_value());
  // Routes at the /48 boundary stay.
  EXPECT_TRUE(f.fixable->rib<net::Prefix6>().best(P6("2001:678:a::/48")).has_value());
  f.settle();
  // The refresh re-sent the /128 but the strict policy filters it again.
  EXPECT_FALSE(f.fixable->blackholes(host));
  EXPECT_FALSE(f.fixable->rib<net::Prefix6>().best(P6("2001:678:a::1/128")).has_value());
}

TEST(RouteRefreshTest, Ipv6RefreshRecoversV6Blackhole) {
  RefreshFixture f;
  f.victim->announce(P6("2001:678:a::1/128"), {bgp::kBlackhole});
  f.settle();
  EXPECT_FALSE(f.fixable->blackholes(net::IPv6Address::Parse("2001:678:a::1").value()));

  MemberPolicy fixed;
  fixed.accepts_more_specifics = true;
  f.fixable->update_policy(fixed);
  f.settle();
  EXPECT_TRUE(f.fixable->blackholes(net::IPv6Address::Parse("2001:678:a::1").value()));
}

TEST(RouteRefreshTest, RefreshDoesNotLeakOtherMembersOwnRoutes) {
  RefreshFixture f;
  f.fixable->session()->request_route_refresh();
  f.settle();
  // Still no self-route and no unauthorized routes.
  EXPECT_FALSE(f.fixable->rib().best(P4("60.2.0.0/20")).has_value());
  EXPECT_TRUE(f.fixable->rib().best(P4("100.10.10.0/24")).has_value());
}

}  // namespace
}  // namespace stellar::ixp
