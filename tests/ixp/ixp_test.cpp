#include "ixp/ixp.hpp"

#include <gtest/gtest.h>

#include "ixp/looking_glass.hpp"

namespace stellar::ixp {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

TEST(IxpTest, AddMemberWiresEverything) {
  sim::EventQueue queue;
  Ixp ixp(queue);
  MemberSpec spec;
  spec.asn = 65001;
  spec.port_capacity_mbps = 1000.0;
  spec.address_space = P4("60.1.0.0/20");
  auto& member = ixp.add_member(spec);
  ixp.settle(30.0);

  EXPECT_TRUE(member.session()->established());
  EXPECT_TRUE(ixp.edge_router().has_port(member.info().port));
  EXPECT_TRUE(ixp.irr().authorized(P4("60.1.0.0/20"), 65001));
  EXPECT_TRUE(ixp.irr().authorized(P4("60.1.0.5/32"), 65001));
  filter::PortId port = 0;
  EXPECT_TRUE(ixp.fabric().lookup_egress(net::IPv4Address(60, 1, 0, 5), port));
  EXPECT_EQ(port, member.info().port);
  // The member's own prefix is accepted by the route server.
  EXPECT_EQ(ixp.route_server().adj_rib_in().size(), 1u);
}

TEST(IxpTest, DuplicateAsnRejected) {
  sim::EventQueue queue;
  Ixp ixp(queue);
  MemberSpec spec;
  spec.asn = 65001;
  spec.address_space = P4("60.1.0.0/20");
  ixp.add_member(spec);
  EXPECT_THROW(ixp.add_member(spec), std::invalid_argument);
}

TEST(IxpTest, MemberLookup) {
  sim::EventQueue queue;
  Ixp ixp(queue);
  MemberSpec spec;
  spec.asn = 65001;
  spec.address_space = P4("60.1.0.0/20");
  ixp.add_member(spec);
  EXPECT_NE(ixp.member(65001), nullptr);
  EXPECT_EQ(ixp.member(65002), nullptr);
}

TEST(IxpTest, SourceMembersExcludesVictim) {
  sim::EventQueue queue;
  Ixp ixp(queue);
  for (bgp::Asn asn : {65001u, 65002u, 65003u}) {
    MemberSpec spec;
    spec.asn = asn;
    spec.address_space = net::Prefix4(
        net::IPv4Address((60u << 24) | ((asn - 65001u) << 12)), 20);
    ixp.add_member(spec);
  }
  EXPECT_EQ(ixp.source_members().size(), 3u);
  const auto sources = ixp.source_members(65002);
  EXPECT_EQ(sources.size(), 2u);
  for (const auto& s : sources) {
    EXPECT_NE(s.mac, net::MacAddress::ForRouter(65002));
  }
}

TEST(MakeLargeIxpTest, BuildsConfiguredPopulation) {
  sim::EventQueue queue;
  LargeIxpParams params;
  params.member_count = 60;
  params.rtbh_honor_fraction = 0.3;
  params.seed = 11;
  auto ixp = MakeLargeIxp(queue, params);
  EXPECT_EQ(ixp->members().size(), 60u);
  EXPECT_EQ(ixp->route_server().established_member_sessions(), 60u);
  // All member prefixes accepted.
  EXPECT_EQ(ixp->route_server().adj_rib_in().size(), 60u);
  // Honor fraction roughly matches.
  int honoring = 0;
  for (const auto& m : ixp->members()) {
    if (m->info().policy.honors_rtbh()) ++honoring;
  }
  EXPECT_NEAR(static_cast<double>(honoring) / 60.0, 0.3, 0.15);
  // Address spaces are disjoint /20s.
  for (const auto& m : ixp->members()) EXPECT_EQ(m->info().address_space.length(), 20);
}

TEST(MakeLargeIxpTest, DeterministicForSeed) {
  sim::EventQueue q1;
  sim::EventQueue q2;
  LargeIxpParams params;
  params.member_count = 20;
  params.seed = 5;
  auto a = MakeLargeIxp(q1, params);
  auto b = MakeLargeIxp(q2, params);
  for (std::size_t i = 0; i < a->members().size(); ++i) {
    EXPECT_EQ(a->members()[i]->info().port_capacity_mbps,
              b->members()[i]->info().port_capacity_mbps);
    EXPECT_EQ(a->members()[i]->info().policy.accepts_more_specifics,
              b->members()[i]->info().policy.accepts_more_specifics);
  }
}

TEST(LookingGlassTest, ShowsRoutesAndStatus) {
  sim::EventQueue queue;
  Ixp ixp(queue);
  MemberSpec spec;
  spec.asn = 65001;
  spec.address_space = P4("100.10.10.0/24");
  auto& member = ixp.add_member(spec);
  ixp.settle(30.0);
  member.announce(P4("100.10.10.10/32"), {bgp::kBlackhole});
  ixp.settle(10.0);

  LookingGlass lg(ixp.route_server());
  const auto routes = lg.show_route(P4("100.10.10.10/32"));
  ASSERT_EQ(routes.size(), 1u);
  EXPECT_NE(routes[0].find("AS65001"), std::string::npos);
  EXPECT_NE(routes[0].find("65535:666"), std::string::npos);

  EXPECT_EQ(ixp.route_server().adj_rib_in().prefixes().size(), 2u);  // /24 and /32.
  EXPECT_EQ(ixp.route_server().member_count(), 1u);
  EXPECT_EQ(ixp.route_server().established_member_sessions(), 1u);
}

}  // namespace
}  // namespace stellar::ixp
