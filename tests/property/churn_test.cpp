// Model-checking style property tests under random churn:
//   - the RIB against a reference std::map model,
//   - the route server + controller against random announce/withdraw/signal
//     sequences, checking the global invariants that must hold in *any*
//     state: members never hold routes that violate their import policy,
//     installed rules correspond exactly to currently signaled routes, and
//     TCAM accounting matches the installed rule set.
#include <gtest/gtest.h>

#include <map>

#include "core/stellar.hpp"
#include "net/ports.hpp"
#include "util/rng.hpp"

namespace stellar {
namespace {

class ChurnTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnTest, RibMatchesReferenceModel) {
  util::Rng rng(GetParam());
  bgp::Rib rib;
  std::map<std::tuple<net::Prefix4, bgp::PeerId, bgp::PathId>, bgp::PathAttributes> model;

  for (int op = 0; op < 5000; ++op) {
    const net::Prefix4 prefix(
        net::IPv4Address((60u << 24) |
                         (static_cast<std::uint32_t>(rng.uniform_int(0, 15)) << 12)),
        static_cast<std::uint8_t>(rng.uniform_int(16, 32)));
    const auto peer = static_cast<bgp::PeerId>(rng.uniform_int(1, 4));
    const auto path_id = static_cast<bgp::PathId>(rng.uniform_int(0, 2));
    if (rng.chance(0.6)) {
      bgp::Route route;
      route.prefix = prefix;
      route.peer = peer;
      route.path_id = path_id;
      route.attrs.origin = bgp::Origin::kIgp;
      route.attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
      const bool changed = rib.insert(route);
      auto key = std::make_tuple(prefix, peer, path_id);
      const auto it = model.find(key);
      EXPECT_EQ(changed, it == model.end() || !(it->second == route.attrs));
      model[key] = route.attrs;
    } else if (rng.chance(0.8)) {
      const bool removed = rib.withdraw(prefix, peer, path_id);
      EXPECT_EQ(removed, model.erase(std::make_tuple(prefix, peer, path_id)) > 0);
    } else {
      rib.withdraw_peer(peer);
      for (auto it = model.begin(); it != model.end();) {
        it = std::get<1>(it->first) == peer ? model.erase(it) : std::next(it);
      }
    }
    ASSERT_EQ(rib.size(), model.size());
  }
  // Final full comparison.
  ASSERT_EQ(rib.size(), model.size());
  rib.for_each([&](const bgp::RouteView& route) {
    const auto it = model.find(std::make_tuple(route.prefix, route.peer, route.path_id));
    ASSERT_NE(it, model.end());
    EXPECT_EQ(route.attrs, it->second);
  });
}

TEST_P(ChurnTest, StellarStateConsistentUnderRandomSignalChurn) {
  util::Rng rng(GetParam() + 50);
  sim::EventQueue queue;
  ixp::Ixp ixp(queue);

  constexpr int kMembers = 6;
  std::vector<ixp::MemberRouter*> members;
  for (int i = 0; i < kMembers; ++i) {
    ixp::MemberSpec spec;
    spec.asn = static_cast<bgp::Asn>(65001 + i);
    spec.address_space = net::Prefix4(
        net::IPv4Address((100u << 24) | (10u << 16) | (static_cast<std::uint32_t>(i) << 8)),
        24);
    spec.policy.accepts_more_specifics = rng.chance(0.5);
    members.push_back(&ixp.add_member(spec));
  }
  core::StellarSystem stellar(ixp);
  ixp.settle(30.0);

  // Random signal churn: members announce/withdraw Stellar rules for random
  // hosts in their own space.
  std::set<std::pair<int, std::uint8_t>> active;  // (member, host octet).
  for (int op = 0; op < 120; ++op) {
    const int m = static_cast<int>(rng.uniform_int(0, kMembers - 1));
    const auto host = static_cast<std::uint8_t>(rng.uniform_int(1, 6));
    const net::Prefix4 target = net::Prefix4::HostRoute(net::IPv4Address(
        members[static_cast<std::size_t>(m)]->info().address_space.address().value() | host));
    if (rng.chance(0.6)) {
      core::Signal signal;
      signal.rules.push_back(
          {core::RuleKind::kUdpSrcPort,
           static_cast<std::uint16_t>(rng.chance(0.5) ? net::kPortNtp : net::kPortDns)});
      if (rng.chance(0.3)) signal.shape_rate_mbps = 100.0;
      core::SignalAdvancedBlackholing(*members[static_cast<std::size_t>(m)],
                                      ixp.route_server(), target, signal);
      active.insert({m, host});
    } else {
      core::WithdrawAdvancedBlackholing(*members[static_cast<std::size_t>(m)], target);
      active.erase({m, host});
    }
    if (op % 10 == 0) ixp.settle(5.0);
  }
  ixp.settle(60.0);  // Drain the token-bucket queue completely.

  // Invariant 1: the manager applied everything without failures.
  EXPECT_EQ(stellar.manager().stats().failed, 0u);
  EXPECT_EQ(stellar.manager().queue_depth(), 0u);

  // Invariant 2: installed rules == active signals, each on its owner's port.
  std::size_t installed = 0;
  for (int m = 0; m < kMembers; ++m) {
    const auto& policy =
        ixp.edge_router().policy(members[static_cast<std::size_t>(m)]->info().port);
    installed += policy.rule_count();
    std::size_t expected = 0;
    for (const auto& [member, host] : active) {
      if (member == m) ++expected;
    }
    EXPECT_EQ(policy.rule_count(), expected) << "member " << m;
    // Every rule's dst prefix lies inside the member's own space.
    for (const auto& rule : policy.rules()) {
      ASSERT_TRUE(rule.rule.match.dst_prefix.has_value());
      EXPECT_TRUE(members[static_cast<std::size_t>(m)]->info().address_space.contains(
          *rule.rule.match.dst_prefix));
    }
  }
  EXPECT_EQ(installed, active.size());
  EXPECT_EQ(stellar.controller().desired().size(), active.size());

  // Invariant 3: TCAM accounting equals the sum over installed rules.
  std::int64_t expected_l3l4 = 0;
  for (int m = 0; m < kMembers; ++m) {
    for (const auto& rule :
         ixp.edge_router().policy(members[static_cast<std::size_t>(m)]->info().port).rules()) {
      expected_l3l4 += rule.rule.match.l3l4_criteria_count();
    }
  }
  EXPECT_EQ(ixp.edge_router().tcam().l3l4_in_use(), expected_l3l4);

  // Invariant 4: members never hold routes their import policy forbids, and
  // never their own prefix.
  for (int m = 0; m < kMembers; ++m) {
    const auto& member = *members[static_cast<std::size_t>(m)];
    member.rib().for_each([&](const bgp::RouteView& route) {
      if (route.prefix.length() > 24) {
        EXPECT_TRUE(member.info().policy.accepts_more_specifics);
      }
      EXPECT_FALSE(member.info().address_space == route.prefix);
    });
  }
}

TEST_P(ChurnTest, RouteServerChurnKeepsControllerRibInSync) {
  util::Rng rng(GetParam() + 99);
  sim::EventQueue queue;
  ixp::Ixp ixp(queue);
  std::vector<ixp::MemberRouter*> members;
  for (int i = 0; i < 4; ++i) {
    ixp::MemberSpec spec;
    spec.asn = static_cast<bgp::Asn>(65001 + i);
    spec.address_space = net::Prefix4(
        net::IPv4Address((60u << 24) | (static_cast<std::uint32_t>(i) << 12)), 20);
    members.push_back(&ixp.add_member(spec));
  }
  // A plain ADD-PATH observer session (same wiring as the controller's).
  bgp::Rib observer_rib;
  auto endpoint = ixp.route_server().accept_controller();
  bgp::SessionConfig observer_config;
  observer_config.local_asn = ixp.config().asn;
  observer_config.router_id = net::IPv4Address(10, 99, 0, 9);
  observer_config.add_path_rx = true;
  bgp::Session observer(queue, endpoint, observer_config);
  observer.set_update_handler(
      [&observer_rib](const bgp::UpdateMessage& u) { observer_rib.apply_update(0, u); });
  observer.start();
  ixp.settle(30.0);

  for (int op = 0; op < 200; ++op) {
    auto& member = *members[static_cast<std::size_t>(rng.uniform_int(0, 3))];
    const net::Prefix4 prefix(
        net::IPv4Address(member.info().address_space.address().value() |
                         (static_cast<std::uint32_t>(rng.uniform_int(0, 3)) << 8)),
        static_cast<std::uint8_t>(rng.uniform_int(21, 24)));
    if (rng.chance(0.65)) {
      member.announce(prefix);
    } else {
      member.withdraw(prefix);
    }
    if (op % 20 == 0) ixp.settle(5.0);
  }
  ixp.settle(30.0);

  // The observer's RIB must mirror the route server's Adj-RIB-In exactly
  // (modulo the path-id relabeling: one path per (prefix, member)).
  const auto& server_rib = ixp.route_server().adj_rib_in();
  EXPECT_EQ(observer_rib.size(), server_rib.size());
  server_rib.for_each([&](const bgp::RouteView& route) {
    bool found = false;
    observer_rib.visit_prefix(route.prefix, [&](const bgp::RouteView& observed) {
      if (observed.attrs == route.attrs) found = true;
    });
    EXPECT_TRUE(found) << route.str();
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChurnTest, ::testing::Values(5, 6, 7));

}  // namespace
}  // namespace stellar
