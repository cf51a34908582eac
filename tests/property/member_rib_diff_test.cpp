// Differential test: the member router's flat RIB (one entry per prefix,
// with its blackhole bit) against the import it replaced, copied here as the
// reference: a bgp::BasicRib keyed by (prefix, peer, path-id) plus a
// blackholed set, both written on every import.
//
// One seeded script per seed drives a MemberRouter through a real session:
// random UPDATEs for both AFIs (several prefixes each, mixed IPv4 and IPv6,
// withdraws, RTBH /32 and /128 routes with the route server's blackhole next
// hop or with another one, re-announces with changed attributes), import
// policy flips (update_policy, which evicts more-specifics on tightening),
// and session closes answered by a fresh session. The reference imports each
// UPDATE as the member decodes it. After every step both must agree on
// best(), find() (the same interned pointer), visit_prefix(), for_each()
// order, prefixes(), size(), empty(), blackholed_prefixes(), blackholes(dst)
// and the rejected more-specifics count.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/session.hpp"
#include "ixp/member.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace stellar::ixp {
namespace {

constexpr int kSteps = 400;
const net::IPv4Address kBlackhole4(10, 99, 0, 66);
const net::IPv6Address kBlackhole6 = net::IPv6Address::Parse("100::1").value();

template <typename PrefixT>
using PrefixSet = std::set<PrefixT>;

/// The member import as it was before the flat RIB.
class ReferenceMember {
 public:
  explicit ReferenceMember(MemberPolicy policy) : policy_(policy) {}

  void on_update(const bgp::UpdateMessage& update) {
    import_update<net::Prefix4>(update);
    import_update<net::Prefix6>(update);
  }
  void on_close() {
    ribs_ = {};
    blackholed_ = {};
  }
  void update_policy(MemberPolicy policy) {
    policy_ = policy;
    if (!policy.accepts_more_specifics) {
      evict_more_specifics<net::Prefix4>();
      evict_more_specifics<net::Prefix6>();
    }
  }

  template <typename PrefixT>
  [[nodiscard]] const bgp::BasicRib<PrefixT>& rib() const {
    return ribs_.get<PrefixT>();
  }
  template <typename PrefixT>
  [[nodiscard]] const std::set<PrefixT>& blackholed() const {
    return blackholed_.get<PrefixT>();
  }
  template <typename PrefixT>
  [[nodiscard]] bool blackholes(const typename bgp::Afi<PrefixT>::Address& dst) const {
    for (const auto& p : blackholed_.get<PrefixT>()) {
      if (p.contains(dst)) return true;
    }
    return false;
  }
  [[nodiscard]] std::uint64_t rejected() const { return rejected_; }

 private:
  template <typename PrefixT>
  void import_update(const bgp::UpdateMessage& update) {
    using Afi = bgp::Afi<PrefixT>;
    auto& rib = ribs_.get<PrefixT>();
    auto& blackholed = blackholed_.get<PrefixT>();
    Afi::for_each_withdrawn(update, [&](const PrefixT& prefix, bgp::PathId path_id) {
      rib.withdraw(prefix, 0, path_id);
      blackholed.erase(prefix);
    });
    Afi::for_each_announced(update, [&](const PrefixT& prefix, bgp::PathId path_id) {
      if (prefix.length() > Afi::kMaxCommonLength && !policy_.accepts_more_specifics) {
        ++rejected_;
        return;
      }
      rib.insert({prefix, 0, path_id, update.attrs});
      const bool is_blackhole_route =
          update.attrs.has_community(bgp::kBlackhole) &&
          Afi::next_hop(update.attrs) == bgp::PickAfi<PrefixT>(kBlackhole4, kBlackhole6);
      if (is_blackhole_route && policy_.participates_in_rtbh) {
        blackholed.insert(prefix);
      } else {
        blackholed.erase(prefix);
      }
    });
  }

  template <typename PrefixT>
  void evict_more_specifics() {
    auto& rib = ribs_.get<PrefixT>();
    std::vector<PrefixT> evicted;
    rib.for_each([&](const bgp::BasicRouteView<PrefixT>& route) {
      if (route.prefix.length() > bgp::Afi<PrefixT>::kMaxCommonLength) {
        evicted.push_back(route.prefix);
      }
    });
    for (const auto& prefix : evicted) {
      rib.withdraw(prefix, 0);
      blackholed_.get<PrefixT>().erase(prefix);
    }
  }

  MemberPolicy policy_;
  bgp::PerAfi<bgp::BasicRib> ribs_;
  bgp::PerAfi<PrefixSet> blackholed_;
  std::uint64_t rejected_ = 0;
};

/// The prefixes and destinations the script draws from, per AFI.
std::vector<net::Prefix4> Pool4() {
  std::vector<net::Prefix4> out;
  for (int i = 0; i < 6; ++i) {
    out.push_back(net::Prefix4::Parse("60." + std::to_string(i) + ".0.0/24").value());
    out.push_back(net::Prefix4::Parse("60.0.0." + std::to_string(i) + "/32").value());
  }
  out.push_back(net::Prefix4::Parse("60.0.0.0/16").value());
  out.push_back(net::Prefix4::Parse("60.0.0.0/25").value());
  return out;
}

std::vector<net::Prefix6> Pool6() {
  std::vector<net::Prefix6> out;
  for (int i = 0; i < 6; ++i) {
    out.push_back(net::Prefix6::Parse("2001:db8:" + std::to_string(i) + "::/48").value());
    out.push_back(net::Prefix6::Parse("2001:db8::" + std::to_string(i) + "/128").value());
  }
  out.push_back(net::Prefix6::Parse("2001:db8::/32").value());
  return out;
}

class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed), reference_(DrawPolicy()) {
    MemberInfo info;
    info.asn = 65010;
    info.router_ip = net::IPv4Address(10, 99, 1, 1);
    info.address_space = net::Prefix4::Parse("61.0.0.0/20").value();
    info.address_space6 = net::Prefix6::Parse("2001:db9::/48").value();
    info.policy = reference_policy_;
    member_ = std::make_unique<MemberRouter>(queue_, info, kBlackhole4, kBlackhole6);
    connect();
  }

  void step() {
    const auto op = rng_.uniform_int(0, 99);
    if (op < 80) {
      send(random_update());
    } else if (op < 92) {
      MemberPolicy policy = reference_policy_;
      if (rng_.chance(0.7)) policy.accepts_more_specifics = !policy.accepts_more_specifics;
      if (rng_.chance(0.3)) policy.participates_in_rtbh = !policy.participates_in_rtbh;
      reference_policy_ = policy;
      member_->update_policy(policy);
      reference_.update_policy(policy);
      queue_.run_until(queue_.now() + sim::Seconds(0.5));
    } else {
      server_->stop();
      queue_.run_until(queue_.now() + sim::Seconds(0.5));
      reference_.on_close();
      connect();
    }
  }

  void check(int step) const {
    SCOPED_TRACE("step " + std::to_string(step));
    compare<net::Prefix4>(Pool4(), {net::IPv4Address(60, 0, 0, 3), net::IPv4Address(60, 0, 0, 9),
                                    net::IPv4Address(60, 2, 0, 77), net::IPv4Address(60, 0, 1, 1)});
    compare<net::Prefix6>(Pool6(), {net::IPv6Address::Parse("2001:db8::3").value(),
                                    net::IPv6Address::Parse("2001:db8::9").value(),
                                    net::IPv6Address::Parse("2001:db8:2::77").value()});
    EXPECT_EQ(member_->rejected_more_specifics(), reference_.rejected());
  }

 private:
  MemberPolicy DrawPolicy() {
    reference_policy_.accepts_more_specifics = rng_.chance(0.5);
    reference_policy_.participates_in_rtbh = rng_.chance(0.8);
    return reference_policy_;
  }

  void connect() {
    auto [server_side, member_side] = bgp::MakeLink(queue_);
    bgp::SessionConfig config;
    config.local_asn = 64500;
    config.router_id = net::IPv4Address(10, 99, 0, 1);
    config.announce_ipv6_unicast = true;
    server_ = std::make_unique<bgp::Session>(queue_, server_side, config);
    server_->start();
    member_->connect(member_side);
    queue_.run_until(queue_.now() + sim::Seconds(1.0));
    ASSERT_TRUE(server_->established());
  }

  template <typename T>
  const T& pick(const std::vector<T>& from) {
    return from[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(from.size()) - 1))];
  }

  bgp::UpdateMessage random_update() {
    static const std::vector<net::Prefix4> pool4 = Pool4();
    static const std::vector<net::Prefix6> pool6 = Pool6();
    bgp::UpdateMessage u;
    const bool announce4 = rng_.chance(0.6);
    const bool announce6 = rng_.chance(0.4);
    if (announce4 || announce6) {
      u.attrs.origin = bgp::Origin::kIgp;
      u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence,
                          {static_cast<bgp::Asn>(65001 + rng_.uniform_int(0, 2))}}};
      if (rng_.chance(0.3)) u.attrs.med = static_cast<std::uint32_t>(rng_.uniform_int(0, 3));
      const bool rtbh = rng_.chance(0.4);
      if (rtbh) u.attrs.communities.push_back(bgp::kBlackhole);
      if (rng_.chance(0.3)) u.attrs.communities.push_back(bgp::Community(64500, 7));
      // Mostly the route server's blackhole next hop on RTBH routes, not
      // always: only that next hop blackholes.
      const bool to_null = rtbh && rng_.chance(0.8);
      if (announce4) {
        u.attrs.next_hop = to_null ? kBlackhole4 : net::IPv4Address(10, 99, 2, 2);
        const auto n = rng_.uniform_int(1, 3);
        for (int i = 0; i < n; ++i) u.announced.push_back(bgp::Nlri4{0, pick(pool4)});
      }
      if (announce6) {
        bgp::MpReachIPv6 reach;
        reach.next_hop = to_null ? kBlackhole6 : net::IPv6Address::Parse("2001:db8:ff::2").value();
        const auto n = rng_.uniform_int(1, 3);
        for (int i = 0; i < n; ++i) reach.nlri.push_back(pick(pool6));
        u.attrs.mp_reach_ipv6 = std::move(reach);
      }
    }
    if (rng_.chance(0.4)) {
      const auto n = rng_.uniform_int(1, 3);
      for (int i = 0; i < n; ++i) u.withdrawn.push_back(bgp::Nlri4{0, pick(pool4)});
    }
    if (rng_.chance(0.3)) {
      bgp::MpUnreachIPv6 unreach;
      const auto n = rng_.uniform_int(1, 3);
      for (int i = 0; i < n; ++i) unreach.withdrawn.push_back(pick(pool6));
      u.attrs.mp_unreach_ipv6 = std::move(unreach);
    }
    return u;
  }

  void send(const bgp::UpdateMessage& update) {
    server_->announce(update);
    queue_.run_until(queue_.now() + sim::Seconds(0.5));
    // The reference imports what the member decoded.
    const auto bytes = bgp::Encode(update);
    const auto framed = bgp::DecodeFramed(bytes);
    ASSERT_TRUE(framed.ok() && framed->message);
    reference_.on_update(std::get<bgp::UpdateMessage>(*framed->message));
  }

  template <typename PrefixT>
  void compare(const std::vector<PrefixT>& pool,
               const std::vector<typename bgp::Afi<PrefixT>::Address>& dsts) const {
    const MemberRib<PrefixT>& got = member_->rib<PrefixT>();
    const bgp::BasicRib<PrefixT>& want = reference_.rib<PrefixT>();
    ASSERT_EQ(got.size(), want.size());
    EXPECT_EQ(got.empty(), want.empty());
    EXPECT_EQ(got.prefixes(), want.prefixes());
    std::vector<std::pair<PrefixT, const bgp::PathAttributes*>> got_routes;
    std::vector<std::pair<PrefixT, const bgp::PathAttributes*>> want_routes;
    got.for_each([&](const bgp::BasicRouteView<PrefixT>& r) {
      EXPECT_EQ(r.peer, 0u);
      EXPECT_EQ(r.path_id, 0u);
      got_routes.emplace_back(r.prefix, &r.attrs);
    });
    want.for_each([&](const bgp::BasicRouteView<PrefixT>& r) {
      want_routes.emplace_back(r.prefix, &r.attrs);
    });
    // The same interned instances, in the same order.
    EXPECT_EQ(got_routes, want_routes);
    for (const PrefixT& prefix : pool) {
      SCOPED_TRACE(prefix.str());
      EXPECT_EQ(got.find(prefix), want.find(prefix, 0));
      const auto got_best = got.best(prefix);
      const auto want_best = want.best(prefix);
      ASSERT_EQ(got_best.has_value(), want_best.has_value());
      if (got_best) {
        EXPECT_EQ(got_best->prefix, want_best->prefix);
        EXPECT_EQ(&got_best->attrs, &want_best->attrs);
        EXPECT_EQ(got_best->str(), want_best->str());
      }
      std::size_t visited = 0;
      got.visit_prefix(prefix, [&](const bgp::BasicRouteView<PrefixT>& r) {
        ++visited;
        EXPECT_EQ(&r.attrs, &want_best->attrs);
      });
      std::size_t want_visited = 0;
      want.visit_prefix(prefix, [&](const bgp::BasicRouteView<PrefixT>&) { ++want_visited; });
      EXPECT_EQ(visited, want_visited);
      EXPECT_EQ(member_->blackholes(prefix.address()),
                reference_.blackholes<PrefixT>(prefix.address()));
    }
    for (const auto& dst : dsts) {
      EXPECT_EQ(member_->blackholes(dst), reference_.blackholes<PrefixT>(dst)) << dst.str();
    }
    EXPECT_EQ(member_->blackholed_prefixes<PrefixT>(), reference_.blackholed<PrefixT>());
  }

  util::Rng rng_;
  MemberPolicy reference_policy_;
  ReferenceMember reference_;
  sim::EventQueue queue_;
  std::unique_ptr<MemberRouter> member_;
  std::unique_ptr<bgp::Session> server_;
};

class MemberRibDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MemberRibDiffTest, AgreesWithBasicRibImport) {
  Script script(GetParam());
  script.check(-1);
  for (int n = 0; n < kSteps && !::testing::Test::HasFatalFailure(); ++n) {
    script.step();
    script.check(n);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemberRibDiffTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace stellar::ixp
