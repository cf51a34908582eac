// Differential test: the route server's per-prefix Adj-RIB-Out, its
// no-recipient exit and its per-member forget on ROUTE-REFRESH and re-join
// must leave every member holding exactly what a from-scratch reference
// computes from the route server's Adj-RIB-In: per member and prefix, the
// best eligible path that is not the member's own, with the export transform
// applied. It must also send nothing twice and miss no withdraw: on every
// step without a session kill, each member receives exactly one UPDATE per
// prefix whose reference export changed for it (a ROUTE-REFRESH: one per
// prefix it is eligible for). On a kill step, the re-joined member receives
// one UPDATE per eligible prefix from its refresh, plus one for a change
// that reaches the route server while its new session is still opening.
//
// Scripts are seeded: announces under open, exclude-k, announce-to-none,
// announce-to-none plus include-k and NO_ADVERTISE scopes; re-scoping a
// prefix through 0 -> n -> 0 -> n receivers; 2-3 competing paths per shared
// prefix (AS-path prepends, MEDs); RTBH /32s; withdraws; ROUTE-REFRESH; and
// session kills answered by connect_resilient re-joins.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgp/session.hpp"
#include "ixp/ixp.hpp"
#include "util/rng.hpp"

namespace stellar::ixp {
namespace {

constexpr std::size_t kMembers = 12;
constexpr std::size_t kSharedPrefixes = 6;
constexpr int kSteps = 90;

net::Prefix4 P4(const std::string& text) { return net::Prefix4::Parse(text).value(); }

/// Prefix -> attributes one member holds (or should hold).
using Exports = std::map<net::Prefix4, bgp::PathAttributes>;

// -- The reference, written from the route server's documented policy --------

bool Eligible(const RouteServer& rs, const bgp::PathAttributes& attrs, bgp::Asn target) {
  if (attrs.has_community(bgp::kNoAdvertise)) return false;
  if (attrs.has_community(rs.announce_to_none())) {
    return attrs.has_community(rs.include_peer(target));
  }
  return !attrs.has_community(rs.exclude_peer(target));
}

bgp::PathAttributes ExportOf(const RouteServer& rs, const bgp::PathAttributes& attrs) {
  const auto ixp = static_cast<std::uint16_t>(rs.config().asn);
  bgp::PathAttributes out = attrs;
  std::erase_if(out.communities, [ixp](bgp::Community c) {
    return c != bgp::kBlackhole && (c.asn() == 0 || c.asn() == ixp);
  });
  std::erase_if(out.extended_communities,
                [ixp](const bgp::ExtendedCommunity& ec) { return ec.as_number() == ixp; });
  std::erase_if(out.large_communities, [&rs](const bgp::LargeCommunity& lc) {
    return lc.global_admin == rs.config().asn;
  });
  if (attrs.has_community(bgp::kBlackhole)) {
    out.next_hop = rs.config().blackhole_next_hop;
    out.add_community(bgp::kNoExport);
  }
  return out;
}

/// The path the route server should export to `target` for `prefix`.
std::optional<bgp::Route> BestFor(const RouteServer& rs, const net::Prefix4& prefix,
                                  bgp::Asn target) {
  std::optional<bgp::Route> best;
  rs.adj_rib_in().visit_prefix(prefix, [&](const bgp::RouteView& r) {
    if (rs.member_asn_of_peer(r.peer) == target || !Eligible(rs, r.attrs, target)) return;
    if (!best || bgp::BetterPath(r, *best)) best = bgp::Route{r.prefix, r.peer, r.path_id, r.attrs};
  });
  return best;
}

Exports Reference(const RouteServer& rs, bgp::Asn target) {
  Exports out;
  for (const auto& prefix : rs.adj_rib_in().prefixes()) {
    if (const auto best = BestFor(rs, prefix, target)) {
      out.emplace(prefix, ExportOf(rs, best->attrs));
    }
  }
  return out;
}

Exports Held(const MemberRouter& member) {
  Exports out;
  member.rib().for_each([&](const bgp::RouteView& r) { out.emplace(r.prefix, r.attrs); });
  return out;
}

/// Prefixes whose export differs between `a` and `b` (presence or attributes).
std::size_t Changed(const Exports& a, const Exports& b) {
  std::set<net::Prefix4> keys;
  for (const auto& [prefix, attrs] : a) keys.insert(prefix);
  for (const auto& [prefix, attrs] : b) keys.insert(prefix);
  return static_cast<std::size_t>(std::count_if(keys.begin(), keys.end(), [&](const auto& p) {
    const auto ia = a.find(p);
    const auto ib = b.find(p);
    if (ia == a.end() || ib == b.end()) return (ia == a.end()) != (ib == b.end());
    return !(ia->second == ib->second);
  }));
}

// -- The script ----------------------------------------------------------------

/// One announcement the script may re-scope or withdraw later. Raw ones go
/// straight onto the session (AS-path prepends and MEDs make competing paths
/// differ); MemberRouter does not replay them after a re-join.
struct Announced {
  std::size_t member;
  net::Prefix4 prefix;
  bool raw;
};

class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {
    ixp_ = std::make_unique<Ixp>(queue_);
    for (std::size_t i = 0; i < kMembers; ++i) {
      MemberSpec spec;
      spec.asn = static_cast<bgp::Asn>(65001 + i);
      spec.address_space = P4("60." + std::to_string(i + 1) + ".0.0/20");
      spec.policy.accepts_more_specifics = true;
      members_.push_back(&ixp_->add_member(spec));
      announced_.push_back({i, spec.address_space, false});
    }
    // Shared /24s outside every ROA, each authorized for three members.
    for (std::size_t s = 0; s < kSharedPrefixes; ++s) {
      for (std::size_t k = 0; k < 3; ++k) {
        ixp_->irr().add_route_object(shared(s), asn((s + 4 * k) % kMembers));
      }
    }
    bgp::ReconnectPolicy policy;
    policy.initial_backoff_s = 1.0;
    policy.jitter_frac = 0.0;
    policy.dial_timeout_s = 10.0;
    policy.suppress_threshold = 1e9;
    for (std::size_t i = 0; i < kMembers; ++i) {
      members_[i]->connect_resilient(
          [this, i] { return ixp_->route_server().accept_member(asn(i)); }, policy);
    }
    ixp_->settle(30.0);
  }

  /// Runs one random op (some ops are several checked steps).
  void step() {
    const auto op = rng_.uniform_int(0, 99);
    if (op < 25) {
      announce_own();
    } else if (op < 45) {
      announce_shared();
    } else if (op < 60) {
      rescope();
    } else if (op < 67) {
      cycle();
    } else if (op < 79) {
      withdraw();
    } else if (op < 90) {
      refresh();
    } else {
      kill();
    }
  }

  [[nodiscard]] int steps_checked() const { return steps_checked_; }
  [[nodiscard]] int kills() const { return kills_; }

 private:
  const RouteServer& rs() const { return ixp_->route_server(); }
  bgp::Asn asn(std::size_t i) const { return static_cast<bgp::Asn>(65001 + i); }
  static net::Prefix4 shared(std::size_t s) {
    return P4("70.0." + std::to_string(s) + ".0/24");
  }
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }
  std::size_t pick_other(std::size_t self) {
    return (self + 1 + pick(kMembers - 1)) % kMembers;
  }

  /// Random scope: open, exclude-k, announce-to-none, announce-to-none plus
  /// include-k, or NO_ADVERTISE (alone or on top of an include).
  std::vector<bgp::Community> scope(std::size_t self) {
    std::vector<bgp::Community> out;
    const auto k = static_cast<std::size_t>(rng_.uniform_int(1, 3));
    switch (rng_.uniform_int(0, 5)) {
      case 0:
        break;
      case 1:
        for (std::size_t j = 0; j < k; ++j) out.push_back(rs().exclude_peer(asn(pick_other(self))));
        break;
      case 2:
        out.push_back(rs().announce_to_none());
        break;
      case 3:
        out = include(self, k);
        break;
      case 4:
        out.push_back(bgp::kNoAdvertise);
        break;
      default:
        out = include(self, k);
        out.push_back(bgp::kNoAdvertise);
        break;
    }
    return out;
  }
  std::vector<bgp::Community> include(std::size_t self, std::size_t k) {
    std::vector<bgp::Community> out{rs().announce_to_none()};
    for (std::size_t j = 0; j < k; ++j) out.push_back(rs().include_peer(asn(pick_other(self))));
    return out;
  }

  void send(const Announced& a, std::vector<bgp::Community> communities) {
    MemberRouter& member = *members_[a.member];
    if (!a.raw) {
      member.announce(a.prefix, std::move(communities));
      return;
    }
    bgp::UpdateMessage update;
    update.attrs.origin = bgp::Origin::kIgp;
    update.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence,
                             std::vector<bgp::Asn>(1 + pick(3), asn(a.member))}};
    update.attrs.next_hop = member.info().router_ip;
    if (rng_.chance(0.5)) update.attrs.med = static_cast<std::uint32_t>(pick(3));
    update.attrs.communities = std::move(communities);
    update.announced = {{0, a.prefix}};
    member.session()->announce(std::move(update));
  }

  void track(const Announced& a) {
    const bool known = std::any_of(announced_.begin(), announced_.end(), [&](const auto& x) {
      return x.member == a.member && x.prefix == a.prefix;
    });
    if (!known) announced_.push_back(a);
  }

  void announce_own() {
    const std::size_t m = pick(kMembers);
    const std::string base = "60." + std::to_string(m + 1) + ".";
    const Announced a{m, P4(base + std::to_string(pick(4)) + ".0/24"), false};
    if (rng_.chance(0.25)) {
      // RTBH host route: the blackhole next-hop rewrite is part of the export.
      const Announced host{m, P4(base + "0." + std::to_string(1 + pick(3)) + "/32"), false};
      auto communities = scope(m);
      communities.push_back(bgp::kBlackhole);
      send(host, std::move(communities));
      track(host);
    } else {
      send(a, scope(m));
      track(a);
    }
    check();
  }

  void announce_shared() {
    const std::size_t s = pick(kSharedPrefixes);
    const Announced a{(s + 4 * pick(3)) % kMembers, shared(s), true};
    send(a, scope(a.member));
    track(a);
    check();
  }

  void rescope() {
    if (announced_.empty()) return;
    const Announced a = announced_[pick(announced_.size())];
    send(a, scope(a.member));
    check();
  }

  /// 0 -> n -> 0 -> n receivers on one prefix, each stage checked.
  void cycle() {
    if (announced_.empty()) return;
    const Announced a = announced_[pick(announced_.size())];
    send(a, {rs().announce_to_none()});
    check();
    send(a, {});
    check();
    send(a, {rs().announce_to_none()});
    check();
    send(a, include(a.member, 1 + pick(3)));
    check();
  }

  void withdraw() {
    if (announced_.empty()) return;
    const std::size_t i = pick(announced_.size());
    members_[announced_[i].member]->withdraw(announced_[i].prefix);
    announced_.erase(announced_.begin() + static_cast<std::ptrdiff_t>(i));
    check();
  }

  void refresh() {
    const std::size_t m = pick(kMembers);
    members_[m]->session()->request_route_refresh(bgp::kAfiIPv4);
    check(m);
  }

  /// Kills member m's session. Right after its reconnector re-dials (the new
  /// route-server session is still opening, its ROUTE-REFRESH not yet sent),
  /// the member whose path m held for some prefix withdraws it.
  void kill() {
    ++kills_;
    const std::size_t m = pick(kMembers);
    std::optional<std::pair<std::size_t, net::Prefix4>> change;
    const Exports held = Held(*members_[m]);
    if (!held.empty()) {
      auto it = held.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick(held.size())));
      const auto best = BestFor(rs(), it->first, asn(m));
      if (best) change.emplace(rs().member_asn_of_peer(best->peer) - 65001, it->first);
    }
    bgp::ReconnectingSession& reconnector = *members_[m]->reconnector();
    const auto dials = reconnector.stats().dial_attempts;
    members_[m]->session()->stop();
    // The raw announcements die with the session; MemberRouter replays the rest.
    std::erase_if(announced_, [m](const auto& a) { return a.member == m && a.raw; });
    for (int i = 0; i < 4000 && reconnector.stats().dial_attempts == dials; ++i) {
      ixp_->settle(0.0005);
    }
    ASSERT_GT(reconnector.stats().dial_attempts, dials);
    bool window_send = false;
    if (change) {
      const auto [k, prefix] = *change;
      members_[k]->withdraw(prefix);
      std::erase_if(announced_, [&](const auto& a) { return a.member == k && a.prefix == prefix; });
      ixp_->settle(10.0);
      // The change reached the route server before m's refresh: it was sent
      // to m only if m has a path for the prefix afterwards.
      window_send = Reference(rs(), asn(m)).contains(prefix);
    } else {
      ixp_->settle(10.0);
    }
    ASSERT_TRUE(members_[m]->session()->established());
    for (std::size_t j = 0; j < kMembers; ++j) {
      EXPECT_EQ(Held(*members_[j]), Reference(rs(), asn(j))) << "member " << j << " after kill";
    }
    EXPECT_EQ(members_[m]->session()->updates_received(),
              Reference(rs(), asn(m)).size() + (window_send ? 1 : 0))
        << "re-joined member " << m;
    ++steps_checked_;
  }

  /// Runs the step's queued messages to quiescence and compares every
  /// member against the reference. `refreshed` names a member that asked for
  /// ROUTE-REFRESH.
  void check(std::optional<std::size_t> refreshed = std::nullopt) {
    // Nothing of the step has reached the route server yet.
    std::vector<Exports> before;
    std::vector<std::uint64_t> received;
    for (std::size_t j = 0; j < kMembers; ++j) {
      before.push_back(Reference(rs(), asn(j)));
      received.push_back(members_[j]->session()->updates_received());
    }
    ixp_->settle(5.0);
    for (std::size_t j = 0; j < kMembers; ++j) {
      const Exports expected = Reference(rs(), asn(j));
      EXPECT_EQ(Held(*members_[j]), expected) << "member " << j << " step " << steps_checked_;
      const std::size_t sends = refreshed == j ? expected.size() : Changed(before[j], expected);
      EXPECT_EQ(members_[j]->session()->updates_received() - received[j], sends)
          << "member " << j << " step " << steps_checked_;
    }
    ++steps_checked_;
  }

  sim::EventQueue queue_;
  std::unique_ptr<Ixp> ixp_;
  std::vector<MemberRouter*> members_;
  std::vector<Announced> announced_;
  util::Rng rng_;
  int steps_checked_ = 0;
  int kills_ = 0;
};

class AdjRibOutDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AdjRibOutDiffTest, MembersHoldTheReferenceExportsAndNothingIsSentTwice) {
  Script script(GetParam());
  for (int i = 0; i < kSteps && !::testing::Test::HasFailure(); ++i) script.step();
  EXPECT_GE(script.steps_checked(), kSteps);
  EXPECT_GT(script.kills(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdjRibOutDiffTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace stellar::ixp
