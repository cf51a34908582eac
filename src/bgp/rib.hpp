// Routing Information Base with ADD-PATH identity.
//
// A route is identified by (prefix, peer, path_id): the route server keeps an
// Adj-RIB-In per peer, while the blackholing controller keeps a single Rib
// over its ADD-PATH iBGP session where multiple paths for the same prefix
// coexist. Each controller diff epoch re-derives the desired rules of the
// prefixes that changed from the RIB rather than diffing snapshots of it
// (paper §4.4).
//
// The containers are generic over the prefix type: IPv4 (the paper's
// dominant case, >98% of blackholed prefixes; aliased Rib/Route) and IPv6
// unicast carried in MP_REACH/MP_UNREACH. Afi<PrefixT> holds every
// wire-level fact that differs between the two, so code above the codec is
// written once over the prefix type.
//
// Routes go in and come out borrowed: insert() takes a BasicRouteView of the
// caller's attributes (a received UPDATE's) and interns them, copying only
// on a pool miss; best(),
// for_each() and visit_prefix() hand out views of the stored, interned
// attributes, and find() shares them. No read copies a route out of a RIB;
// the owned BasicRoute is a fixture type.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bgp/intern.hpp"
#include "bgp/message.hpp"

namespace stellar::bgp {

/// Identifies the peer a route was learned from (session index assigned by
/// the owner of the Rib).
using PeerId = std::uint32_t;

/// Address-family traits: where an UPDATE carries a prefix, its path-id and
/// its next hop, the ROUTE-REFRESH AFI code, and the more-specific boundary.
template <typename PrefixT>
struct Afi;

/// IPv4 unicast: classic NLRI fields and the NEXT_HOP attribute.
template <>
struct Afi<net::Prefix4> {
  using Address = net::IPv4Address;
  static constexpr std::uint16_t kCode = kAfiIPv4;
  /// Longest prefix a default-configured router accepts; anything more
  /// specific is only meaningful as a blackholing request.
  static constexpr std::uint8_t kMaxCommonLength = 24;

  /// Calls fn(prefix, path_id) for every withdrawn prefix.
  template <typename Fn>
  static void for_each_withdrawn(const UpdateMessage& update, Fn&& fn) {
    for (const auto& nlri : update.withdrawn) fn(nlri.prefix, nlri.path_id);
  }
  /// Calls fn(prefix, path_id) for every announced prefix.
  template <typename Fn>
  static void for_each_announced(const UpdateMessage& update, Fn&& fn) {
    for (const auto& nlri : update.announced) fn(nlri.prefix, nlri.path_id);
  }
  [[nodiscard]] static UpdateMessage withdraw(const net::Prefix4& prefix) {
    UpdateMessage update;
    update.withdrawn.push_back(Nlri4{0, prefix});
    return update;
  }
  /// Announces `prefix` with `attrs`, whose next hop is already placed.
  [[nodiscard]] static UpdateMessage announce(PathAttributes attrs, const net::Prefix4& prefix) {
    UpdateMessage update;
    update.attrs = std::move(attrs);
    update.announced.push_back(Nlri4{0, prefix});
    return update;
  }
  [[nodiscard]] static std::optional<Address> next_hop(const PathAttributes& attrs) {
    return attrs.next_hop;
  }
  /// Places `next_hop`; nullopt keeps the one already in `attrs`.
  static void set_next_hop(PathAttributes& attrs, const std::optional<Address>& next_hop) {
    if (next_hop) attrs.next_hop = *next_hop;
  }
};

/// IPv6 unicast: MP_REACH/MP_UNREACH (RFC 4760), no ADD-PATH; the next hop
/// travels inside MP_REACH.
template <>
struct Afi<net::Prefix6> {
  using Address = net::IPv6Address;
  static constexpr std::uint16_t kCode = kAfiIPv6;
  static constexpr std::uint8_t kMaxCommonLength = 48;

  template <typename Fn>
  static void for_each_withdrawn(const UpdateMessage& update, Fn&& fn) {
    if (!update.attrs.mp_unreach_ipv6) return;
    for (const auto& prefix : update.attrs.mp_unreach_ipv6->withdrawn) fn(prefix, PathId{0});
  }
  template <typename Fn>
  static void for_each_announced(const UpdateMessage& update, Fn&& fn) {
    if (!update.attrs.mp_reach_ipv6) return;
    for (const auto& prefix : update.attrs.mp_reach_ipv6->nlri) fn(prefix, PathId{0});
  }
  [[nodiscard]] static UpdateMessage withdraw(const net::Prefix6& prefix) {
    UpdateMessage update;
    update.attrs.mp_unreach_ipv6 = MpUnreachIPv6{{prefix}};
    return update;
  }
  [[nodiscard]] static UpdateMessage announce(PathAttributes attrs, const net::Prefix6& prefix) {
    if (!attrs.mp_reach_ipv6) attrs.mp_reach_ipv6.emplace();
    attrs.mp_reach_ipv6->nlri = {prefix};
    UpdateMessage update;
    update.attrs = std::move(attrs);
    return update;
  }
  [[nodiscard]] static std::optional<Address> next_hop(const PathAttributes& attrs) {
    if (!attrs.mp_reach_ipv6) return std::nullopt;
    return attrs.mp_reach_ipv6->next_hop;
  }
  /// The route's forwarding state lives only in MP_REACH: the classic
  /// NEXT_HOP and any MP_UNREACH are dropped, and the NLRI is left for
  /// announce() to fill.
  static void set_next_hop(PathAttributes& attrs, const std::optional<Address>& next_hop) {
    const Address placed = next_hop ? *next_hop : Afi::next_hop(attrs).value_or(Address());
    attrs.next_hop.reset();
    attrs.mp_unreach_ipv6.reset();
    attrs.mp_reach_ipv6 = MpReachIPv6{placed, {}};
  }
};

/// Selects the IPv4 or the IPv6 one of a pair of per-AFI values.
template <typename PrefixT, typename V4, typename V6>
[[nodiscard]] constexpr const auto& PickAfi(const V4& v4, const V6& v6) {
  if constexpr (Afi<PrefixT>::kCode == kAfiIPv4) {
    return v4;
  } else {
    return v6;
  }
}

/// One T<PrefixT> per address family, selected with get<PrefixT>().
template <template <typename> class T>
struct PerAfi {
  T<net::Prefix4> v4;
  T<net::Prefix6> v6;

  template <typename PrefixT>
  [[nodiscard]] T<PrefixT>& get() {
    if constexpr (Afi<PrefixT>::kCode == kAfiIPv4) {
      return v4;
    } else {
      return v6;
    }
  }
  template <typename PrefixT>
  [[nodiscard]] const T<PrefixT>& get() const {
    return PickAfi<PrefixT>(v4, v6);
  }
};

/// Borrowed view of a route: what a RIB takes on insert and hands out when
/// visited. The references stay valid while the route (a stored RIB entry, a
/// received UPDATE's attributes) is neither mutated nor destroyed, so a
/// visitor must not mutate the RIB and must not keep a view past its call.
template <typename PrefixT>
struct BasicRouteView {
  const PrefixT& prefix;
  PeerId peer = 0;
  PathId path_id = 0;
  const PathAttributes& attrs;

  [[nodiscard]] std::string str() const {
    std::string s = prefix.str() + " peer=" + std::to_string(peer);
    if (path_id != 0) s += " path-id=" + std::to_string(path_id);
    if (auto o = attrs.origin_asn()) s += " origin-as=" + std::to_string(*o);
    return s;
  }
};

using RouteView = BasicRouteView<net::Prefix4>;

/// An owned route: a test fixture, inserted through its view.
template <typename PrefixT>
struct BasicRoute {
  PrefixT prefix;
  PeerId peer = 0;
  PathId path_id = 0;
  PathAttributes attrs;

  friend bool operator==(const BasicRoute&, const BasicRoute&) = default;

  /// Borrows this route, e.g. to insert it into a RIB.
  operator BasicRouteView<PrefixT>() const { return {prefix, peer, path_id, attrs}; }
};

using Route = BasicRoute<net::Prefix4>;

/// RFC 4271 §9.1 decision process (the subset meaningful at an IXP route
/// server): local-pref desc, as-path length asc, origin asc, MED asc,
/// peer/path-id as deterministic tie-breakers. Returns true if `a` is
/// preferred over `b`.
template <typename RouteA, typename RouteB>
[[nodiscard]] bool BetterPath(const RouteA& a, const RouteB& b) {
  const std::uint32_t lp_a = a.attrs.local_pref.value_or(100);
  const std::uint32_t lp_b = b.attrs.local_pref.value_or(100);
  if (lp_a != lp_b) return lp_a > lp_b;
  const std::size_t len_a = a.attrs.as_path_length();
  const std::size_t len_b = b.attrs.as_path_length();
  if (len_a != len_b) return len_a < len_b;
  const auto origin_a = static_cast<std::uint8_t>(a.attrs.origin.value_or(Origin::kIncomplete));
  const auto origin_b = static_cast<std::uint8_t>(b.attrs.origin.value_or(Origin::kIncomplete));
  if (origin_a != origin_b) return origin_a < origin_b;
  const std::uint32_t med_a = a.attrs.med.value_or(0);
  const std::uint32_t med_b = b.attrs.med.value_or(0);
  if (med_a != med_b) return med_a < med_b;
  if (a.peer != b.peer) return a.peer < b.peer;
  return a.path_id < b.path_id;
}

template <typename PrefixT>
class BasicRib {
 public:
  using View = BasicRouteView<PrefixT>;

  /// Inserts or replaces the route identified by (prefix, peer, path_id).
  /// Returns true if the RIB changed (new route or different attributes).
  /// Attributes are interned through the process-wide AttrPool: the N ribs
  /// holding the same announcement share one allocation, the borrowed
  /// attributes are copied only when the pool has no equal value yet, and
  /// the change check is a pointer comparison.
  bool insert(const View& route) {
    const Key key{route.prefix, route.peer, route.path_id};
    auto interned = Intern(route.attrs);
    auto [it, inserted] = routes_.try_emplace(key, interned);
    if (inserted) return true;
    if (it->second == interned) return false;  // Same pool instance <=> equal attrs.
    it->second = std::move(interned);
    return true;
  }

  /// Removes the identified route. Returns true if it existed.
  bool withdraw(const PrefixT& prefix, PeerId peer, PathId path_id = 0) {
    return routes_.erase(Key{prefix, peer, path_id}) > 0;
  }

  /// Removes all routes from `peer` (session teardown). Returns count removed.
  std::size_t withdraw_peer(PeerId peer) {
    std::size_t removed = 0;
    for (auto it = routes_.begin(); it != routes_.end();) {
      if (it->first.peer == peer) {
        it = routes_.erase(it);
        ++removed;
      } else {
        ++it;
      }
    }
    return removed;
  }

  /// Applies an UPDATE received from `peer`: the classic NLRI fields for
  /// IPv4, MP_REACH/MP_UNREACH for IPv6 (see Afi). Returns the number of
  /// changes applied.
  std::size_t apply_update(PeerId peer, const UpdateMessage& update) {
    std::size_t changes = 0;
    Afi<PrefixT>::for_each_withdrawn(update, [&](const PrefixT& prefix, PathId path_id) {
      if (withdraw(prefix, peer, path_id)) ++changes;
    });
    Afi<PrefixT>::for_each_announced(update, [&](const PrefixT& prefix, PathId path_id) {
      if (insert(View{prefix, peer, path_id, update.attrs})) ++changes;
    });
    return changes;
  }

  /// Interned attributes of the identified route, or nullptr.
  [[nodiscard]] std::shared_ptr<const PathAttributes> find(const PrefixT& prefix, PeerId peer,
                                                           PathId path_id = 0) const {
    const auto it = routes_.find(Key{prefix, peer, path_id});
    return it == routes_.end() ? nullptr : it->second;
  }

  /// Visits each path of `prefix` as a view (no attribute copies). Do not
  /// mutate the RIB from `fn`.
  void visit_prefix(const PrefixT& prefix, const std::function<void(const View&)>& fn) const {
    for (auto it = routes_.lower_bound(Key{prefix, 0, 0});
         it != routes_.end() && it->first.prefix == prefix; ++it) {
      fn(View{it->first.prefix, it->first.peer, it->first.path_id, *it->second});
    }
  }

  /// Best path for the prefix per BetterPath, if any path exists: a view of
  /// the stored route, valid while the RIB is not mutated.
  [[nodiscard]] std::optional<View> best(const PrefixT& prefix) const {
    std::optional<View> winner;
    visit_prefix(prefix, [&](const View& route) {
      if (!winner || BetterPath(route, *winner)) winner.emplace(route);
    });
    return winner;
  }

  /// All distinct prefixes.
  [[nodiscard]] std::vector<PrefixT> prefixes() const {
    std::vector<PrefixT> out;
    for (const auto& [key, attrs] : routes_) {
      if (out.empty() || !(out.back() == key.prefix)) out.push_back(key.prefix);
    }
    return out;
  }

  [[nodiscard]] std::size_t size() const { return routes_.size(); }
  [[nodiscard]] bool empty() const { return routes_.empty(); }
  void clear() { routes_.clear(); }

  /// Visits every route as a view, in sorted order. Do not mutate the RIB
  /// from `fn`.
  void for_each(const std::function<void(const View&)>& fn) const {
    for (const auto& [key, attrs] : routes_) fn(View{key.prefix, key.peer, key.path_id, *attrs});
  }

 private:
  struct Key {
    PrefixT prefix;
    PeerId peer;
    PathId path_id;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  std::map<Key, std::shared_ptr<const PathAttributes>> routes_;
};

using Rib = BasicRib<net::Prefix4>;

}  // namespace stellar::bgp
