#include "bgp/rib.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bgp/intern.hpp"
#include "util/rng.hpp"

namespace stellar::bgp {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

/// Number of paths the RIB holds for `prefix`.
std::size_t PathCount(const Rib& rib, const net::Prefix4& prefix) {
  std::size_t count = 0;
  rib.visit_prefix(prefix, [&](const RouteView&) { ++count; });
  return count;
}

Route MakeRoute(const char* prefix, PeerId peer, PathId path_id = 0, Asn origin = 65001) {
  Route r;
  r.prefix = P4(prefix);
  r.peer = peer;
  r.path_id = path_id;
  r.attrs.origin = Origin::kIgp;
  r.attrs.as_path = {{AsPathSegment::Type::kSequence, {origin}}};
  r.attrs.next_hop = net::IPv4Address(10, 0, 0, 1);
  return r;
}

TEST(RibTest, InsertAndLookup) {
  Rib rib;
  EXPECT_TRUE(rib.insert(MakeRoute("60.1.0.0/20", 1)));
  EXPECT_EQ(rib.size(), 1u);
  EXPECT_EQ(PathCount(rib, P4("60.1.0.0/20")), 1u);
  EXPECT_FALSE(rib.best(P4("60.2.0.0/20")).has_value());
}

TEST(RibTest, ReinsertSameAttributesIsNoChange) {
  Rib rib;
  EXPECT_TRUE(rib.insert(MakeRoute("60.1.0.0/20", 1)));
  EXPECT_FALSE(rib.insert(MakeRoute("60.1.0.0/20", 1)));
  Route modified = MakeRoute("60.1.0.0/20", 1);
  modified.attrs.med = 10;
  EXPECT_TRUE(rib.insert(modified));
  EXPECT_EQ(rib.size(), 1u);
}

TEST(RibTest, AddPathKeepsMultiplePathsPerPrefixAndPeer) {
  Rib rib;
  rib.insert(MakeRoute("100.10.10.10/32", 1, 1));
  rib.insert(MakeRoute("100.10.10.10/32", 1, 2));
  rib.insert(MakeRoute("100.10.10.10/32", 2, 1));
  EXPECT_EQ(PathCount(rib, P4("100.10.10.10/32")), 3u);
}

TEST(RibTest, WithdrawSpecificPath) {
  Rib rib;
  rib.insert(MakeRoute("100.10.10.10/32", 1, 1));
  rib.insert(MakeRoute("100.10.10.10/32", 1, 2));
  EXPECT_TRUE(rib.withdraw(P4("100.10.10.10/32"), 1, 1));
  EXPECT_FALSE(rib.withdraw(P4("100.10.10.10/32"), 1, 1));
  EXPECT_EQ(PathCount(rib, P4("100.10.10.10/32")), 1u);
}

TEST(RibTest, WithdrawPeerRemovesAll) {
  Rib rib;
  rib.insert(MakeRoute("60.1.0.0/20", 1));
  rib.insert(MakeRoute("60.2.0.0/20", 1));
  rib.insert(MakeRoute("60.3.0.0/20", 2));
  EXPECT_EQ(rib.withdraw_peer(1), 2u);
  EXPECT_EQ(rib.size(), 1u);
}

TEST(RibTest, ApplyUpdate) {
  Rib rib;
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.next_hop = net::IPv4Address(1, 1, 1, 1);
  u.announced = {{0, P4("60.1.0.0/20")}, {0, P4("60.2.0.0/20")}};
  EXPECT_EQ(rib.apply_update(3, u), 2u);
  UpdateMessage w;
  w.withdrawn = {{0, P4("60.1.0.0/20")}};
  EXPECT_EQ(rib.apply_update(3, w), 1u);
  EXPECT_EQ(rib.size(), 1u);
}

TEST(BetterPathTest, DecisionProcessOrder) {
  Route base = MakeRoute("60.1.0.0/20", 2);

  Route higher_lp = base;
  higher_lp.attrs.local_pref = 200;
  EXPECT_TRUE(BetterPath(higher_lp, base));  // Default local-pref = 100.

  Route shorter = base;
  shorter.attrs.as_path = {{AsPathSegment::Type::kSequence, {1}}};
  Route longer = base;
  longer.attrs.as_path = {{AsPathSegment::Type::kSequence, {1, 2, 3}}};
  EXPECT_TRUE(BetterPath(shorter, longer));

  Route igp = base;
  igp.attrs.origin = Origin::kIgp;
  Route incomplete = base;
  incomplete.attrs.origin = Origin::kIncomplete;
  EXPECT_TRUE(BetterPath(igp, incomplete));

  Route low_med = base;
  low_med.attrs.med = 1;
  Route high_med = base;
  high_med.attrs.med = 9;
  EXPECT_TRUE(BetterPath(low_med, high_med));

  Route peer1 = MakeRoute("60.1.0.0/20", 1);
  EXPECT_TRUE(BetterPath(peer1, base));  // Deterministic tie-break.
}

TEST(RibTest, BestSelectsByDecisionProcess) {
  Rib rib;
  Route good = MakeRoute("60.1.0.0/20", 2);
  good.attrs.local_pref = 500;
  rib.insert(MakeRoute("60.1.0.0/20", 1));
  rib.insert(good);
  const auto best = rib.best(P4("60.1.0.0/20"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->peer, 2u);
  EXPECT_FALSE(rib.best(P4("1.0.0.0/8")).has_value());
}

/// Reference selection by copies: copy every path of the prefix, then
/// copy-assign the winner.
std::optional<Route> BestByCopies(const Rib& rib, const net::Prefix4& prefix) {
  std::vector<Route> paths;
  rib.visit_prefix(prefix, [&](const RouteView& view) {
    paths.push_back(Route{view.prefix, view.peer, view.path_id, view.attrs});
  });
  std::optional<Route> best_route;
  for (const auto& r : paths) {
    if (!best_route || BetterPath(r, *best_route)) best_route = r;
  }
  return best_route;
}

/// Owned copy of best()'s view, to compare with BestByCopies.
std::optional<Route> BestCopy(const Rib& rib, const net::Prefix4& prefix) {
  const auto best = rib.best(prefix);
  if (!best) return std::nullopt;
  return Route{best->prefix, best->peer, best->path_id, best->attrs};
}

TEST(RibTest, BestMatchesTheCopyingSelection) {
  // Few attribute values, peers and path-ids: equal attributes from
  // different peers and path-ids are common, so the tie rule is exercised.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    Rib rib;
    const std::vector<net::Prefix4> prefixes = {P4("60.1.0.0/20"), P4("60.2.0.0/20"),
                                                P4("60.2.0.0/24"), P4("60.3.0.0/20")};
    for (int i = 0; i < 200; ++i) {
      const auto& prefix = prefixes[static_cast<std::size_t>(rng.uniform_int(0, 3))];
      Route r = MakeRoute("0.0.0.0/0", static_cast<PeerId>(rng.uniform_int(1, 4)),
                          static_cast<PathId>(rng.uniform_int(0, 2)),
                          static_cast<Asn>(65001 + rng.uniform_int(0, 1)));
      r.prefix = prefix;
      if (rng.chance(0.5)) r.attrs.local_pref = rng.chance(0.5) ? 100 : 200;
      if (rng.chance(0.3)) r.attrs.as_path.front().asns.push_back(65009);
      if (rng.chance(0.3)) r.attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 1));
      if (rng.chance(0.2)) r.attrs.origin = Origin::kEgp;
      if (rng.chance(0.15)) {
        rib.withdraw(r.prefix, r.peer, r.path_id);
      } else {
        rib.insert(r);
      }
      for (const auto& p : prefixes) {
        ASSERT_EQ(BestCopy(rib, p), BestByCopies(rib, p)) << "seed " << seed << " step " << i;
      }
    }
  }
}

TEST(RibTest, BestIsAViewOfTheStoredRoute) {
  Rib rib;
  Route good = MakeRoute("60.1.0.0/20", 2, 3);
  good.attrs.local_pref = 500;
  rib.insert(MakeRoute("60.1.0.0/20", 1));
  rib.insert(good);
  const auto best = rib.best(P4("60.1.0.0/20"));
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(&best->attrs, rib.find(P4("60.1.0.0/20"), 2, 3).get());
  EXPECT_EQ(best->peer, 2u);
  EXPECT_EQ(best->path_id, 3u);
  EXPECT_EQ(best->attrs, good.attrs);
}

TEST(RibTest, PrefixesAreDistinctAndSorted) {
  Rib rib;
  rib.insert(MakeRoute("60.2.0.0/20", 1));
  rib.insert(MakeRoute("60.1.0.0/20", 1));
  rib.insert(MakeRoute("60.1.0.0/20", 2));
  const auto prefixes = rib.prefixes();
  ASSERT_EQ(prefixes.size(), 2u);
  EXPECT_EQ(prefixes[0], P4("60.1.0.0/20"));
  EXPECT_EQ(prefixes[1], P4("60.2.0.0/20"));
}

PathAttributes MakeAttrs(Asn origin) { return MakeRoute("60.1.0.0/20", 1, 0, origin).attrs; }

TEST(AttrPoolTest, RepeatValueReturnsTheSamePointer) {
  AttrPool pool;
  const PathAttributes attrs = MakeAttrs(65001);
  const auto first = pool.intern(attrs);
  const auto second = pool.intern(MakeAttrs(65001));
  EXPECT_EQ(first, second);
  EXPECT_EQ(*first, attrs);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().misses, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_NE(pool.intern(MakeAttrs(65002)), first);
}

TEST(AttrPoolTest, FieldsTheHashSkipsStillDistinguishValues) {
  // HashAttrs ignores `aggregator` and `unrecognized`: equal hashes, so only
  // full equality keeps these apart.
  AttrPool pool;
  const PathAttributes plain = MakeAttrs(65001);
  PathAttributes aggregated = plain;
  aggregated.aggregator = std::pair{Asn{65001}, net::IPv4Address(10, 0, 0, 9)};
  PathAttributes unrecognized = plain;
  unrecognized.unrecognized.push_back(OpaqueAttribute{0xc0, 99, {1, 2, 3}});
  ASSERT_EQ(HashAttrs(plain), HashAttrs(aggregated));
  ASSERT_EQ(HashAttrs(plain), HashAttrs(unrecognized));

  const auto a = pool.intern(plain);
  const auto b = pool.intern(aggregated);
  const auto c = pool.intern(unrecognized);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  EXPECT_EQ(*b, aggregated);
  EXPECT_EQ(*c, unrecognized);
  EXPECT_EQ(pool.size(), 3u);
  EXPECT_EQ(pool.intern(aggregated), b);
  EXPECT_EQ(pool.intern(unrecognized), c);
}

TEST(AttrPoolTest, LastReleaseUnlinksTheSlot) {
  AttrPool pool;
  auto held = pool.intern(MakeAttrs(65001));
  auto other = pool.intern(MakeAttrs(65001));
  EXPECT_EQ(pool.size(), 1u);
  held.reset();
  EXPECT_EQ(pool.size(), 1u);  // `other` still holds the value.
  EXPECT_EQ(pool.stats().released, 0u);
  other.reset();
  EXPECT_EQ(pool.size(), 0u);
  EXPECT_EQ(pool.stats().released, 1u);
  // A later intern of the same value allocates afresh.
  const auto again = pool.intern(MakeAttrs(65001));
  EXPECT_EQ(*again, MakeAttrs(65001));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.stats().misses, 2u);
}

TEST(AttrPoolTest, BorrowedInputStaysUnchanged) {
  AttrPool pool;
  const PathAttributes attrs = MakeAttrs(65001);
  const PathAttributes copy = attrs;
  const auto interned = pool.intern(attrs);
  EXPECT_EQ(attrs, copy);
  EXPECT_NE(interned.get(), &attrs);  // The pool owns a copy.
  EXPECT_EQ(pool.intern(attrs), interned);
  EXPECT_EQ(attrs, copy);
}

TEST(RibTest, InsertBorrowsAView) {
  Rib rib;
  const Route route = MakeRoute("60.1.0.0/20", 1);
  EXPECT_TRUE(rib.insert(RouteView{route.prefix, route.peer, route.path_id, route.attrs}));
  EXPECT_FALSE(rib.insert(route));  // Same value: same interned instance.
  const auto stored = rib.find(route.prefix, route.peer);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(*stored, route.attrs);
  EXPECT_NE(stored.get(), &route.attrs);
  int visited = 0;
  rib.for_each([&](const RouteView& view) {
    ++visited;
    EXPECT_EQ(&view.attrs, stored.get());  // Views borrow the stored value.
  });
  EXPECT_EQ(visited, 1);
}

}  // namespace
}  // namespace stellar::bgp
