#include "bgp/intern.hpp"

namespace stellar::bgp {

namespace {

inline void Mix(std::size_t& seed, std::size_t v) {
  // boost::hash_combine constant; good avalanche for sequential field mixing.
  seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
}

}  // namespace

std::size_t HashAttrs(const PathAttributes& attrs) {
  std::size_t h = 0;
  Mix(h, attrs.origin ? static_cast<std::size_t>(*attrs.origin) + 1 : 0);
  for (const auto& seg : attrs.as_path) {
    Mix(h, static_cast<std::size_t>(seg.type));
    for (const Asn asn : seg.asns) Mix(h, asn);
  }
  Mix(h, attrs.next_hop ? attrs.next_hop->value() + 1ull : 0);
  Mix(h, attrs.med ? *attrs.med + 1ull : 0);
  Mix(h, attrs.local_pref ? *attrs.local_pref + 1ull : 0);
  Mix(h, attrs.atomic_aggregate ? 2 : 1);
  for (const auto& c : attrs.communities) Mix(h, c.raw());
  for (const auto& ec : attrs.extended_communities) {
    std::size_t packed = 0;
    for (const auto byte : ec.bytes()) packed = (packed << 8) | byte;
    Mix(h, packed);
  }
  for (const auto& lc : attrs.large_communities) {
    Mix(h, lc.global_admin);
    Mix(h, (static_cast<std::size_t>(lc.data1) << 32) | lc.data2);
  }
  if (attrs.mp_reach_ipv6) {
    for (const auto byte : attrs.mp_reach_ipv6->next_hop.bytes()) Mix(h, byte);
    Mix(h, attrs.mp_reach_ipv6->nlri.size());
  }
  if (attrs.mp_unreach_ipv6) Mix(h, attrs.mp_unreach_ipv6->withdrawn.size() + 1);
  // `aggregator` and `unrecognized` are rare; equality still checks them.
  return h;
}

std::shared_ptr<const PathAttributes> AttrPool::intern(const PathAttributes& attrs) {
  const std::size_t hash = HashAttrs(attrs);
  const auto [lo, hi] = pool_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    if (auto existing = it->second.lock(); existing && *existing == attrs) {
      ++stats_.hits;
      return existing;
    }
  }
  ++stats_.misses;
  // The deleter unlinks the pool slot when the last RIB reference drops, so
  // withdrawn routes do not leave tombstones behind. `this` outlives every
  // interned pointer: the global pool is a function-local static constructed
  // before any RIB and destroyed after them.
  std::shared_ptr<const PathAttributes> value(
      new PathAttributes(attrs), [this, hash](const PathAttributes* p) {
        release(hash, p);
        delete p;
      });
  pool_.emplace(hash, value);
  return value;
}

void AttrPool::release(std::size_t hash, const PathAttributes* attrs) noexcept {
  // Single-threaded: each expiring value runs its deleter immediately, so at
  // most one expired slot exists per bucket — it is necessarily `attrs`'s.
  const auto [lo, hi] = pool_.equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    if (it->second.expired()) {
      pool_.erase(it);
      ++stats_.released;
      return;
    }
  }
  (void)attrs;
}

AttrPool& AttrPool::global() {
  static AttrPool pool;
  return pool;
}

}  // namespace stellar::bgp
