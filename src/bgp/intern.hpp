// Hash-consing pool for PathAttributes.
//
// At L-IXP scale the same attribute set is stored hundreds of times: the route
// server re-exports one best path to ~800 member RIBs, each member holds the
// announcements of every other member, and the controller's ADD-PATH RIB sees
// every path again. Interning collapses all of those copies into one
// shared, immutable allocation — RIB storage becomes a map of (key ->
// shared_ptr), and attribute equality between interned values degenerates to a
// pointer comparison.
//
// The pool holds weak references only: the last RIB entry dropping an
// attribute set frees it (a custom deleter unlinks the pool slot), so the pool
// never pins memory for withdrawn routes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "bgp/message.hpp"

namespace stellar::bgp {

/// Structural hash over the fields that distinguish attribute sets in
/// practice. Collisions are resolved by full equality, so the hash may ignore
/// rarely-differing fields without affecting correctness.
[[nodiscard]] std::size_t HashAttrs(const PathAttributes& attrs);

class AttrPool {
 public:
  AttrPool() = default;
  AttrPool(const AttrPool&) = delete;
  AttrPool& operator=(const AttrPool&) = delete;

  /// Returns the canonical shared instance equal to `attrs`, copying `attrs`
  /// into a new one only if this is the first time the value is seen. Two
  /// interned pointers compare equal iff the attribute sets compare equal.
  [[nodiscard]] std::shared_ptr<const PathAttributes> intern(const PathAttributes& attrs);

  /// Distinct attribute sets currently alive.
  [[nodiscard]] std::size_t size() const { return pool_.size(); }

  struct Stats {
    std::uint64_t hits = 0;       ///< intern() returned an existing instance.
    std::uint64_t misses = 0;     ///< intern() had to allocate.
    std::uint64_t released = 0;   ///< Instances freed after their last user.
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Process-wide pool shared by every RIB (single-threaded simulation).
  [[nodiscard]] static AttrPool& global();

 private:
  struct Slot {
    std::size_t hash = 0;
    std::weak_ptr<const PathAttributes> value;
  };

  void release(std::size_t hash, const PathAttributes* attrs) noexcept;

  std::unordered_multimap<std::size_t, std::weak_ptr<const PathAttributes>> pool_;
  Stats stats_;
};

/// Convenience: intern into the global pool.
[[nodiscard]] inline std::shared_ptr<const PathAttributes> Intern(const PathAttributes& attrs) {
  return AttrPool::global().intern(attrs);
}

}  // namespace stellar::bgp
