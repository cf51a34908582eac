#include "detect/sketch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "util/rng.hpp"

namespace stellar::detect {
namespace {

// ---------------------------------------------------------------------------
// CountMinSketch.

TEST(CountMinSketchTest, ExactOnSparseStream) {
  CountMinSketch cms(1024, 4);
  cms.add(1, 100);
  cms.add(2, 50);
  cms.add(FlowAggregateKey(0x640a0a0a, 17, 123), 7);
  EXPECT_EQ(cms.estimate(1), 100u);
  EXPECT_EQ(cms.estimate(2), 50u);
  EXPECT_EQ(cms.estimate(FlowAggregateKey(0x640a0a0a, 17, 123)), 7u);
  EXPECT_EQ(cms.total(), 157u);
}

TEST(CountMinSketchTest, NeverUnderestimates) {
  // Property vs an exact counter over a randomized skewed stream: the
  // one-sided error guarantee (estimate >= true count) must hold for every
  // key, including ones that collide.
  util::Rng rng(7);
  CountMinSketch cms(64, 4);  // Deliberately small: collisions guaranteed.
  std::map<std::uint64_t, std::uint64_t> exact;
  for (int i = 0; i < 20'000; ++i) {
    // Zipf-ish: small key ids are hot.
    const auto key = static_cast<std::uint64_t>(std::floor(
        std::pow(rng.uniform(), 2.0) * 500.0));
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 1500));
    cms.add(key, count);
    exact[key] += count;
  }
  for (const auto& [key, count] : exact) {
    EXPECT_GE(cms.estimate(key), count) << "key " << key;
  }
}

TEST(CountMinSketchTest, ForErrorBoundHolds) {
  // estimate(k) <= count(k) + eps * total with probability >= 1 - delta for
  // width ceil(e / eps) and depth ceil(ln(1 / delta)). With a fixed seed this
  // is deterministic; check every key against the bound (the union over ~400
  // keys still passes comfortably at delta=0.01).
  const double eps = 0.01;
  util::Rng rng(11);
  CountMinSketch cms(static_cast<std::size_t>(std::ceil(std::exp(1.0) / eps)),
                     static_cast<std::size_t>(std::ceil(std::log(1.0 / 0.01))));
  std::map<std::uint64_t, std::uint64_t> exact;
  for (int i = 0; i < 50'000; ++i) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 400));
    cms.add(key, 1);
    exact[key] += 1;
  }
  const double budget = eps * static_cast<double>(cms.total());
  for (const auto& [key, count] : exact) {
    EXPECT_LE(static_cast<double>(cms.estimate(key)),
              static_cast<double>(count) + budget)
        << "key " << key;
  }
}

TEST(CountMinSketchTest, ConservativeUpdateTighterThanPlain) {
  // Conservative update only raises cells at the current minimum. A plain
  // CMS accumulates every colliding key into every cell, so its per-key
  // error expectation is total/width; across all keys that is
  // #keys * total/width. Conservative update must come in well under that.
  util::Rng rng(13);
  CountMinSketch cms(32, 4);
  std::map<std::uint64_t, std::uint64_t> exact;
  for (int i = 0; i < 5'000; ++i) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 200));
    cms.add(key, 10);
    exact[key] += 10;
  }
  std::uint64_t summed_error = 0;
  for (const auto& [key, count] : exact) summed_error += cms.estimate(key) - count;
  const double plain_expectation =
      static_cast<double>(exact.size()) *
      (static_cast<double>(cms.total()) / static_cast<double>(cms.width()));
  EXPECT_LT(static_cast<double>(summed_error), 0.5 * plain_expectation);
}

TEST(CountMinSketchTest, HalvePreservesOneSidedError) {
  util::Rng rng(17);
  CountMinSketch cms(64, 4);
  std::map<std::uint64_t, std::uint64_t> exact;
  for (int i = 0; i < 10'000; ++i) {
    const auto key = static_cast<std::uint64_t>(rng.uniform_int(0, 300));
    cms.add(key, 8);
    exact[key] += 8;
  }
  cms.halve();
  // floor(cell/2) >= floor(count/2) whenever cell >= count.
  for (const auto& [key, count] : exact) {
    EXPECT_GE(cms.estimate(key), count / 2) << "key " << key;
  }
}

/// The sketch as first written: every cell() call re-hashes the row seed,
/// and add() hashes each row twice. The reference for the estimates the
/// per-row seeds and once-per-add cells must keep bit for bit.
class ReferenceCountMin {
 public:
  ReferenceCountMin(std::size_t width, std::size_t depth, std::uint64_t seed)
      : width_(width), depth_(depth), seed_(seed), table_(width * depth, 0) {}

  void add(std::uint64_t key, std::uint64_t count) {
    if (count == 0) return;
    std::uint64_t est = UINT64_MAX;
    for (std::size_t row = 0; row < depth_; ++row) est = std::min(est, table_[cell(row, key)]);
    const std::uint64_t target = est + count;
    for (std::size_t row = 0; row < depth_; ++row) {
      std::uint64_t& c = table_[cell(row, key)];
      c = std::max(c, target);
    }
  }
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const {
    std::uint64_t est = UINT64_MAX;
    for (std::size_t row = 0; row < depth_; ++row) est = std::min(est, table_[cell(row, key)]);
    return est;
  }
  void halve() {
    for (auto& c : table_) c /= 2;
  }

 private:
  static std::uint64_t Mix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }
  [[nodiscard]] std::size_t cell(std::size_t row, std::uint64_t key) const {
    return row * width_ + static_cast<std::size_t>(Mix64(key ^ Mix64(seed_ + row)) % width_);
  }

  std::size_t width_;
  std::size_t depth_;
  std::uint64_t seed_;
  std::vector<std::uint64_t> table_;
};

TEST(CountMinSketchTest, EstimatesMatchTheReferenceHashing) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 0x5eedULL}) {
    for (const std::size_t depth : {1u, 4u, 7u}) {
      util::Rng rng(seed + depth);
      CountMinSketch cms(97, depth, seed);
      ReferenceCountMin reference(97, depth, seed);
      for (int i = 0; i < 5'000; ++i) {
        const auto key = FlowAggregateKey(static_cast<std::uint32_t>(rng.uniform_int(0, 300)), 17,
                                          static_cast<std::uint16_t>(rng.uniform_int(0, 3)));
        const auto count = static_cast<std::uint64_t>(rng.uniform_int(0, 1500));
        cms.add(key, count);
        reference.add(key, count);
        if (i == 2'500) {
          cms.halve();
          reference.halve();
        }
      }
      for (std::uint32_t dst = 0; dst <= 310; ++dst) {
        for (std::uint16_t port = 0; port < 4; ++port) {
          const auto key = FlowAggregateKey(dst, 17, port);
          ASSERT_EQ(cms.estimate(key), reference.estimate(key))
              << "seed " << seed << " depth " << depth << " key " << key;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// SpaceSaving.

TEST(SpaceSavingTest, ExactBelowCapacity) {
  SpaceSaving ss(8);
  ss.add(123, 700);
  ss.add(53, 200);
  ss.add(11211, 100);
  const auto top = ss.top(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 123u);
  EXPECT_EQ(top[0].count, 700u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(top[1].key, 53u);
  EXPECT_EQ(top[2].key, 11211u);
}

TEST(SpaceSavingTest, CountBoundsHold) {
  // For every monitored key: true <= count and count - error <= true.
  util::Rng rng(23);
  SpaceSaving ss(16);
  std::map<std::uint64_t, std::uint64_t> exact;
  for (int i = 0; i < 30'000; ++i) {
    const auto key = static_cast<std::uint64_t>(std::floor(
        std::pow(rng.uniform(), 3.0) * 2000.0));
    const auto count = static_cast<std::uint64_t>(rng.uniform_int(1, 100));
    ss.add(key, count);
    exact[key] += count;
  }
  for (const auto& entry : ss.top(ss.size())) {
    const std::uint64_t true_count = exact[entry.key];
    EXPECT_GE(entry.count, true_count) << "key " << entry.key;
    EXPECT_LE(entry.count - entry.error, true_count) << "key " << entry.key;
  }
}

TEST(SpaceSavingTest, GuaranteedHeavyHitterPresent) {
  // Any key with true count > total/capacity must be monitored. Build a
  // stream where one key holds 40% of the volume amid noise.
  util::Rng rng(29);
  SpaceSaving ss(16);
  std::uint64_t hot = 0;
  for (int i = 0; i < 20'000; ++i) {
    if (rng.chance(0.4)) {
      ss.add(123, 10);
      hot += 10;
    } else {
      ss.add(static_cast<std::uint64_t>(rng.uniform_int(1000, 60'000)), 10);
    }
  }
  ASSERT_GT(hot, ss.total() / ss.capacity());
  const auto top = ss.top(ss.size());
  EXPECT_NE(std::find_if(top.begin(), top.end(),
                         [](const auto& e) { return e.key == 123; }),
            top.end());
  // And it should dominate the ranking outright.
  EXPECT_EQ(top.front().key, 123u);
}

TEST(SpaceSavingTest, TopIsDescendingAndBounded) {
  SpaceSaving ss(4);
  for (std::uint64_t k = 0; k < 10; ++k) ss.add(k, (k + 1) * 10);
  EXPECT_EQ(ss.size(), 4u);
  const auto top = ss.top(100);  // k > size returns all.
  ASSERT_EQ(top.size(), 4u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].count, top[i].count);
  }
}

TEST(SpaceSavingTest, HalveHalvesCounts) {
  SpaceSaving ss(4);
  ss.add(1, 100);
  ss.add(2, 50);
  ss.halve();
  const auto top = ss.top(2);
  EXPECT_EQ(top[0].count, 50u);
  EXPECT_EQ(top[1].count, 25u);
  EXPECT_EQ(ss.total(), 75u);
}

// ---------------------------------------------------------------------------
// WindowedEntropy.

TEST(WindowedEntropyTest, EmptyAndSingleCategoryAreZero) {
  WindowedEntropy e(4);
  EXPECT_DOUBLE_EQ(e.entropy_bits(), 0.0);
  EXPECT_DOUBLE_EQ(e.normalized(), 0.0);
  e.add(123, 1'000'000);
  EXPECT_DOUBLE_EQ(e.entropy_bits(), 0.0);
  EXPECT_DOUBLE_EQ(e.normalized(), 0.0);
}

TEST(WindowedEntropyTest, UniformTwoCategoriesIsOneBit) {
  WindowedEntropy e(4);
  e.add(1, 500);
  e.add(2, 500);
  EXPECT_NEAR(e.entropy_bits(), 1.0, 1e-12);
  EXPECT_NEAR(e.normalized(), 1.0, 1e-12);
}

TEST(WindowedEntropyTest, ConcentrationLowersEntropy) {
  // The amplification signature: one port takes over the distribution.
  WindowedEntropy uniform(2);
  WindowedEntropy skewed(2);
  for (std::uint16_t p = 0; p < 16; ++p) uniform.add(p, 100);
  skewed.add(123, 10'000);
  for (std::uint16_t p = 0; p < 16; ++p) skewed.add(p, 10);
  EXPECT_GT(uniform.normalized(), 0.99);
  EXPECT_LT(skewed.normalized(), 0.2);
}

TEST(WindowedEntropyTest, OldBinsFallOutOfWindow) {
  WindowedEntropy e(2);
  e.add(1, 1000);  // Bin 0: only category 1.
  e.rotate();
  e.add(2, 1000);  // Bin 1: only category 2 -> two live categories.
  EXPECT_NEAR(e.entropy_bits(), 1.0, 1e-12);
  e.rotate();
  e.add(2, 1000);  // Bin 2: bin 0 (category 1) expires.
  e.rotate();
  EXPECT_EQ(e.distinct(), 1u);
  EXPECT_DOUBLE_EQ(e.entropy_bits(), 0.0);
}

// ---------------------------------------------------------------------------
// FlowAggregateKey.

TEST(FlowAggregateKeyTest, FieldsDoNotCollide) {
  EXPECT_NE(FlowAggregateKey(1, 17, 123), FlowAggregateKey(1, 17, 124));
  EXPECT_NE(FlowAggregateKey(1, 17, 123), FlowAggregateKey(1, 6, 123));
  EXPECT_NE(FlowAggregateKey(1, 17, 123), FlowAggregateKey(2, 17, 123));
  EXPECT_EQ(FlowAggregateKey(0x640a0a0a, 17, 123),
            FlowAggregateKey(0x640a0a0a, 17, 123));
}

}  // namespace
}  // namespace stellar::detect
