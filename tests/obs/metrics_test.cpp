#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace stellar::obs {
namespace {

// Every test uses a local Registry: the global one is shared with production
// components across the whole test binary.

TEST(MetricsRegistry, CounterIncrementsAndReads) {
  Registry reg;
  Counter c = reg.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(reg.counter_total("test.counter"), 42u);
}

TEST(MetricsRegistry, DisarmedRegistryDropsWrites) {
  Registry reg(/*armed=*/false);
  Counter c = reg.counter("test.counter");
  Histogram h = reg.histogram("test.hist");
  c.inc(10);
  h.observe(1.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  // Re-arming resumes recording on the same handles.
  reg.arm();
  c.inc(10);
  EXPECT_EQ(c.value(), 10u);
}

TEST(MetricsRegistry, SameNameSameKindCreatesIndependentInstanceCells) {
  Registry reg;
  Counter a = reg.counter("comp.errors");
  Counter b = reg.counter("comp.errors");
  a.inc(3);
  b.inc(4);
  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 4u);
  EXPECT_EQ(reg.counter_total("comp.errors"), 7u);
  EXPECT_EQ(reg.family_count(), 1u);
}

TEST(MetricsRegistry, DuplicateNameWithConflictingKindThrows) {
  Registry reg;
  (void)reg.counter("dup.name");
  EXPECT_THROW((void)reg.histogram("dup.name"), std::logic_error);
  (void)reg.histogram("dup.hist");
  EXPECT_THROW((void)reg.counter("dup.hist"), std::logic_error);
}

TEST(MetricsRegistry, HistogramOptionMismatchThrows) {
  Registry reg;
  (void)reg.histogram("h.lat", HistogramOptions{1e-3, 2.0, 10});
  EXPECT_NO_THROW((void)reg.histogram("h.lat", HistogramOptions{1e-3, 2.0, 10}));
  EXPECT_THROW((void)reg.histogram("h.lat", HistogramOptions{1e-3, 4.0, 10}),
               std::logic_error);
}

TEST(MetricsRegistry, InvalidNamesRejected) {
  Registry reg;
  EXPECT_THROW((void)reg.counter(""), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("has space"), std::invalid_argument);
  EXPECT_THROW((void)reg.counter("has-dash"), std::invalid_argument);
}

TEST(MetricsRegistry, ExpositionTextFormat) {
  Registry reg;
  Counter c = reg.counter("core.manager.applied", "changes applied");
  c.inc(7);
  Histogram h = reg.histogram("core.manager.wait_seconds", HistogramOptions{1e-3, 2.0, 4});
  h.observe(0.0005);
  h.observe(0.003);
  const std::string text = reg.expose_text();
  EXPECT_NE(text.find("# HELP core_manager_applied changes applied"), std::string::npos);
  EXPECT_NE(text.find("# TYPE core_manager_applied counter"), std::string::npos);
  EXPECT_NE(text.find("core_manager_applied 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE core_manager_wait_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("core_manager_wait_seconds_bucket{le=\"0.001\"} 1"), std::string::npos);
  EXPECT_NE(text.find("core_manager_wait_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("core_manager_wait_seconds_count 2"), std::string::npos);
}

TEST(MetricsRegistry, JsonlSnapshotHasOneLinePerFamily) {
  Registry reg;
  reg.counter("a.one").inc(1);
  Histogram h = reg.histogram("c.three");
  h.observe(0.01);
  const std::string jsonl = reg.snapshot_jsonl();
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 2);
  EXPECT_NE(jsonl.find("{\"name\":\"a.one\",\"type\":\"counter\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"value\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("{\"name\":\"c.three\",\"type\":\"histogram\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"p50\":"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Histogram correctness (satellite: boundaries, percentile accuracy vs util
// exact percentiles, merge, overflow).

TEST(HistogramData, BucketBoundaryValuesLandInLowerBucket) {
  // Bounds: 1, 2, 4, 8 (+ overflow). The bucket invariant is v <= bound.
  HistogramData h(HistogramOptions{1.0, 2.0, 4});
  h.observe(1.0);    // exactly the first bound -> bucket 0
  h.observe(2.0);    // exactly the second bound -> bucket 1
  h.observe(2.001);  // just above a bound -> next bucket
  h.observe(8.0);    // last finite bound -> bucket 3
  h.observe(8.001);  // just above -> overflow
  h.observe(0.5);    // below min_bound -> bucket 0
  const auto& counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 2u);  // 1.0 and 0.5
  EXPECT_EQ(counts[1], 1u);  // 2.0
  EXPECT_EQ(counts[2], 1u);  // 2.001
  EXPECT_EQ(counts[3], 1u);  // 8.0
  EXPECT_EQ(counts[4], 1u);  // 8.001 (overflow)
  EXPECT_EQ(h.count(), 6u);
}

TEST(HistogramData, PercentilesTrackExactWithinBucketResolution) {
  // 10k random samples spanning ~4 decades; fine growth so the bucket
  // quantization error is a small relative bound.
  const double growth = 1.05;
  HistogramData h(HistogramOptions{1e-4, growth, 250});
  util::Rng rng(42);
  std::vector<double> samples;
  samples.reserve(10'000);
  for (int i = 0; i < 10'000; ++i) {
    // Log-uniform over [1e-3, 10): stresses many buckets.
    const double v = 1e-3 * std::pow(10.0, 4.0 * rng.uniform());
    samples.push_back(v);
    h.observe(v);
  }
  std::sort(samples.begin(), samples.end());
  for (const double pct : {50.0, 90.0, 99.0, 99.9}) {
    const double exact = util::Percentile(samples, pct);
    const double approx = h.percentile(pct);
    // One bucket of relative error (plus interpolation slack) is the design
    // bound for a log-bucketed histogram.
    EXPECT_GT(approx, exact / (growth * growth)) << "pct=" << pct;
    EXPECT_LT(approx, exact * growth * growth) << "pct=" << pct;
  }
}

TEST(HistogramData, SingleValueReportsExactPercentiles) {
  HistogramData h;
  h.observe(0.125);
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.125);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.125);
  EXPECT_DOUBLE_EQ(h.percentile(100), 0.125);
}

TEST(HistogramData, MergeCombinesCountsSumAndExtrema) {
  const HistogramOptions opts{1e-3, 1.5, 40};
  HistogramData a(opts);
  HistogramData b(opts);
  for (int i = 1; i <= 100; ++i) a.observe(0.001 * i);  // 0.001 .. 0.1
  for (int i = 1; i <= 100; ++i) b.observe(0.01 * i);   // 0.01 .. 1.0
  HistogramData merged(opts);
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), 200u);
  EXPECT_DOUBLE_EQ(merged.sum(), a.sum() + b.sum());
  EXPECT_DOUBLE_EQ(merged.min(), 0.001);
  EXPECT_DOUBLE_EQ(merged.max(), 1.0);
  // Merged percentile must agree with the exact percentile of the union
  // within bucket resolution.
  std::vector<double> all;
  for (int i = 1; i <= 100; ++i) all.push_back(0.001 * i);
  for (int i = 1; i <= 100; ++i) all.push_back(0.01 * i);
  std::sort(all.begin(), all.end());
  const double exact = util::Percentile(all, 50.0);
  const double approx = merged.percentile(50.0);
  EXPECT_GT(approx, exact / (1.5 * 1.5));
  EXPECT_LT(approx, exact * 1.5 * 1.5);
}

TEST(HistogramData, MergeMismatchedLayoutsThrows) {
  HistogramData a(HistogramOptions{1e-3, 2.0, 10});
  HistogramData b(HistogramOptions{1e-3, 2.0, 20});
  EXPECT_THROW(a.merge(b), std::logic_error);
}

TEST(HistogramData, OverflowBucketBehavior) {
  // Bounds: 1, 2 (+ overflow). Everything above 2 overflows but count/sum/
  // max/percentile(100) stay exact.
  HistogramData h(HistogramOptions{1.0, 2.0, 2});
  h.observe(100.0);
  h.observe(1000.0);
  h.observe(0.5);
  const auto& counts = h.bucket_counts();
  EXPECT_EQ(counts.back(), 2u);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_DOUBLE_EQ(h.percentile(100), 1000.0);
  // Percentiles inside the overflow bucket interpolate up to the observed
  // max, never beyond it.
  EXPECT_LE(h.percentile(99), 1000.0);
  EXPECT_GE(h.percentile(60), 2.0);
}

TEST(HistogramData, EmptyHistogramPercentileIsZero) {
  HistogramData h;
  EXPECT_EQ(h.percentile(50), 0.0);
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace stellar::obs
