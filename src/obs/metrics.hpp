// Process-wide metrics registry (the first leg of the observability plane):
// named counters and log-bucketed histograms with near-free hot-path
// increments. Components register *instance cells* under a shared family name
// — the registry sums cells for exposition while each component keeps a
// private view, so per-object accessors (EdgeRouter::tcam_release_errors,
// Endpoint::stats) stay exact even when many instances live in one process.
//
// Duplicate-name detection: registering the same family name with a different
// metric kind (or different histogram bucket options) throws std::logic_error
// — CI treats that as a broken build, not a runtime condition.
//
// Disarmed mode is the hot-path contract: every handle checks a single bool
// owned by its registry before touching its cell, so a disarmed registry
// costs one predictable branch per event (<5 ns, bench/micro_benchmarks.cc
// BM_ObsHotPath). The simulation is single-threaded; so is the registry.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace stellar::obs {

/// Exponential ("log") bucket layout: bucket i holds values in
/// (min_bound*growth^(i-1), min_bound*growth^i]; values <= min_bound land in
/// bucket 0 and values above the last bound land in the overflow bucket.
struct HistogramOptions {
  double min_bound = 1e-3;    ///< Upper bound of the first bucket.
  double growth = 2.0;        ///< Bound ratio between adjacent buckets (> 1).
  std::size_t bucket_count = 40;  ///< Finite buckets, excluding overflow.

  friend bool operator==(const HistogramOptions&, const HistogramOptions&) = default;
};

/// The histogram payload: bucket counts plus exact count/sum/min/max.
/// Separable from the handle so families can be merged for exposition.
class HistogramData {
 public:
  explicit HistogramData(HistogramOptions options = {});

  void observe(double value);
  /// Folds `other` into this histogram. Throws std::logic_error on bucket
  /// layout mismatch — merging differently-bucketed histograms is undefined.
  void merge(const HistogramData& other);

  /// Percentile in [0,100], util::Percentile-style fractional rank with
  /// linear interpolation inside the containing bucket; clamped to the
  /// observed [min, max]. Returns 0 for an empty histogram.
  [[nodiscard]] double percentile(double pct) const;

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] const HistogramOptions& options() const { return options_; }
  /// Finite buckets first, overflow bucket last (size bucket_count + 1).
  [[nodiscard]] const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  /// Upper bound of finite bucket i (i < bucket_count).
  [[nodiscard]] double upper_bound(std::size_t bucket) const { return bounds_[bucket]; }

 private:
  [[nodiscard]] std::size_t bucket_for(double value) const;

  HistogramOptions options_;
  std::vector<double> bounds_;          ///< Precomputed bucket upper bounds.
  std::vector<std::uint64_t> counts_;   ///< bounds_.size() + 1 (overflow last).
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

namespace internal {
struct CounterCell {
  std::uint64_t value = 0;
};
}  // namespace internal

/// Monotonic event counter. Handles are cheap value types; the cell they
/// point at is owned by the registry and outlives them.
class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (*armed_) cell_->value += n;
  }
  [[nodiscard]] std::uint64_t value() const { return cell_->value; }

 private:
  friend class Registry;
  Counter(internal::CounterCell* cell, const bool* armed) : cell_(cell), armed_(armed) {}

  internal::CounterCell* cell_;
  const bool* armed_;
};

/// Log-bucketed latency/size distribution.
class Histogram {
 public:
  void observe(double value) {
    if (*armed_) cell_->observe(value);
  }
  [[nodiscard]] double percentile(double pct) const { return cell_->percentile(pct); }
  [[nodiscard]] std::uint64_t count() const { return cell_->count(); }
  [[nodiscard]] double sum() const { return cell_->sum(); }
  [[nodiscard]] const HistogramData& data() const { return *cell_; }

 private:
  friend class Registry;
  Histogram(HistogramData* cell, const bool* armed) : cell_(cell), armed_(armed) {}

  HistogramData* cell_;
  const bool* armed_;
};

class Registry {
 public:
  explicit Registry(bool armed = true) : armed_(armed) {}
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Registers a new instance cell under `name` and returns its handle.
  /// Metric names use dotted lowercase ("core.manager.applied"); allowed
  /// characters are [A-Za-z0-9_.]. Throws std::invalid_argument on a bad
  /// name and std::logic_error when `name` already exists as another kind.
  Counter counter(const std::string& name, std::string help = "");
  /// Histogram families additionally require every registration to agree on
  /// the bucket options; a mismatch throws std::logic_error.
  Histogram histogram(const std::string& name, HistogramOptions options = {},
                      std::string help = "");

  void arm() { armed_ = true; }
  void disarm() { armed_ = false; }
  [[nodiscard]] bool armed() const { return armed_; }

  [[nodiscard]] std::size_t family_count() const { return families_.size(); }
  /// Total value of a counter family (sum over instance cells); 0 if absent.
  [[nodiscard]] std::uint64_t counter_total(const std::string& name) const;

  /// Prometheus-style text exposition: families in name order, dots mapped
  /// to underscores, instance cells summed / merged.
  [[nodiscard]] std::string expose_text() const;
  /// One JSON object per family per line (machine-readable snapshot).
  [[nodiscard]] std::string snapshot_jsonl() const;

  /// The process-wide registry every production component registers with.
  static Registry& global();

 private:
  enum class Kind : std::uint8_t { kCounter, kHistogram };

  struct Family {
    Kind kind = Kind::kCounter;
    std::string help;
    HistogramOptions options;  ///< Histogram families only.
    std::vector<std::unique_ptr<internal::CounterCell>> counters;
    std::vector<std::unique_ptr<HistogramData>> histograms;
  };

  Family& family(const std::string& name, Kind kind, std::string help);

  bool armed_;
  std::map<std::string, Family> families_;
};

/// Shorthand for Registry::global().
inline Registry& registry() { return Registry::global(); }

}  // namespace stellar::obs
