#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace stellar::obs {
namespace {

bool ValidName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

std::string SanitizeForExposition(const std::string& name) {
  std::string out = name;
  std::replace(out.begin(), out.end(), '.', '_');
  return out;
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

HistogramData::HistogramData(HistogramOptions options) : options_(options) {
  if (!(options_.min_bound > 0.0) || !(options_.growth > 1.0) || options_.bucket_count == 0) {
    throw std::invalid_argument("obs: histogram options require min_bound>0, growth>1, buckets>0");
  }
  bounds_.reserve(options_.bucket_count);
  double bound = options_.min_bound;
  for (std::size_t i = 0; i < options_.bucket_count; ++i) {
    bounds_.push_back(bound);
    bound *= options_.growth;
  }
  counts_.assign(options_.bucket_count + 1, 0);
}

std::size_t HistogramData::bucket_for(double value) const {
  // First bucket whose upper bound admits the value; binary search over the
  // precomputed bounds keeps observe() branch-only (no log() on hot path).
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());  // == size() → overflow.
}

void HistogramData::observe(double value) {
  ++counts_[bucket_for(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

void HistogramData::merge(const HistogramData& other) {
  if (!(options_ == other.options_)) {
    throw std::logic_error("obs: cannot merge histograms with different bucket layouts");
  }
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  if (other.count_ > 0) {
    if (count_ == 0) {
      min_ = other.min_;
      max_ = other.max_;
    } else {
      min_ = std::min(min_, other.min_);
      max_ = std::max(max_, other.max_);
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double HistogramData::percentile(double pct) const {
  if (count_ == 0) return 0.0;
  pct = std::clamp(pct, 0.0, 100.0);
  // Same fractional-rank convention as util::Percentile: rank 0 is the
  // smallest sample, rank count-1 the largest, linear interpolation between.
  const double rank = (pct / 100.0) * static_cast<double>(count_ - 1);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double c = static_cast<double>(counts_[i]);
    if (c == 0.0) continue;
    if (rank < cumulative + c) {
      // Interpolate uniformly inside the bucket between its bounds, tightened
      // by the observed extrema so single-value buckets report exactly.
      double lower = (i == 0) ? min_ : bounds_[i - 1];
      double upper = (i < bounds_.size()) ? bounds_[i] : max_;
      lower = std::max(lower, min_);
      upper = std::min(upper, max_);
      if (upper < lower) upper = lower;
      const double frac = c <= 1.0 ? 0.0 : (rank - cumulative) / (c - 1.0);
      return std::clamp(lower + (upper - lower) * frac, min_, max_);
    }
    cumulative += c;
  }
  return max_;
}

Registry::Family& Registry::family(const std::string& name, Kind kind, std::string help) {
  if (!ValidName(name)) {
    throw std::invalid_argument("obs: invalid metric name '" + name + "'");
  }
  auto [it, inserted] = families_.try_emplace(name);
  Family& fam = it->second;
  if (inserted) {
    fam.kind = kind;
    fam.help = std::move(help);
  } else if (fam.kind != kind) {
    throw std::logic_error("obs: duplicate metric registration with conflicting kind: '" + name +
                           "'");
  }
  return fam;
}

Counter Registry::counter(const std::string& name, std::string help) {
  Family& fam = family(name, Kind::kCounter, std::move(help));
  fam.counters.push_back(std::make_unique<internal::CounterCell>());
  return Counter(fam.counters.back().get(), &armed_);
}

Histogram Registry::histogram(const std::string& name, HistogramOptions options,
                              std::string help) {
  Family& fam = family(name, Kind::kHistogram, std::move(help));
  if (fam.histograms.empty()) {
    fam.options = options;
  } else if (!(fam.options == options)) {
    throw std::logic_error("obs: duplicate metric registration with conflicting histogram options: '" +
                           name + "'");
  }
  fam.histograms.push_back(std::make_unique<HistogramData>(options));
  return Histogram(fam.histograms.back().get(), &armed_);
}

std::uint64_t Registry::counter_total(const std::string& name) const {
  const auto it = families_.find(name);
  if (it == families_.end() || it->second.kind != Kind::kCounter) return 0;
  std::uint64_t total = 0;
  for (const auto& cell : it->second.counters) total += cell->value;
  return total;
}

std::string Registry::expose_text() const {
  std::string out;
  for (const auto& [name, fam] : families_) {
    const std::string ename = SanitizeForExposition(name);
    if (!fam.help.empty()) out += "# HELP " + ename + " " + fam.help + "\n";
    switch (fam.kind) {
      case Kind::kCounter: {
        out += "# TYPE " + ename + " counter\n";
        std::uint64_t total = 0;
        for (const auto& cell : fam.counters) total += cell->value;
        out += ename + " " + std::to_string(total) + "\n";
        break;
      }
      case Kind::kHistogram: {
        out += "# TYPE " + ename + " histogram\n";
        HistogramData merged(fam.options);
        for (const auto& cell : fam.histograms) merged.merge(*cell);
        std::uint64_t cumulative = 0;
        const auto& counts = merged.bucket_counts();
        for (std::size_t i = 0; i + 1 < counts.size(); ++i) {
          cumulative += counts[i];
          out += ename + "_bucket{le=\"" + FormatDouble(merged.upper_bound(i)) + "\"} " +
                 std::to_string(cumulative) + "\n";
        }
        cumulative += counts.back();
        out += ename + "_bucket{le=\"+Inf\"} " + std::to_string(cumulative) + "\n";
        out += ename + "_sum " + FormatDouble(merged.sum()) + "\n";
        out += ename + "_count " + std::to_string(merged.count()) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::snapshot_jsonl() const {
  std::string out;
  for (const auto& [name, fam] : families_) {
    out += "{\"name\":\"" + name + "\",\"type\":\"" +
           (fam.kind == Kind::kCounter ? "counter" : "histogram") + "\"";
    switch (fam.kind) {
      case Kind::kCounter: {
        std::uint64_t total = 0;
        for (const auto& cell : fam.counters) total += cell->value;
        out += ",\"instances\":" + std::to_string(fam.counters.size()) +
               ",\"value\":" + std::to_string(total);
        break;
      }
      case Kind::kHistogram: {
        HistogramData merged(fam.options);
        for (const auto& cell : fam.histograms) merged.merge(*cell);
        out += ",\"instances\":" + std::to_string(fam.histograms.size()) +
               ",\"count\":" + std::to_string(merged.count()) +
               ",\"sum\":" + FormatDouble(merged.sum());
        if (merged.count() > 0) {
          out += ",\"min\":" + FormatDouble(merged.min()) +
                 ",\"max\":" + FormatDouble(merged.max()) +
                 ",\"p50\":" + FormatDouble(merged.percentile(50)) +
                 ",\"p90\":" + FormatDouble(merged.percentile(90)) +
                 ",\"p99\":" + FormatDouble(merged.percentile(99)) +
                 ",\"p999\":" + FormatDouble(merged.percentile(99.9));
        }
        break;
      }
    }
    out += "}\n";
  }
  return out;
}

Registry& Registry::global() {
  static Registry* instance = new Registry(/*armed=*/true);
  return *instance;
}

}  // namespace stellar::obs
