#include "detect/sketch.hpp"

#include <algorithm>
#include <cmath>

namespace stellar::detect {

namespace {

/// splitmix64 finalizer: a cheap, well-mixed 64-bit hash.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

// -- CountMinSketch ----------------------------------------------------------

CountMinSketch::CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t seed)
    : width_(std::max<std::size_t>(width, 1)),
      depth_(std::max<std::size_t>(depth, 1)),
      table_(width_ * depth_, 0),
      row_seeds_(depth_),
      cells_(depth_) {
  for (std::size_t row = 0; row < depth_; ++row) row_seeds_[row] = Mix64(seed + row);
}

std::size_t CountMinSketch::cell(std::size_t row, std::uint64_t key) const {
  return row * width_ + static_cast<std::size_t>(Mix64(key ^ row_seeds_[row]) % width_);
}

void CountMinSketch::add(std::uint64_t key, std::uint64_t count) {
  if (count == 0) return;
  // Conservative update: raise only the cells below the new lower bound
  // (current estimate + count); cells already above it stay untouched. Each
  // row's cell is hashed once.
  std::uint64_t est = UINT64_MAX;
  for (std::size_t row = 0; row < depth_; ++row) {
    cells_[row] = cell(row, key);
    est = std::min(est, table_[cells_[row]]);
  }
  const std::uint64_t target = est + count;
  for (const std::size_t i : cells_) table_[i] = std::max(table_[i], target);
  total_ += count;
}

std::uint64_t CountMinSketch::estimate(std::uint64_t key) const {
  std::uint64_t est = UINT64_MAX;
  for (std::size_t row = 0; row < depth_; ++row) {
    est = std::min(est, table_[cell(row, key)]);
  }
  return est;
}

void CountMinSketch::halve() {
  for (auto& c : table_) c /= 2;
  total_ /= 2;
}

// -- SpaceSaving -------------------------------------------------------------

SpaceSaving::SpaceSaving(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {
  entries_.reserve(capacity_);
}

void SpaceSaving::add(std::uint64_t key, std::uint64_t count) {
  if (count == 0) return;
  total_ += count;
  if (const auto it = index_.find(key); it != index_.end()) {
    entries_[it->second].count += count;
    return;
  }
  if (entries_.size() < capacity_) {
    index_[key] = entries_.size();
    entries_.push_back({key, count, 0});
    return;
  }
  // Evict the minimum-count entry; its count becomes the newcomer's error
  // bound. capacity is small (tens of entries), so the linear min scan is
  // cheaper than maintaining a heap alongside the index.
  std::size_t min_slot = 0;
  for (std::size_t i = 1; i < entries_.size(); ++i) {
    if (entries_[i].count < entries_[min_slot].count) min_slot = i;
  }
  Entry& slot = entries_[min_slot];
  index_.erase(slot.key);
  index_[key] = min_slot;
  slot.error = slot.count;
  slot.count += count;
  slot.key = key;
}

std::vector<SpaceSaving::Entry> SpaceSaving::top(std::size_t k) const {
  std::vector<Entry> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

void SpaceSaving::halve() {
  for (auto& e : entries_) {
    e.count /= 2;
    e.error /= 2;
  }
  total_ /= 2;
}

// -- WindowedEntropy ---------------------------------------------------------

WindowedEntropy::WindowedEntropy(std::size_t window_bins)
    : window_bins_(std::max<std::size_t>(window_bins, 1)) {
  bins_.emplace_back();
}

void WindowedEntropy::add(std::uint16_t category, std::uint64_t weight) {
  if (weight == 0) return;
  bins_.back()[category] += weight;
  aggregate_[category] += weight;
  total_ += weight;
}

void WindowedEntropy::rotate() {
  bins_.emplace_back();
  while (bins_.size() > window_bins_) {
    for (const auto& [category, weight] : bins_.front()) {
      auto it = aggregate_.find(category);
      it->second -= weight;
      total_ -= weight;
      if (it->second == 0) aggregate_.erase(it);
    }
    bins_.pop_front();
  }
}

double WindowedEntropy::entropy_bits() const {
  if (total_ == 0 || aggregate_.size() < 2) return 0.0;
  double h = 0.0;
  const auto total = static_cast<double>(total_);
  for (const auto& [category, weight] : aggregate_) {
    const double p = static_cast<double>(weight) / total;
    h -= p * std::log2(p);
  }
  return h;
}

double WindowedEntropy::normalized() const {
  if (aggregate_.size() < 2) return 0.0;
  return entropy_bits() / std::log2(static_cast<double>(aggregate_.size()));
}

}  // namespace stellar::detect
