// Streaming sketches for attack detection (paper §6 leaves "combining
// Stellar with DDoS detection" as future work; AITF-style filter synthesis
// needs per-victim traffic profiles that fit in O(1) memory per port):
//   - CountMinSketch with conservative update: per-(dst, proto, src-port)
//     byte counting. Never underestimates; overestimation bounded by
//     eps * total with probability >= 1 - delta.
//   - SpaceSaving: deterministic heavy-hitter tracking with per-entry error
//     bounds (any key with true count > total/capacity is guaranteed present).
//   - WindowedEntropy: Shannon entropy of a byte-weighted distribution over a
//     sliding window of bins. Amplification floods collapse the UDP source
//     port entropy towards 0 (all bytes from one service port).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

namespace stellar::detect {

/// Composite sketch key for per-(dst IP, proto, src port) byte counting:
/// dst in the high 32 bits, protocol next, source port in the low 16 bits.
[[nodiscard]] constexpr std::uint64_t FlowAggregateKey(std::uint32_t dst_ip,
                                                       std::uint8_t proto,
                                                       std::uint16_t src_port) {
  return (static_cast<std::uint64_t>(dst_ip) << 24) |
         (static_cast<std::uint64_t>(proto) << 16) | src_port;
}

/// Count-min sketch with conservative update (Estan & Varghese): on add, only
/// the cells that equal the current minimum estimate are raised, which keeps
/// the one-sided error (estimate >= true count) while tightening the
/// overestimation considerably on skewed streams.
class CountMinSketch {
 public:
  CountMinSketch(std::size_t width, std::size_t depth, std::uint64_t seed = 1);

  void add(std::uint64_t key, std::uint64_t count);
  [[nodiscard]] std::uint64_t estimate(std::uint64_t key) const;

  /// Total count added since construction (halved by halve()).
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] std::size_t depth() const { return depth_; }

  /// Exponential decay: halves every cell (and the total), so long-running
  /// engines forget stale traffic while preserving the no-underestimate
  /// property relative to the equally-decayed exact counts.
  void halve();

 private:
  [[nodiscard]] std::size_t cell(std::size_t row, std::uint64_t key) const;

  std::size_t width_;
  std::size_t depth_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> table_;      ///< depth_ rows of width_ cells.
  std::vector<std::uint64_t> row_seeds_;  ///< Per row: Mix64(seed + row).
  std::vector<std::size_t> cells_;        ///< add()'s cells, one per row.
};

/// Space-saving heavy hitter tracker (Metwally et al.): at most `capacity`
/// monitored keys; when full, the minimum-count entry is evicted and its
/// count becomes the newcomer's error bound. Guarantees: reported count is in
/// [true, true + error], and every key with true count > total/capacity is
/// monitored.
class SpaceSaving {
 public:
  explicit SpaceSaving(std::size_t capacity);

  void add(std::uint64_t key, std::uint64_t count);

  struct Entry {
    std::uint64_t key = 0;
    std::uint64_t count = 0;  ///< Upper bound on the true count.
    std::uint64_t error = 0;  ///< count - error is a lower bound.
  };

  /// Top-k entries by count, descending (k > size() returns all).
  [[nodiscard]] std::vector<Entry> top(std::size_t k) const;
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  void halve();

 private:
  std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::vector<Entry> entries_;
  std::unordered_map<std::uint64_t, std::size_t> index_;  ///< key -> entries_ slot.
};

/// Byte-weighted Shannon entropy of a categorical distribution (e.g. UDP
/// source ports) over a sliding window of the last `window_bins` bins.
class WindowedEntropy {
 public:
  explicit WindowedEntropy(std::size_t window_bins);

  /// Adds weight to a category in the current bin.
  void add(std::uint16_t category, std::uint64_t weight);

  /// Closes the current bin and opens a new one; bins older than the window
  /// fall out of the aggregate.
  void rotate();

  /// Shannon entropy (bits) of the windowed distribution; 0 for empty/single.
  [[nodiscard]] double entropy_bits() const;

  /// Entropy normalized by log2(#distinct categories) into [0, 1]; an empty
  /// window or a single category yields 0 (fully concentrated).
  [[nodiscard]] double normalized() const;

  [[nodiscard]] std::size_t distinct() const { return aggregate_.size(); }
  [[nodiscard]] std::uint64_t total() const { return total_; }

 private:
  std::size_t window_bins_;
  std::deque<std::unordered_map<std::uint16_t, std::uint64_t>> bins_;
  std::unordered_map<std::uint16_t, std::uint64_t> aggregate_;
  std::uint64_t total_ = 0;
};

}  // namespace stellar::detect
