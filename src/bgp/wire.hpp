// Big-endian byte stream reader/writer for BGP wire formats.
//
// The reader is bounds-checked and never reads past the buffer; truncated
// input surfaces as a Result error, not UB — malformed BGP from a peer is an
// expected input, not a precondition violation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"

namespace stellar::bgp {

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) { buf_.insert(buf_.end(), data.begin(), data.end()); }

  /// Overwrites a previously written big-endian u16 at `offset` (for
  /// back-patching length fields).
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_.at(offset) = static_cast<std::uint8_t>(v >> 8);
    buf_.at(offset + 1) = static_cast<std::uint8_t>(v);
  }
  void patch_u8(std::size_t offset, std::uint8_t v) { buf_.at(offset) = v; }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool empty() const { return remaining() == 0; }
  [[nodiscard]] std::size_t position() const { return pos_; }

  util::Result<std::uint8_t> u8();
  util::Result<std::uint16_t> u16();
  util::Result<std::uint32_t> u32();
  /// Reads exactly n bytes.
  util::Result<std::vector<std::uint8_t>> bytes(std::size_t n);
  /// Returns a sub-reader over the next n bytes and skips them.
  util::Result<ByteReader> sub(std::size_t n);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace stellar::bgp
