#include "bgp/wire.hpp"

namespace stellar::bgp {

namespace {
util::Error Truncated(std::size_t want, std::size_t have) {
  return util::MakeError("bgp.wire.truncated", "need " + std::to_string(want) + " bytes, have " +
                                                   std::to_string(have));
}
}  // namespace

util::Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return Truncated(1, remaining());
  return data_[pos_++];
}

util::Result<std::uint16_t> ByteReader::u16() {
  if (remaining() < 2) return Truncated(2, remaining());
  const std::uint16_t v =
      static_cast<std::uint16_t>((std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
  pos_ += 2;
  return v;
}

util::Result<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return Truncated(4, remaining());
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + static_cast<std::size_t>(i)];
  pos_ += 4;
  return v;
}

util::Result<std::vector<std::uint8_t>> ByteReader::bytes(std::size_t n) {
  if (remaining() < n) return Truncated(n, remaining());
  std::vector<std::uint8_t> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

util::Result<ByteReader> ByteReader::sub(std::size_t n) {
  if (remaining() < n) return Truncated(n, remaining());
  ByteReader r(data_.subspan(pos_, n));
  pos_ += n;
  return r;
}

}  // namespace stellar::bgp
