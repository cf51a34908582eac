#include "bgp/types.hpp"

#include <cstdio>

namespace stellar::bgp {

std::string Community::str() const {
  return std::to_string(asn()) + ":" + std::to_string(value());
}

ExtendedCommunity ExtendedCommunity::TwoOctetAs(std::uint8_t subtype, std::uint16_t asn,
                                                std::uint32_t local_admin, bool transitive) {
  Bytes b{};
  b[0] = static_cast<std::uint8_t>(kTypeTwoOctetAs | (transitive ? 0x00 : 0x40));
  b[1] = subtype;
  b[2] = static_cast<std::uint8_t>(asn >> 8);
  b[3] = static_cast<std::uint8_t>(asn);
  b[4] = static_cast<std::uint8_t>(local_admin >> 24);
  b[5] = static_cast<std::uint8_t>(local_admin >> 16);
  b[6] = static_cast<std::uint8_t>(local_admin >> 8);
  b[7] = static_cast<std::uint8_t>(local_admin);
  return ExtendedCommunity(b);
}

std::string ExtendedCommunity::str() const {
  char buf[40];
  if ((type() & 0x3f) == kTypeTwoOctetAs) {
    std::snprintf(buf, sizeof buf, "ext:%u:%u:%u", subtype(), as_number(), local_admin());
  } else {
    std::snprintf(buf, sizeof buf, "ext:0x%02x%02x:%010llu", type(), subtype(),
                  static_cast<unsigned long long>(as_u64() & 0xffffffffffffULL));
  }
  return buf;
}

std::uint64_t ExtendedCommunity::as_u64() const {
  std::uint64_t v = 0;
  for (std::uint8_t b : bytes_) v = (v << 8) | b;
  return v;
}

std::string LargeCommunity::str() const {
  return std::to_string(global_admin) + ":" + std::to_string(data1) + ":" + std::to_string(data2);
}

}  // namespace stellar::bgp
