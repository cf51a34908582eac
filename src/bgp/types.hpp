// Core BGP vocabulary: AS numbers, standard communities (RFC 1997), extended
// communities (RFC 4360) and well-known values (RFC 7999 BLACKHOLE). These
// types carry Stellar's entire signaling plane.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <string>

namespace stellar::bgp {

/// Autonomous System Number (4-octet capable, RFC 6793).
using Asn = std::uint32_t;

/// Placeholder ASN announced in OPEN by 4-octet-AS speakers (RFC 6793).
inline constexpr std::uint16_t kAsTrans = 23456;

/// RFC 1997 standard community: 32 bits, conventionally split "asn:value".
class Community {
 public:
  constexpr Community() = default;
  constexpr explicit Community(std::uint32_t raw) : raw_(raw) {}
  constexpr Community(std::uint16_t asn, std::uint16_t value)
      : raw_((std::uint32_t{asn} << 16) | value) {}

  [[nodiscard]] constexpr std::uint32_t raw() const { return raw_; }
  [[nodiscard]] constexpr std::uint16_t asn() const { return static_cast<std::uint16_t>(raw_ >> 16); }
  [[nodiscard]] constexpr std::uint16_t value() const { return static_cast<std::uint16_t>(raw_); }
  [[nodiscard]] std::string str() const;

  friend constexpr auto operator<=>(const Community&, const Community&) = default;

 private:
  std::uint32_t raw_ = 0;
};

/// Well-known communities (RFC 1997 §2, RFC 7999 §5).
inline constexpr Community kNoExport{0xFFFFFF01};
inline constexpr Community kNoAdvertise{0xFFFFFF02};
inline constexpr Community kNoExportSubconfed{0xFFFFFF03};
/// RFC 7999: BLACKHOLE, 0xFFFF029A (65535:666).
inline constexpr Community kBlackhole{0xFFFF029A};

/// RFC 4360 extended community: 8 bytes. The first byte is the type (with
/// transitive bit), interpretation of the remaining 7 depends on type/subtype.
class ExtendedCommunity {
 public:
  using Bytes = std::array<std::uint8_t, 8>;

  // Type field values (high octet). Bit 0x40 = non-transitive.
  static constexpr std::uint8_t kTypeTwoOctetAs = 0x00;       ///< RFC 4360 §3.1
  static constexpr std::uint8_t kTypeIPv4Address = 0x01;      ///< RFC 4360 §3.2
  static constexpr std::uint8_t kTypeFourOctetAs = 0x02;      ///< RFC 5668
  static constexpr std::uint8_t kTypeOpaque = 0x03;           ///< RFC 4360 §3.3

  // Sub-types used here.
  static constexpr std::uint8_t kSubTypeRouteTarget = 0x02;
  static constexpr std::uint8_t kSubTypeRouteOrigin = 0x03;

  constexpr ExtendedCommunity() : bytes_{} {}
  constexpr explicit ExtendedCommunity(const Bytes& bytes) : bytes_(bytes) {}

  /// Two-octet-AS-specific extended community (RFC 4360 §3.1):
  /// type(1) subtype(1) asn(2) local_admin(4).
  static ExtendedCommunity TwoOctetAs(std::uint8_t subtype, std::uint16_t asn,
                                      std::uint32_t local_admin, bool transitive = true);

  [[nodiscard]] const Bytes& bytes() const { return bytes_; }
  [[nodiscard]] std::uint8_t type() const { return bytes_[0]; }
  [[nodiscard]] std::uint8_t subtype() const { return bytes_[1]; }
  [[nodiscard]] bool transitive() const { return (bytes_[0] & 0x40) == 0; }

  /// For two-octet-AS-specific communities.
  [[nodiscard]] std::uint16_t as_number() const {
    return static_cast<std::uint16_t>((bytes_[2] << 8) | bytes_[3]);
  }
  [[nodiscard]] std::uint32_t local_admin() const {
    return (std::uint32_t{bytes_[4]} << 24) | (std::uint32_t{bytes_[5]} << 16) |
           (std::uint32_t{bytes_[6]} << 8) | std::uint32_t{bytes_[7]};
  }

  [[nodiscard]] std::string str() const;
  [[nodiscard]] std::uint64_t as_u64() const;

  friend constexpr auto operator<=>(const ExtendedCommunity&, const ExtendedCommunity&) = default;

 private:
  Bytes bytes_;
};

/// RFC 8092 large community: three 4-octet fields.
struct LargeCommunity {
  std::uint32_t global_admin = 0;
  std::uint32_t data1 = 0;
  std::uint32_t data2 = 0;

  friend constexpr auto operator<=>(const LargeCommunity&, const LargeCommunity&) = default;
  [[nodiscard]] std::string str() const;
};

/// True if `asn` fits the two-octet AS field of RFC 1997 and RFC 4360.
[[nodiscard]] constexpr bool IsTwoOctetAsn(Asn asn) { return asn <= 0xffff; }

/// Whether a community lies in an IXP's community namespace: the one that
/// names the IXP's ASN. An extended community's AS field holds two octets,
/// so an IXP with a 4-byte ASN has no extended-community namespace (its
/// ASN would truncate into some other AS's); it signals in large communities.
[[nodiscard]] inline bool InIxpNamespace(const ExtendedCommunity& ec, Asn ixp_asn) {
  return IsTwoOctetAsn(ixp_asn) && ec.as_number() == ixp_asn;
}
[[nodiscard]] constexpr bool InIxpNamespace(const LargeCommunity& lc, Asn ixp_asn) {
  return lc.global_admin == ixp_asn;
}

/// ORIGIN path attribute values (RFC 4271 §5.1.1).
enum class Origin : std::uint8_t { kIgp = 0, kEgp = 1, kIncomplete = 2 };

/// ADD-PATH path identifier (RFC 7911). 0 = "no path id on the wire".
using PathId = std::uint32_t;

}  // namespace stellar::bgp
