// IPv4/IPv6 addresses and prefixes with strict parsing and canonical
// formatting. These are the vocabulary types of the whole system: BGP NLRI,
// route-server RIBs, blackholing rules and flow keys are all expressed in
// terms of them.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "util/result.hpp"

namespace stellar::net {

/// IPv4 address, stored in host byte order.
class IPv4Address {
 public:
  constexpr IPv4Address() = default;
  constexpr explicit IPv4Address(std::uint32_t value) : value_(value) {}
  constexpr IPv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) | (std::uint32_t{c} << 8) |
               std::uint32_t{d}) {}

  /// Strict dotted-quad parse: exactly four decimal octets, no leading '+',
  /// values 0..255. Leading zeros are accepted ("010" == 10).
  static util::Result<IPv4Address> Parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] std::string str() const;

  friend constexpr auto operator<=>(const IPv4Address&, const IPv4Address&) = default;

 private:
  std::uint32_t value_ = 0;
};

/// IPv6 address, 16 bytes in network order.
class IPv6Address {
 public:
  using Bytes = std::array<std::uint8_t, 16>;

  constexpr IPv6Address() : bytes_{} {}
  constexpr explicit IPv6Address(const Bytes& bytes) : bytes_(bytes) {}

  /// Parses full and "::"-compressed textual forms (RFC 4291 §2.2 forms 1-2;
  /// the embedded-IPv4 form "::ffff:1.2.3.4" is also accepted).
  static util::Result<IPv6Address> Parse(std::string_view text);

  [[nodiscard]] const Bytes& bytes() const { return bytes_; }
  /// Canonical RFC 5952 formatting: lowercase hex, longest zero run compressed.
  [[nodiscard]] std::string str() const;

  /// Hextet (16-bit group) i in [0,8), host order.
  [[nodiscard]] std::uint16_t hextet(std::size_t i) const {
    return static_cast<std::uint16_t>((std::uint16_t{bytes_[2 * i]} << 8) | bytes_[2 * i + 1]);
  }

  friend auto operator<=>(const IPv6Address&, const IPv6Address&) = default;

 private:
  Bytes bytes_;
};

/// IPv4 prefix. Invariant: host bits below the mask are zero (enforced at
/// construction by masking), length <= 32.
class Prefix4 {
 public:
  constexpr Prefix4() = default;
  Prefix4(IPv4Address addr, std::uint8_t length);

  /// Parses "a.b.c.d/len". A bare address parses as a /32.
  static util::Result<Prefix4> Parse(std::string_view text);

  /// The /32 host route for an address.
  static Prefix4 HostRoute(IPv4Address addr) { return Prefix4(addr, 32); }

  [[nodiscard]] IPv4Address address() const { return addr_; }
  [[nodiscard]] std::uint8_t length() const { return length_; }
  /// The netmask of a `length`-bit prefix, host order (0 for /0).
  [[nodiscard]] static constexpr std::uint32_t MaskOf(std::uint8_t length) {
    return length == 0 ? 0 : ~std::uint32_t{0} << (32 - length);
  }
  // Inline: these run once per flow and rule on the data-plane paths.
  [[nodiscard]] std::uint32_t mask() const { return MaskOf(length_); }
  [[nodiscard]] bool contains(IPv4Address a) const {
    return (a.value() & mask()) == addr_.value();
  }
  /// True if `other` is equal to or more specific than *this.
  [[nodiscard]] bool contains(const Prefix4& other) const {
    return other.length_ >= length_ && contains(other.addr_);
  }
  [[nodiscard]] std::string str() const;

  friend constexpr auto operator<=>(const Prefix4&, const Prefix4&) = default;

 private:
  IPv4Address addr_;
  std::uint8_t length_ = 0;
};

/// IPv6 prefix with the same invariants as Prefix4 (length <= 128).
class Prefix6 {
 public:
  Prefix6() = default;
  Prefix6(IPv6Address addr, std::uint8_t length);

  static util::Result<Prefix6> Parse(std::string_view text);
  static Prefix6 HostRoute(IPv6Address addr) { return Prefix6(addr, 128); }

  [[nodiscard]] const IPv6Address& address() const { return addr_; }
  [[nodiscard]] std::uint8_t length() const { return length_; }
  [[nodiscard]] bool contains(const IPv6Address& a) const;
  [[nodiscard]] bool contains(const Prefix6& other) const;
  [[nodiscard]] std::string str() const;

  friend auto operator<=>(const Prefix6&, const Prefix6&) = default;

 private:
  IPv6Address addr_;
  std::uint8_t length_ = 0;
};

}  // namespace stellar::net

template <>
struct std::hash<stellar::net::IPv4Address> {
  std::size_t operator()(const stellar::net::IPv4Address& a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<stellar::net::Prefix4> {
  std::size_t operator()(const stellar::net::Prefix4& p) const noexcept {
    return std::hash<std::uint64_t>{}(
        (std::uint64_t{p.address().value()} << 8) | p.length());
  }
};

template <>
struct std::hash<stellar::net::IPv6Address> {
  std::size_t operator()(const stellar::net::IPv6Address& a) const noexcept {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;
    for (int i = 0; i < 8; ++i) hi = (hi << 8) | a.bytes()[i];
    for (int i = 8; i < 16; ++i) lo = (lo << 8) | a.bytes()[i];
    return std::hash<std::uint64_t>{}(hi) ^ (std::hash<std::uint64_t>{}(lo) << 1);
  }
};

template <>
struct std::hash<stellar::net::Prefix6> {
  std::size_t operator()(const stellar::net::Prefix6& p) const noexcept {
    return std::hash<stellar::net::IPv6Address>{}(p.address()) ^ p.length();
  }
};
