// Advanced Blackholing signal codec over BGP communities (paper §4.2.1: "We
// choose BGP extended communities for signaling since extended communities
// provide a sufficiently large numbering space and allow us to define a
// distinct community namespace for blackholing rules").
//
// One codec, two packings. A signal is a set of (function, kind, value)
// words: function 0x80 ("match") selects traffic by rule kind and a 16-bit
// value, function 0x81 ("action") carries the shape rate in Mbps (0 = drop).
// Every rule (kind validity, the 16-bit value range, rate validation, the
// conflicting-action error, sort and dedup) is written once over the word;
// the two namespaces differ only in how a word is packed:
//   extended (RFC 4360 §3.1 two-octet-AS-specific, AS = the IXP's ASN):
//     subtype = function, local_admin = kind(1 byte) | reserved | value(2 bytes)
//     for a match, the rate for an action;
//   large (RFC 8092, for IXPs whose ASN needs four octets):
//     global_admin = IXP ASN, data1 = function << 24 | kind, data2 = value.
//
// The paper's §5.3 example "IXP:2:123 — 2 refers to UDP source traffic and
// 123 to port 123" maps to kind kUdpSrcPort (=2), value 123.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bgp/types.hpp"
#include "filter/rule.hpp"
#include "util/result.hpp"

namespace stellar::core {

/// The word's function: the extended-community subtype inside the IXP
/// namespace, and the high byte of a large community's data1.
inline constexpr std::uint8_t kStellarMatchSubtype = 0x80;
inline constexpr std::uint8_t kStellarActionSubtype = 0x81;
inline constexpr std::uint32_t kStellarLargeMatchFunction = kStellarMatchSubtype;
inline constexpr std::uint32_t kStellarLargeActionFunction = kStellarActionSubtype;

/// What a single match community selects. Values are the on-the-wire kind
/// byte; kUdpSrcPort = 2 matches the paper's "IXP:2:123" example.
enum class RuleKind : std::uint8_t {
  kDropAll = 0,      ///< Whole prefix (IXP-side RTBH; no member cooperation needed).
  kProtocol = 1,     ///< value = IP protocol number (e.g. 17 = all UDP).
  kUdpSrcPort = 2,   ///< value = UDP source port (amplification service port).
  kUdpDstPort = 3,
  kTcpSrcPort = 4,
  kTcpDstPort = 5,
  kPredefined = 10,  ///< value = rule id in the IXP's portal catalog.
};

[[nodiscard]] std::string_view ToString(RuleKind kind);

struct SignalRule {
  RuleKind kind = RuleKind::kDropAll;
  std::uint16_t value = 0;

  friend auto operator<=>(const SignalRule&, const SignalRule&) = default;
  [[nodiscard]] std::string str() const;
};

/// A full Advanced Blackholing signal: one or more match rules plus the
/// action. No action community (or rate 0) means drop; a rate means shape —
/// the telemetry mode of §5.3 ("shapes the traffic to a rate limit of
/// 200 Mbps for telemetry purposes").
struct Signal {
  std::vector<SignalRule> rules;
  std::optional<double> shape_rate_mbps;  ///< nullopt or 0 => drop.

  [[nodiscard]] bool is_shaping() const {
    return shape_rate_mbps.has_value() && *shape_rate_mbps > 0.0;
  }

  friend bool operator==(const Signal&, const Signal&) = default;
};

/// Encodes a signal into the communities to attach to the /32 announcement,
/// in either namespace. The action field is a 32-bit integral Mbps rate on
/// the wire, so a set `shape_rate_mbps` must be a non-negative integral value
/// that fits in 32 bits; anything else (NaN, negative, fractional,
/// overflowing) is an error rather than a silent truncation.
[[nodiscard]] util::Result<std::vector<bgp::ExtendedCommunity>> EncodeSignal(
    std::uint16_t ixp_asn, const Signal& signal);
[[nodiscard]] util::Result<std::vector<bgp::LargeCommunity>> EncodeSignalLarge(
    std::uint32_t ixp_asn, const Signal& signal);

/// Extracts a Stellar signal from extended communities. Returns an
/// empty-rules Signal if no Stellar communities are present. Duplicate match
/// communities deduplicate; action communities with conflicting rates are an
/// error (never silent last-wins).
[[nodiscard]] util::Result<Signal> DecodeSignal(std::uint16_t ixp_asn,
                                                std::span<const bgp::ExtendedCommunity> ecs);

/// Extracts the Stellar signal a route carries, reading both namespaces in
/// one pass (the extended one only when the IXP's ASN fits two octets).
/// nullopt: the route carries no Stellar community. A route may split its
/// rules across the namespaces; actions that conflict, within one namespace
/// or across the two, are an error like any other invalid community.
[[nodiscard]] util::Result<std::optional<Signal>> DecodeRouteSignal(
    bgp::Asn ixp_asn, std::span<const bgp::ExtendedCommunity> ecs,
    std::span<const bgp::LargeCommunity> lcs);

/// Expands a signal rule into data-plane match criteria against a victim
/// prefix. kPredefined rules are resolved by the caller via the portal and
/// rejected here.
[[nodiscard]] util::Result<filter::MatchCriteria> ToMatchCriteria(const SignalRule& rule,
                                                                  const net::Prefix4& victim);

}  // namespace stellar::core
