#include "core/signal.hpp"

#include <algorithm>
#include <cmath>

namespace stellar::core {

namespace {

/// The wire action field is a 32-bit integral Mbps rate; anything a uint32
/// cannot represent exactly must be rejected at encode time instead of being
/// silently truncated into a different (often drop-all) action.
util::Result<std::uint32_t> ValidatedRateMbps(double rate) {
  if (std::isnan(rate) || rate < 0.0) {
    return util::MakeError("stellar.signal", "shape rate must be a non-negative Mbps value");
  }
  if (rate > 4294967295.0) {
    return util::MakeError("stellar.signal", "shape rate overflows the 32-bit wire field");
  }
  if (rate != std::floor(rate)) {
    return util::MakeError("stellar.signal",
                           "shape rate must be an integral Mbps value (wire field is integer)");
  }
  return static_cast<std::uint32_t>(rate);
}

/// One Stellar community, whatever its namespace.
struct Word {
  std::uint8_t function = 0;  ///< kStellarMatchSubtype or kStellarActionSubtype.
  std::uint32_t kind = 0;     ///< Match: the rule kind.
  std::uint32_t value = 0;    ///< Match: the rule value. Action: the rate in Mbps.
};

template <typename Community>
Community Pack(bgp::Asn ixp_asn, const Word& word);

template <>
bgp::ExtendedCommunity Pack(bgp::Asn ixp_asn, const Word& word) {
  return bgp::ExtendedCommunity::TwoOctetAs(word.function, static_cast<std::uint16_t>(ixp_asn),
                                            (word.kind << 24) | word.value);
}

template <>
bgp::LargeCommunity Pack(bgp::Asn ixp_asn, const Word& word) {
  return {ixp_asn, (std::uint32_t{word.function} << 24) | word.kind, word.value};
}

/// The word an extended community carries, if it is a Stellar one. A match
/// keeps the reserved byte in its value, so the 16-bit value check rejects it.
std::optional<Word> Unpack(const bgp::ExtendedCommunity& ec, bgp::Asn ixp_asn) {
  if ((ec.type() & 0x3f) != bgp::ExtendedCommunity::kTypeTwoOctetAs ||
      !bgp::InIxpNamespace(ec, ixp_asn)) {
    return std::nullopt;
  }
  const std::uint32_t admin = ec.local_admin();
  if (ec.subtype() == kStellarMatchSubtype) {
    return Word{kStellarMatchSubtype, admin >> 24, admin & 0x00ffffff};
  }
  if (ec.subtype() == kStellarActionSubtype) return Word{kStellarActionSubtype, 0, admin};
  return std::nullopt;
}

/// The word a large community carries, if it is a Stellar one.
std::optional<Word> Unpack(const bgp::LargeCommunity& lc, bgp::Asn ixp_asn) {
  const std::uint32_t function = lc.data1 >> 24;
  if (!bgp::InIxpNamespace(lc, ixp_asn) ||
      (function != kStellarMatchSubtype && function != kStellarActionSubtype)) {
    return std::nullopt;
  }
  return Word{static_cast<std::uint8_t>(function), lc.data1 & 0x00ffffff, lc.data2};
}

template <typename Community>
util::Result<std::vector<Community>> Encode(bgp::Asn ixp_asn, const Signal& signal) {
  std::vector<Community> out;
  out.reserve(signal.rules.size() + 1);
  for (const auto& rule : signal.rules) {
    out.push_back(Pack<Community>(
        ixp_asn, {kStellarMatchSubtype, static_cast<std::uint8_t>(rule.kind), rule.value}));
  }
  if (signal.shape_rate_mbps.has_value()) {
    auto rate = ValidatedRateMbps(*signal.shape_rate_mbps);
    if (!rate.ok()) return rate.error();
    if (*rate > 0) out.push_back(Pack<Community>(ixp_asn, {kStellarActionSubtype, 0, *rate}));
  }
  return out;
}

/// Adds one word's rule or action to `signal`.
util::Result<void> Add(const Word& word, Signal& signal) {
  if (word.function == kStellarActionSubtype) {
    const auto rate = static_cast<double>(word.value);
    if (signal.shape_rate_mbps.has_value() && *signal.shape_rate_mbps != rate) {
      return util::MakeError(
          "stellar.signal",
          "conflicting action communities (" +
              std::to_string(static_cast<std::uint32_t>(*signal.shape_rate_mbps)) +
              " Mbps vs " + std::to_string(word.value) + " Mbps)");
    }
    signal.shape_rate_mbps = rate;
    return {};
  }
  if (word.kind > static_cast<std::uint32_t>(RuleKind::kPredefined) ||
      (word.kind > 5 && word.kind < 10)) {
    return util::MakeError("stellar.signal", "unknown rule kind " + std::to_string(word.kind));
  }
  if (word.value > 0xffff) {
    return util::MakeError("stellar.signal",
                           "rule value out of 16-bit range (or reserved byte set)");
  }
  signal.rules.push_back(
      {static_cast<RuleKind>(word.kind), static_cast<std::uint16_t>(word.value)});
  return {};
}

/// Adds every Stellar word among `communities` to `signal`; true if there
/// was one.
template <typename Community>
util::Result<bool> Collect(bgp::Asn ixp_asn, std::span<const Community> communities,
                           Signal& signal) {
  bool found = false;
  for (const auto& community : communities) {
    const auto word = Unpack(community, ixp_asn);
    if (!word) continue;
    found = true;
    if (auto added = Add(*word, signal); !added.ok()) return added.error();
  }
  return found;
}

void Normalize(Signal& signal) {
  std::sort(signal.rules.begin(), signal.rules.end());
  signal.rules.erase(std::unique(signal.rules.begin(), signal.rules.end()),
                     signal.rules.end());
}

}  // namespace

std::string_view ToString(RuleKind kind) {
  switch (kind) {
    case RuleKind::kDropAll: return "drop-all";
    case RuleKind::kProtocol: return "protocol";
    case RuleKind::kUdpSrcPort: return "udp-src-port";
    case RuleKind::kUdpDstPort: return "udp-dst-port";
    case RuleKind::kTcpSrcPort: return "tcp-src-port";
    case RuleKind::kTcpDstPort: return "tcp-dst-port";
    case RuleKind::kPredefined: return "predefined";
  }
  return "?";
}

std::string SignalRule::str() const {
  return std::string(ToString(kind)) + ":" + std::to_string(value);
}

util::Result<std::vector<bgp::ExtendedCommunity>> EncodeSignal(std::uint16_t ixp_asn,
                                                               const Signal& signal) {
  return Encode<bgp::ExtendedCommunity>(ixp_asn, signal);
}

util::Result<std::vector<bgp::LargeCommunity>> EncodeSignalLarge(std::uint32_t ixp_asn,
                                                                 const Signal& signal) {
  return Encode<bgp::LargeCommunity>(ixp_asn, signal);
}

util::Result<Signal> DecodeSignal(std::uint16_t ixp_asn,
                                  std::span<const bgp::ExtendedCommunity> ecs) {
  Signal signal;
  if (const auto found = Collect(ixp_asn, ecs, signal); !found.ok()) return found.error();
  Normalize(signal);
  return signal;
}

util::Result<std::optional<Signal>> DecodeRouteSignal(
    bgp::Asn ixp_asn, std::span<const bgp::ExtendedCommunity> ecs,
    std::span<const bgp::LargeCommunity> lcs) {
  Signal signal;
  const auto extended = Collect(ixp_asn, ecs, signal);
  if (!extended.ok()) return extended.error();
  const auto large = Collect(ixp_asn, lcs, signal);
  if (!large.ok()) return large.error();
  if (!*extended && !*large) return std::optional<Signal>();
  Normalize(signal);
  return std::optional<Signal>(std::move(signal));
}

util::Result<filter::MatchCriteria> ToMatchCriteria(const SignalRule& rule,
                                                    const net::Prefix4& victim) {
  filter::MatchCriteria m;
  m.dst_prefix = victim;
  switch (rule.kind) {
    case RuleKind::kDropAll:
      break;
    case RuleKind::kProtocol:
      if (rule.value > 0xff) {
        return util::MakeError("stellar.signal", "protocol value out of range");
      }
      m.proto = static_cast<net::IpProto>(rule.value);
      break;
    case RuleKind::kUdpSrcPort:
      m.proto = net::IpProto::kUdp;
      m.src_port = filter::PortRange::Single(rule.value);
      break;
    case RuleKind::kUdpDstPort:
      m.proto = net::IpProto::kUdp;
      m.dst_port = filter::PortRange::Single(rule.value);
      break;
    case RuleKind::kTcpSrcPort:
      m.proto = net::IpProto::kTcp;
      m.src_port = filter::PortRange::Single(rule.value);
      break;
    case RuleKind::kTcpDstPort:
      m.proto = net::IpProto::kTcp;
      m.dst_port = filter::PortRange::Single(rule.value);
      break;
    case RuleKind::kPredefined:
      return util::MakeError("stellar.signal",
                             "predefined rules must be resolved via the portal");
  }
  return m;
}

}  // namespace stellar::core
