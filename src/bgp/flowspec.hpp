// BGP Flowspec NLRI codec (RFC 5575, "Dissemination of Flow Specification
// Rules"). The paper evaluates Flowspec as an alternative signaling interface
// and rejects it for inter-domain use (§4.2.1); we implement the NLRI format
// so the Flowspec baseline in the comparison harness speaks the real wire
// format. Its traffic-rate action travels beside the NLRI as a value.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "net/flow.hpp"
#include "net/ip.hpp"
#include "util/result.hpp"

namespace stellar::bgp::flowspec {

/// Flowspec component types (RFC 5575 §4).
enum class ComponentType : std::uint8_t {
  kDstPrefix = 1,
  kSrcPrefix = 2,
  kIpProtocol = 3,
  kPort = 4,
  kDstPort = 5,
  kSrcPort = 6,
  kIcmpType = 7,
  kIcmpCode = 8,
  kTcpFlags = 9,
  kPacketLength = 10,
  kDscp = 11,
  kFragment = 12,
};

/// One (operator, value) pair of a numeric-operator list. The end-of-list
/// and length bits are computed by the codec; callers set only the relation.
struct NumericOp {
  bool and_with_previous = false;  ///< AND bit: combine with the previous op.
  bool lt = false;
  bool gt = false;
  bool eq = false;
  std::uint32_t value = 0;

  /// True if `x` satisfies this single relation.
  [[nodiscard]] bool matches(std::uint32_t x) const {
    return (lt && x < value) || (gt && x > value) || (eq && x == value);
  }

  friend bool operator==(const NumericOp&, const NumericOp&) = default;
};

/// Equality op for a value — the common case for ports/protocols.
[[nodiscard]] NumericOp Eq(std::uint32_t value);
/// Inclusive range [lo, hi] expressed as (>= lo) AND (<= hi).
[[nodiscard]] std::vector<NumericOp> Range(std::uint32_t lo, std::uint32_t hi);

struct Component {
  ComponentType type = ComponentType::kDstPrefix;
  // Prefix components use `prefix`; all numeric components use `ops`.
  net::Prefix4 prefix;
  std::vector<NumericOp> ops;

  friend bool operator==(const Component&, const Component&) = default;
};

/// An ordered Flowspec rule (components strictly ascending by type, enforced
/// by the codec on both encode and decode as RFC 5575 requires).
struct Rule {
  std::vector<Component> components;

  /// Evaluates the rule against a flow key (fluid-simulation semantics: the
  /// whole flow matches or not). Numeric op lists follow RFC 5575 §4.2.1.1:
  /// OR of AND-groups.
  [[nodiscard]] bool matches(const net::FlowKey& flow) const;

  friend bool operator==(const Rule&, const Rule&) = default;
};

/// Encodes a rule as one Flowspec NLRI (length header + components).
/// Fails if component types are not strictly ascending.
[[nodiscard]] util::Result<std::vector<std::uint8_t>> EncodeNlri(const Rule& rule);

/// Decodes exactly one NLRI from the front of `data`; returns the rule and
/// bytes consumed.
struct DecodedNlri {
  Rule rule;
  std::size_t consumed = 0;
};
[[nodiscard]] util::Result<DecodedNlri> DecodeNlri(std::span<const std::uint8_t> data);

/// The traffic-rate action attached to a Flowspec rule (RFC 5575 §7).
struct Action {
  /// Rate limit in bytes/s; 0 = drop, nullopt = accept (no rate action).
  std::optional<float> rate_limit_bytes_per_s;
};

}  // namespace stellar::bgp::flowspec
