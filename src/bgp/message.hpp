// BGP-4 message model and wire codec (RFC 4271), with the extensions Stellar
// depends on:
//   - 4-octet AS numbers (RFC 6793),
//   - ADD-PATH (RFC 7911) — the blackholing controller's iBGP session uses it
//     to see *all* paths for a prefix, bypassing route-server best-path,
//   - standard communities (RFC 1997), extended communities (RFC 4360),
//     large communities (RFC 8092),
//   - MP_REACH/MP_UNREACH (RFC 4760) for IPv6 unicast NLRI.
//
// Encode/Decode are pure functions over byte buffers; session framing lives
// in session.cpp. Decoding is strict about structure but tolerant about
// unknown optional-transitive attributes (kept as opaque bytes), matching
// how real route servers behave.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bgp/types.hpp"
#include "net/ip.hpp"
#include "util/result.hpp"

namespace stellar::bgp {

enum class MessageType : std::uint8_t {
  kOpen = 1,
  kUpdate = 2,
  kNotification = 3,
  kKeepalive = 4,
  kRouteRefresh = 5,  ///< RFC 2918.
};

/// Notification error codes (RFC 4271 §6.1).
enum class NotificationCode : std::uint8_t {
  kMessageHeaderError = 1,
  kOpenMessageError = 2,
  kUpdateMessageError = 3,
  kHoldTimerExpired = 4,
  kFsmError = 5,
  kCease = 6,
};

/// Address family identifiers used here.
inline constexpr std::uint16_t kAfiIPv4 = 1;
inline constexpr std::uint16_t kAfiIPv6 = 2;
inline constexpr std::uint8_t kSafiUnicast = 1;
inline constexpr std::uint8_t kSafiFlowspec = 133;  ///< RFC 5575.

/// A BGP capability (RFC 5492), stored raw with typed accessors for the ones
/// the system understands.
struct Capability {
  static constexpr std::uint8_t kMultiprotocol = 1;   ///< RFC 4760
  static constexpr std::uint8_t kRouteRefresh = 2;    ///< RFC 2918
  static constexpr std::uint8_t kFourOctetAs = 65;    ///< RFC 6793
  static constexpr std::uint8_t kAddPath = 69;        ///< RFC 7911

  std::uint8_t code = 0;
  std::vector<std::uint8_t> value;

  friend bool operator==(const Capability&, const Capability&) = default;
};

/// ADD-PATH per-AFI/SAFI negotiation element (RFC 7911 §4).
struct AddPathTuple {
  std::uint16_t afi = kAfiIPv4;
  std::uint8_t safi = kSafiUnicast;
  std::uint8_t send_receive = 0;  ///< 1 = receive, 2 = send, 3 = both.

  friend bool operator==(const AddPathTuple&, const AddPathTuple&) = default;
};

struct OpenMessage {
  std::uint8_t version = 4;
  Asn my_asn = 0;  ///< Full 4-octet ASN; the wire carries AS_TRANS + capability 65 when > 65535.
  std::uint16_t hold_time_s = 90;
  net::IPv4Address bgp_identifier;
  std::vector<Capability> capabilities;

  // -- Capability construction helpers --------------------------------------
  void add_four_octet_as_capability();
  void add_multiprotocol_capability(std::uint16_t afi, std::uint8_t safi);
  void add_add_path_capability(std::span<const AddPathTuple> tuples);

  // -- Capability query helpers ----------------------------------------------
  [[nodiscard]] std::optional<Asn> four_octet_asn() const;
  [[nodiscard]] std::vector<AddPathTuple> add_path_tuples() const;
  [[nodiscard]] bool supports_multiprotocol(std::uint16_t afi, std::uint8_t safi) const;

  /// The ASN this OPEN effectively announces (capability 65 wins over the
  /// 2-octet field).
  [[nodiscard]] Asn effective_asn() const;

  friend bool operator==(const OpenMessage&, const OpenMessage&) = default;
};

/// One AS_PATH segment (RFC 4271 §4.3: AS_SET=1 or AS_SEQUENCE=2).
struct AsPathSegment {
  enum class Type : std::uint8_t { kSet = 1, kSequence = 2 };
  Type type = Type::kSequence;
  std::vector<Asn> asns;

  friend bool operator==(const AsPathSegment&, const AsPathSegment&) = default;
};

/// An unrecognized optional-transitive attribute carried through verbatim.
struct OpaqueAttribute {
  std::uint8_t flags = 0;
  std::uint8_t type = 0;
  std::vector<std::uint8_t> value;

  friend bool operator==(const OpaqueAttribute&, const OpaqueAttribute&) = default;
};

/// IPv6 unicast reachability carried in MP_REACH/MP_UNREACH (RFC 4760).
struct MpReachIPv6 {
  net::IPv6Address next_hop;
  std::vector<net::Prefix6> nlri;

  friend bool operator==(const MpReachIPv6&, const MpReachIPv6&) = default;
};
struct MpUnreachIPv6 {
  std::vector<net::Prefix6> withdrawn;

  friend bool operator==(const MpUnreachIPv6&, const MpUnreachIPv6&) = default;
};

/// The decoded path attributes of an UPDATE.
struct PathAttributes {
  std::optional<Origin> origin;
  std::vector<AsPathSegment> as_path;
  std::optional<net::IPv4Address> next_hop;
  std::optional<std::uint32_t> med;
  std::optional<std::uint32_t> local_pref;
  bool atomic_aggregate = false;
  std::optional<std::pair<Asn, net::IPv4Address>> aggregator;
  std::vector<Community> communities;
  std::vector<ExtendedCommunity> extended_communities;
  std::vector<LargeCommunity> large_communities;
  std::optional<MpReachIPv6> mp_reach_ipv6;
  std::optional<MpUnreachIPv6> mp_unreach_ipv6;
  std::vector<OpaqueAttribute> unrecognized;

  [[nodiscard]] std::size_t as_path_length() const;
  [[nodiscard]] std::optional<Asn> origin_asn() const;  ///< Rightmost ASN of the path.
  [[nodiscard]] bool has_community(Community c) const;
  void add_community(Community c);           ///< Idempotent.

  friend bool operator==(const PathAttributes&, const PathAttributes&) = default;
};

/// IPv4 NLRI element; `path_id` is meaningful only on sessions where ADD-PATH
/// was negotiated for IPv4 unicast (the codec is told via CodecOptions).
struct Nlri4 {
  PathId path_id = 0;
  net::Prefix4 prefix;

  friend auto operator<=>(const Nlri4&, const Nlri4&) = default;
};

struct UpdateMessage {
  std::vector<Nlri4> withdrawn;
  PathAttributes attrs;
  std::vector<Nlri4> announced;

  [[nodiscard]] bool is_end_of_rib() const {
    return withdrawn.empty() && announced.empty() && attrs == PathAttributes{};
  }

  friend bool operator==(const UpdateMessage&, const UpdateMessage&) = default;
};

struct NotificationMessage {
  NotificationCode code = NotificationCode::kCease;
  std::uint8_t subcode = 0;
  std::vector<std::uint8_t> data;

  friend bool operator==(const NotificationMessage&, const NotificationMessage&) = default;
};

struct KeepaliveMessage {
  friend bool operator==(const KeepaliveMessage&, const KeepaliveMessage&) = default;
};

/// ROUTE-REFRESH (RFC 2918): asks the peer to re-advertise its Adj-RIB-Out
/// for one AFI/SAFI. This is how a member that fixed its import policy (e.g.
/// enabled /32 blackhole acceptance, the paper's §2.4 remediation) recovers
/// the routes it previously filtered, without a session reset.
struct RouteRefreshMessage {
  std::uint16_t afi = kAfiIPv4;
  std::uint8_t safi = kSafiUnicast;

  friend bool operator==(const RouteRefreshMessage&, const RouteRefreshMessage&) = default;
};

using Message = std::variant<OpenMessage, UpdateMessage, NotificationMessage, KeepaliveMessage,
                             RouteRefreshMessage>;

[[nodiscard]] MessageType TypeOf(const Message& msg);

/// Session-dependent codec state: both sides must agree (negotiated in OPEN).
struct CodecOptions {
  bool add_path_ipv4_unicast = false;  ///< 4-byte path ids precede IPv4 NLRI.
  bool four_octet_as = true;           ///< AS_PATH carries 4-byte ASNs.

  friend bool operator==(const CodecOptions&, const CodecOptions&) = default;
};

/// Serializes one message including the 19-byte header. Never fails: the
/// message model cannot represent invalid messages, and oversized updates are
/// a caller bug (checked: throws std::length_error past 4096 bytes).
/// Each UPDATE encoded counts once in the obs counter
/// bgp.codec.updates_encoded, and each UPDATE DecodeFramed decodes counts
/// once in bgp.codec.updates_decoded: exact work counts, the same per seed
/// on any host.
[[nodiscard]] std::vector<std::uint8_t> Encode(const Message& msg,
                                               const CodecOptions& opts = {});
/// The same for one alternative, without copying it into a Message.
[[nodiscard]] std::vector<std::uint8_t> Encode(const OpenMessage& msg,
                                               const CodecOptions& opts = {});
[[nodiscard]] std::vector<std::uint8_t> Encode(const UpdateMessage& msg,
                                               const CodecOptions& opts = {});
[[nodiscard]] std::vector<std::uint8_t> Encode(const NotificationMessage& msg,
                                               const CodecOptions& opts = {});
[[nodiscard]] std::vector<std::uint8_t> Encode(const KeepaliveMessage& msg,
                                               const CodecOptions& opts = {});
[[nodiscard]] std::vector<std::uint8_t> Encode(const RouteRefreshMessage& msg,
                                               const CodecOptions& opts = {});

/// Decodes exactly one whole message from `data` (must contain exactly one).
[[nodiscard]] util::Result<Message> Decode(std::span<const std::uint8_t> data,
                                           const CodecOptions& opts = {});

/// Stream framing: if `data` starts with a complete message, decodes it and
/// returns the number of bytes consumed; returns 0 consumed if more bytes are
/// needed. Errors indicate an unrecoverable framing problem.
struct FramedMessage {
  std::optional<Message> message;  ///< nullopt => need more data.
  std::size_t consumed = 0;
};
[[nodiscard]] util::Result<FramedMessage> DecodeFramed(std::span<const std::uint8_t> data,
                                                       const CodecOptions& opts = {});

inline constexpr std::size_t kHeaderSize = 19;
inline constexpr std::size_t kMaxMessageSize = 4096;

}  // namespace stellar::bgp
