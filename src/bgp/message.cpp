#include "bgp/message.hpp"

#include <algorithm>
#include <stdexcept>

#include "bgp/wire.hpp"
#include "obs/metrics.hpp"

namespace stellar::bgp {

namespace {

obs::Counter& UpdatesEncoded() {
  static obs::Counter counter = obs::registry().counter(
      "bgp.codec.updates_encoded", "UPDATE messages encoded (one per update group and codec)");
  return counter;
}

obs::Counter& UpdatesDecoded() {
  static obs::Counter counter = obs::registry().counter(
      "bgp.codec.updates_decoded", "UPDATE messages decoded (one per frame and codec)");
  return counter;
}

// Path attribute type codes (IANA).
constexpr std::uint8_t kAttrOrigin = 1;
constexpr std::uint8_t kAttrAsPath = 2;
constexpr std::uint8_t kAttrNextHop = 3;
constexpr std::uint8_t kAttrMed = 4;
constexpr std::uint8_t kAttrLocalPref = 5;
constexpr std::uint8_t kAttrAtomicAggregate = 6;
constexpr std::uint8_t kAttrAggregator = 7;
constexpr std::uint8_t kAttrCommunities = 8;
constexpr std::uint8_t kAttrMpReach = 14;
constexpr std::uint8_t kAttrMpUnreach = 15;
constexpr std::uint8_t kAttrExtendedCommunities = 16;
constexpr std::uint8_t kAttrLargeCommunities = 32;

// Attribute flag bits.
constexpr std::uint8_t kFlagOptional = 0x80;
constexpr std::uint8_t kFlagTransitive = 0x40;
constexpr std::uint8_t kFlagExtendedLength = 0x10;

util::Error CodecError(std::string what) {
  return util::MakeError("bgp.codec", std::move(what));
}

void WritePrefix4(ByteWriter& w, const net::Prefix4& p) {
  w.u8(p.length());
  const std::uint32_t v = p.address().value();
  const int nbytes = (p.length() + 7) / 8;
  for (int i = 0; i < nbytes; ++i) w.u8(static_cast<std::uint8_t>(v >> (24 - 8 * i)));
}

util::Result<net::Prefix4> ReadPrefix4(ByteReader& r) {
  auto len = r.u8();
  if (!len.ok()) return len.error();
  if (*len > 32) return CodecError("IPv4 prefix length " + std::to_string(*len) + " > 32");
  const int nbytes = (*len + 7) / 8;
  std::uint32_t v = 0;
  for (int i = 0; i < nbytes; ++i) {
    auto b = r.u8();
    if (!b.ok()) return b.error();
    v |= std::uint32_t{*b} << (24 - 8 * i);
  }
  return net::Prefix4(net::IPv4Address(v), *len);
}

void WritePrefix6(ByteWriter& w, const net::Prefix6& p) {
  w.u8(p.length());
  const int nbytes = (p.length() + 7) / 8;
  for (int i = 0; i < nbytes; ++i) w.u8(p.address().bytes()[static_cast<std::size_t>(i)]);
}

util::Result<net::Prefix6> ReadPrefix6(ByteReader& r) {
  auto len = r.u8();
  if (!len.ok()) return len.error();
  if (*len > 128) return CodecError("IPv6 prefix length " + std::to_string(*len) + " > 128");
  const int nbytes = (*len + 7) / 8;
  net::IPv6Address::Bytes b{};
  for (int i = 0; i < nbytes; ++i) {
    auto byte = r.u8();
    if (!byte.ok()) return byte.error();
    b[static_cast<std::size_t>(i)] = *byte;
  }
  return net::Prefix6(net::IPv6Address(b), *len);
}

void WriteNlri4(ByteWriter& w, const Nlri4& nlri, const CodecOptions& opts) {
  if (opts.add_path_ipv4_unicast) w.u32(nlri.path_id);
  WritePrefix4(w, nlri.prefix);
}

util::Result<Nlri4> ReadNlri4(ByteReader& r, const CodecOptions& opts) {
  Nlri4 nlri;
  if (opts.add_path_ipv4_unicast) {
    auto id = r.u32();
    if (!id.ok()) return id.error();
    nlri.path_id = *id;
  }
  auto p = ReadPrefix4(r);
  if (!p.ok()) return p.error();
  nlri.prefix = *p;
  return nlri;
}

/// Writes one attribute: flags/type/length computed from the body size.
void WriteAttribute(ByteWriter& w, std::uint8_t flags, std::uint8_t type,
                    const ByteWriter& body) {
  const std::size_t n = body.size();
  if (n > 255) flags |= kFlagExtendedLength;
  w.u8(flags);
  w.u8(type);
  if (flags & kFlagExtendedLength) {
    w.u16(static_cast<std::uint16_t>(n));
  } else {
    w.u8(static_cast<std::uint8_t>(n));
  }
  w.bytes(body.data());
}

void EncodeAttributes(ByteWriter& w, const PathAttributes& attrs, const CodecOptions& opts) {
  if (attrs.origin) {
    ByteWriter body;
    body.u8(static_cast<std::uint8_t>(*attrs.origin));
    WriteAttribute(w, kFlagTransitive, kAttrOrigin, body);
  }
  if (!attrs.as_path.empty() || attrs.origin) {  // AS_PATH is mandatory with ORIGIN.
    ByteWriter body;
    for (const auto& seg : attrs.as_path) {
      body.u8(static_cast<std::uint8_t>(seg.type));
      body.u8(static_cast<std::uint8_t>(seg.asns.size()));
      for (Asn asn : seg.asns) {
        if (opts.four_octet_as) {
          body.u32(asn);
        } else {
          body.u16(asn > 0xffff ? kAsTrans : static_cast<std::uint16_t>(asn));
        }
      }
    }
    WriteAttribute(w, kFlagTransitive, kAttrAsPath, body);
  }
  if (attrs.next_hop) {
    ByteWriter body;
    body.u32(attrs.next_hop->value());
    WriteAttribute(w, kFlagTransitive, kAttrNextHop, body);
  }
  if (attrs.med) {
    ByteWriter body;
    body.u32(*attrs.med);
    WriteAttribute(w, kFlagOptional, kAttrMed, body);
  }
  if (attrs.local_pref) {
    ByteWriter body;
    body.u32(*attrs.local_pref);
    WriteAttribute(w, kFlagTransitive, kAttrLocalPref, body);
  }
  if (attrs.atomic_aggregate) {
    WriteAttribute(w, kFlagTransitive, kAttrAtomicAggregate, ByteWriter{});
  }
  if (attrs.aggregator) {
    ByteWriter body;
    if (opts.four_octet_as) {
      body.u32(attrs.aggregator->first);
    } else {
      body.u16(attrs.aggregator->first > 0xffff
                   ? kAsTrans
                   : static_cast<std::uint16_t>(attrs.aggregator->first));
    }
    body.u32(attrs.aggregator->second.value());
    WriteAttribute(w, kFlagOptional | kFlagTransitive, kAttrAggregator, body);
  }
  if (!attrs.communities.empty()) {
    ByteWriter body;
    for (Community c : attrs.communities) body.u32(c.raw());
    WriteAttribute(w, kFlagOptional | kFlagTransitive, kAttrCommunities, body);
  }
  if (attrs.mp_reach_ipv6) {
    ByteWriter body;
    body.u16(kAfiIPv6);
    body.u8(kSafiUnicast);
    body.u8(16);  // Next-hop length.
    body.bytes(attrs.mp_reach_ipv6->next_hop.bytes());
    body.u8(0);  // Reserved (SNPA count, RFC 4760).
    for (const auto& p : attrs.mp_reach_ipv6->nlri) WritePrefix6(body, p);
    WriteAttribute(w, kFlagOptional, kAttrMpReach, body);
  }
  if (attrs.mp_unreach_ipv6) {
    ByteWriter body;
    body.u16(kAfiIPv6);
    body.u8(kSafiUnicast);
    for (const auto& p : attrs.mp_unreach_ipv6->withdrawn) WritePrefix6(body, p);
    WriteAttribute(w, kFlagOptional, kAttrMpUnreach, body);
  }
  if (!attrs.extended_communities.empty()) {
    ByteWriter body;
    for (const auto& ec : attrs.extended_communities) body.bytes(ec.bytes());
    WriteAttribute(w, kFlagOptional | kFlagTransitive, kAttrExtendedCommunities, body);
  }
  if (!attrs.large_communities.empty()) {
    ByteWriter body;
    for (const auto& lc : attrs.large_communities) {
      body.u32(lc.global_admin);
      body.u32(lc.data1);
      body.u32(lc.data2);
    }
    WriteAttribute(w, kFlagOptional | kFlagTransitive, kAttrLargeCommunities, body);
  }
  for (const auto& opaque : attrs.unrecognized) {
    ByteWriter body;
    body.bytes(opaque.value);
    WriteAttribute(w, opaque.flags, opaque.type, body);
  }
}

util::Result<PathAttributes> DecodeAttributes(ByteReader& r, const CodecOptions& opts) {
  PathAttributes attrs;
  while (!r.empty()) {
    auto flags = r.u8();
    if (!flags.ok()) return flags.error();
    auto type = r.u8();
    if (!type.ok()) return type.error();
    std::size_t len = 0;
    if (*flags & kFlagExtendedLength) {
      auto l = r.u16();
      if (!l.ok()) return l.error();
      len = *l;
    } else {
      auto l = r.u8();
      if (!l.ok()) return l.error();
      len = *l;
    }
    auto body_r = r.sub(len);
    if (!body_r.ok()) {
      return CodecError("attribute " + std::to_string(*type) + " length " + std::to_string(len) +
                        " exceeds remaining bytes");
    }
    ByteReader body = *body_r;

    switch (*type) {
      case kAttrOrigin: {
        auto v = body.u8();
        if (!v.ok()) return v.error();
        if (*v > 2) return CodecError("bad ORIGIN value " + std::to_string(*v));
        attrs.origin = static_cast<Origin>(*v);
        break;
      }
      case kAttrAsPath: {
        while (!body.empty()) {
          auto seg_type = body.u8();
          if (!seg_type.ok()) return seg_type.error();
          if (*seg_type != 1 && *seg_type != 2) {
            return CodecError("bad AS_PATH segment type " + std::to_string(*seg_type));
          }
          auto count = body.u8();
          if (!count.ok()) return count.error();
          AsPathSegment seg;
          seg.type = static_cast<AsPathSegment::Type>(*seg_type);
          for (int i = 0; i < *count; ++i) {
            if (opts.four_octet_as) {
              auto asn = body.u32();
              if (!asn.ok()) return asn.error();
              seg.asns.push_back(*asn);
            } else {
              auto asn = body.u16();
              if (!asn.ok()) return asn.error();
              seg.asns.push_back(*asn);
            }
          }
          attrs.as_path.push_back(std::move(seg));
        }
        break;
      }
      case kAttrNextHop: {
        auto v = body.u32();
        if (!v.ok()) return v.error();
        attrs.next_hop = net::IPv4Address(*v);
        break;
      }
      case kAttrMed: {
        auto v = body.u32();
        if (!v.ok()) return v.error();
        attrs.med = *v;
        break;
      }
      case kAttrLocalPref: {
        auto v = body.u32();
        if (!v.ok()) return v.error();
        attrs.local_pref = *v;
        break;
      }
      case kAttrAtomicAggregate:
        attrs.atomic_aggregate = true;
        break;
      case kAttrAggregator: {
        Asn asn = 0;
        if (opts.four_octet_as) {
          auto a = body.u32();
          if (!a.ok()) return a.error();
          asn = *a;
        } else {
          auto a = body.u16();
          if (!a.ok()) return a.error();
          asn = *a;
        }
        auto ip = body.u32();
        if (!ip.ok()) return ip.error();
        attrs.aggregator = {asn, net::IPv4Address(*ip)};
        break;
      }
      case kAttrCommunities: {
        while (!body.empty()) {
          auto v = body.u32();
          if (!v.ok()) return v.error();
          attrs.communities.emplace_back(*v);
        }
        break;
      }
      case kAttrMpReach: {
        auto afi = body.u16();
        if (!afi.ok()) return afi.error();
        auto safi = body.u8();
        if (!safi.ok()) return safi.error();
        auto nh_len = body.u8();
        if (!nh_len.ok()) return nh_len.error();
        if (*afi != kAfiIPv6 || *safi != kSafiUnicast) {
          return CodecError("unsupported MP_REACH AFI/SAFI " + std::to_string(*afi) + "/" +
                            std::to_string(*safi));
        }
        if (*nh_len != 16 && *nh_len != 32) {
          return CodecError("bad IPv6 next-hop length " + std::to_string(*nh_len));
        }
        auto nh_bytes = body.bytes(*nh_len);
        if (!nh_bytes.ok()) return nh_bytes.error();
        net::IPv6Address::Bytes nh{};
        std::copy_n(nh_bytes->begin(), 16, nh.begin());  // Global address; skip link-local.
        auto reserved = body.u8();
        if (!reserved.ok()) return reserved.error();
        MpReachIPv6 reach;
        reach.next_hop = net::IPv6Address(nh);
        while (!body.empty()) {
          auto p = ReadPrefix6(body);
          if (!p.ok()) return p.error();
          reach.nlri.push_back(*p);
        }
        attrs.mp_reach_ipv6 = std::move(reach);
        break;
      }
      case kAttrMpUnreach: {
        auto afi = body.u16();
        if (!afi.ok()) return afi.error();
        auto safi = body.u8();
        if (!safi.ok()) return safi.error();
        if (*afi != kAfiIPv6 || *safi != kSafiUnicast) {
          return CodecError("unsupported MP_UNREACH AFI/SAFI " + std::to_string(*afi) + "/" +
                            std::to_string(*safi));
        }
        MpUnreachIPv6 unreach;
        while (!body.empty()) {
          auto p = ReadPrefix6(body);
          if (!p.ok()) return p.error();
          unreach.withdrawn.push_back(*p);
        }
        attrs.mp_unreach_ipv6 = std::move(unreach);
        break;
      }
      case kAttrExtendedCommunities: {
        if (len % 8 != 0) return CodecError("EXTENDED_COMMUNITIES length not multiple of 8");
        while (!body.empty()) {
          auto raw = body.bytes(8);
          if (!raw.ok()) return raw.error();
          ExtendedCommunity::Bytes b{};
          std::copy_n(raw->begin(), 8, b.begin());
          attrs.extended_communities.emplace_back(b);
        }
        break;
      }
      case kAttrLargeCommunities: {
        if (len % 12 != 0) return CodecError("LARGE_COMMUNITIES length not multiple of 12");
        while (!body.empty()) {
          LargeCommunity lc;
          auto a = body.u32();
          if (!a.ok()) return a.error();
          auto b = body.u32();
          if (!b.ok()) return b.error();
          auto c = body.u32();
          if (!c.ok()) return c.error();
          lc.global_admin = *a;
          lc.data1 = *b;
          lc.data2 = *c;
          attrs.large_communities.push_back(lc);
        }
        break;
      }
      default: {
        if (!(*flags & kFlagOptional)) {
          return CodecError("unrecognized well-known attribute " + std::to_string(*type));
        }
        OpaqueAttribute opaque;
        opaque.flags = *flags;
        opaque.type = *type;
        auto v = body.bytes(body.remaining());
        if (!v.ok()) return v.error();
        opaque.value = std::move(*v);
        attrs.unrecognized.push_back(std::move(opaque));
        break;
      }
    }
  }
  return attrs;
}

}  // namespace

// ---------------------------------------------------------------------------
// OpenMessage capability helpers.

void OpenMessage::add_four_octet_as_capability() {
  Capability cap;
  cap.code = Capability::kFourOctetAs;
  cap.value = {static_cast<std::uint8_t>(my_asn >> 24), static_cast<std::uint8_t>(my_asn >> 16),
               static_cast<std::uint8_t>(my_asn >> 8), static_cast<std::uint8_t>(my_asn)};
  capabilities.push_back(std::move(cap));
}

void OpenMessage::add_multiprotocol_capability(std::uint16_t afi, std::uint8_t safi) {
  Capability cap;
  cap.code = Capability::kMultiprotocol;
  cap.value = {static_cast<std::uint8_t>(afi >> 8), static_cast<std::uint8_t>(afi), 0, safi};
  capabilities.push_back(std::move(cap));
}

void OpenMessage::add_add_path_capability(std::span<const AddPathTuple> tuples) {
  Capability cap;
  cap.code = Capability::kAddPath;
  for (const auto& t : tuples) {
    cap.value.push_back(static_cast<std::uint8_t>(t.afi >> 8));
    cap.value.push_back(static_cast<std::uint8_t>(t.afi));
    cap.value.push_back(t.safi);
    cap.value.push_back(t.send_receive);
  }
  capabilities.push_back(std::move(cap));
}

std::optional<Asn> OpenMessage::four_octet_asn() const {
  for (const auto& cap : capabilities) {
    if (cap.code == Capability::kFourOctetAs && cap.value.size() == 4) {
      return (std::uint32_t{cap.value[0]} << 24) | (std::uint32_t{cap.value[1]} << 16) |
             (std::uint32_t{cap.value[2]} << 8) | std::uint32_t{cap.value[3]};
    }
  }
  return std::nullopt;
}

std::vector<AddPathTuple> OpenMessage::add_path_tuples() const {
  std::vector<AddPathTuple> out;
  for (const auto& cap : capabilities) {
    if (cap.code != Capability::kAddPath) continue;
    for (std::size_t i = 0; i + 4 <= cap.value.size(); i += 4) {
      AddPathTuple t;
      t.afi = static_cast<std::uint16_t>((cap.value[i] << 8) | cap.value[i + 1]);
      t.safi = cap.value[i + 2];
      t.send_receive = cap.value[i + 3];
      out.push_back(t);
    }
  }
  return out;
}

bool OpenMessage::supports_multiprotocol(std::uint16_t afi, std::uint8_t safi) const {
  for (const auto& cap : capabilities) {
    if (cap.code == Capability::kMultiprotocol && cap.value.size() == 4 &&
        static_cast<std::uint16_t>((cap.value[0] << 8) | cap.value[1]) == afi &&
        cap.value[3] == safi) {
      return true;
    }
  }
  return false;
}

Asn OpenMessage::effective_asn() const { return four_octet_asn().value_or(my_asn); }

// ---------------------------------------------------------------------------
// PathAttributes helpers.

std::size_t PathAttributes::as_path_length() const {
  std::size_t n = 0;
  for (const auto& seg : as_path) {
    // RFC 4271 §9.1.2.2: an AS_SET counts as one hop.
    n += seg.type == AsPathSegment::Type::kSet ? 1 : seg.asns.size();
  }
  return n;
}

std::optional<Asn> PathAttributes::origin_asn() const {
  for (auto it = as_path.rbegin(); it != as_path.rend(); ++it) {
    if (it->type == AsPathSegment::Type::kSequence && !it->asns.empty()) return it->asns.back();
  }
  return std::nullopt;
}

bool PathAttributes::has_community(Community c) const {
  return std::find(communities.begin(), communities.end(), c) != communities.end();
}

void PathAttributes::add_community(Community c) {
  if (!has_community(c)) communities.push_back(c);
}

// ---------------------------------------------------------------------------
// Message encode/decode.

namespace {

template <typename T>
constexpr MessageType TypeOfAlternative() {
  if constexpr (std::is_same_v<T, OpenMessage>) return MessageType::kOpen;
  else if constexpr (std::is_same_v<T, UpdateMessage>) return MessageType::kUpdate;
  else if constexpr (std::is_same_v<T, NotificationMessage>) return MessageType::kNotification;
  else if constexpr (std::is_same_v<T, RouteRefreshMessage>) return MessageType::kRouteRefresh;
  else return MessageType::kKeepalive;
}

template <typename T>
std::vector<std::uint8_t> EncodeAlternative(const T& m, const CodecOptions& opts) {
  ByteWriter w;
  for (int i = 0; i < 16; ++i) w.u8(0xff);  // Marker.
  w.u16(0);                                 // Length, patched below.
  w.u8(static_cast<std::uint8_t>(TypeOfAlternative<T>()));

  if constexpr (std::is_same_v<T, OpenMessage>) {
    w.u8(m.version);
    w.u16(m.my_asn > 0xffff ? kAsTrans : static_cast<std::uint16_t>(m.my_asn));
    w.u16(m.hold_time_s);
    w.u32(m.bgp_identifier.value());
    ByteWriter params;
    for (const auto& cap : m.capabilities) {
      // Each capability in its own parameter (type 2), common practice.
      params.u8(2);
      params.u8(static_cast<std::uint8_t>(cap.value.size() + 2));
      params.u8(cap.code);
      params.u8(static_cast<std::uint8_t>(cap.value.size()));
      params.bytes(cap.value);
    }
    w.u8(static_cast<std::uint8_t>(params.size()));
    w.bytes(params.data());
  } else if constexpr (std::is_same_v<T, UpdateMessage>) {
    ByteWriter withdrawn;
    for (const auto& n : m.withdrawn) WriteNlri4(withdrawn, n, opts);
    w.u16(static_cast<std::uint16_t>(withdrawn.size()));
    w.bytes(withdrawn.data());
    ByteWriter attrs;
    EncodeAttributes(attrs, m.attrs, opts);
    w.u16(static_cast<std::uint16_t>(attrs.size()));
    w.bytes(attrs.data());
    for (const auto& n : m.announced) WriteNlri4(w, n, opts);
    UpdatesEncoded().inc();
  } else if constexpr (std::is_same_v<T, NotificationMessage>) {
    w.u8(static_cast<std::uint8_t>(m.code));
    w.u8(m.subcode);
    w.bytes(m.data);
  } else if constexpr (std::is_same_v<T, RouteRefreshMessage>) {
    w.u16(m.afi);
    w.u8(0);  // Reserved (RFC 2918 §3).
    w.u8(m.safi);
  }
  // Keepalive: header only.

  if (w.size() > kMaxMessageSize) {
    throw std::length_error("BGP message exceeds 4096 bytes; split the update");
  }
  w.patch_u16(16, static_cast<std::uint16_t>(w.size()));
  return w.take();
}

}  // namespace

MessageType TypeOf(const Message& msg) {
  return std::visit(
      [](const auto& m) { return TypeOfAlternative<std::decay_t<decltype(m)>>(); }, msg);
}

std::vector<std::uint8_t> Encode(const Message& msg, const CodecOptions& opts) {
  return std::visit([&](const auto& m) { return EncodeAlternative(m, opts); }, msg);
}
std::vector<std::uint8_t> Encode(const OpenMessage& msg, const CodecOptions& opts) {
  return EncodeAlternative(msg, opts);
}
std::vector<std::uint8_t> Encode(const UpdateMessage& msg, const CodecOptions& opts) {
  return EncodeAlternative(msg, opts);
}
std::vector<std::uint8_t> Encode(const NotificationMessage& msg, const CodecOptions& opts) {
  return EncodeAlternative(msg, opts);
}
std::vector<std::uint8_t> Encode(const KeepaliveMessage& msg, const CodecOptions& opts) {
  return EncodeAlternative(msg, opts);
}
std::vector<std::uint8_t> Encode(const RouteRefreshMessage& msg, const CodecOptions& opts) {
  return EncodeAlternative(msg, opts);
}

util::Result<Message> Decode(std::span<const std::uint8_t> data, const CodecOptions& opts) {
  auto framed = DecodeFramed(data, opts);
  if (!framed.ok()) return framed.error();
  if (!framed->message) return CodecError("incomplete message");
  if (framed->consumed != data.size()) {
    return CodecError("trailing bytes after message: " +
                      std::to_string(data.size() - framed->consumed));
  }
  return std::move(*framed->message);
}

util::Result<FramedMessage> DecodeFramed(std::span<const std::uint8_t> data,
                                         const CodecOptions& opts) {
  if (data.size() < kHeaderSize) return FramedMessage{};
  for (int i = 0; i < 16; ++i) {
    if (data[static_cast<std::size_t>(i)] != 0xff) return CodecError("bad marker");
  }
  const std::size_t length = (std::size_t{data[16]} << 8) | data[17];
  if (length < kHeaderSize || length > kMaxMessageSize) {
    return CodecError("bad message length " + std::to_string(length));
  }
  if (data.size() < length) return FramedMessage{};

  const std::uint8_t type = data[18];
  ByteReader r(data.subspan(kHeaderSize, length - kHeaderSize));
  FramedMessage out;
  out.consumed = length;

  switch (static_cast<MessageType>(type)) {
    case MessageType::kOpen: {
      OpenMessage m;
      auto version = r.u8();
      if (!version.ok()) return version.error();
      m.version = *version;
      auto asn = r.u16();
      if (!asn.ok()) return asn.error();
      m.my_asn = *asn;
      auto hold = r.u16();
      if (!hold.ok()) return hold.error();
      m.hold_time_s = *hold;
      auto id = r.u32();
      if (!id.ok()) return id.error();
      m.bgp_identifier = net::IPv4Address(*id);
      auto params_len = r.u8();
      if (!params_len.ok()) return params_len.error();
      auto params_r = r.sub(*params_len);
      if (!params_r.ok()) return params_r.error();
      ByteReader params = *params_r;
      while (!params.empty()) {
        auto ptype = params.u8();
        if (!ptype.ok()) return ptype.error();
        auto plen = params.u8();
        if (!plen.ok()) return plen.error();
        auto pbody_r = params.sub(*plen);
        if (!pbody_r.ok()) return pbody_r.error();
        if (*ptype != 2) continue;  // Skip non-capability parameters.
        ByteReader pbody = *pbody_r;
        while (!pbody.empty()) {
          Capability cap;
          auto code = pbody.u8();
          if (!code.ok()) return code.error();
          auto clen = pbody.u8();
          if (!clen.ok()) return clen.error();
          auto cval = pbody.bytes(*clen);
          if (!cval.ok()) return cval.error();
          cap.code = *code;
          cap.value = std::move(*cval);
          m.capabilities.push_back(std::move(cap));
        }
      }
      if (!r.empty()) return CodecError("trailing bytes in OPEN");
      // Surface the effective (possibly 4-octet) ASN in my_asn for callers.
      m.my_asn = m.effective_asn();
      out.message = std::move(m);
      break;
    }
    case MessageType::kUpdate: {
      UpdateMessage m;
      auto wlen = r.u16();
      if (!wlen.ok()) return wlen.error();
      auto wd_r = r.sub(*wlen);
      if (!wd_r.ok()) return CodecError("withdrawn routes length exceeds message");
      ByteReader wd = *wd_r;
      while (!wd.empty()) {
        auto n = ReadNlri4(wd, opts);
        if (!n.ok()) return n.error();
        m.withdrawn.push_back(*n);
      }
      auto alen = r.u16();
      if (!alen.ok()) return alen.error();
      auto attrs_r = r.sub(*alen);
      if (!attrs_r.ok()) return CodecError("attributes length exceeds message");
      ByteReader attrs = *attrs_r;
      auto decoded = DecodeAttributes(attrs, opts);
      if (!decoded.ok()) return decoded.error();
      m.attrs = std::move(*decoded);
      while (!r.empty()) {
        auto n = ReadNlri4(r, opts);
        if (!n.ok()) return n.error();
        m.announced.push_back(*n);
      }
      UpdatesDecoded().inc();
      out.message = std::move(m);
      break;
    }
    case MessageType::kNotification: {
      NotificationMessage m;
      auto code = r.u8();
      if (!code.ok()) return code.error();
      auto subcode = r.u8();
      if (!subcode.ok()) return subcode.error();
      m.code = static_cast<NotificationCode>(*code);
      m.subcode = *subcode;
      auto rest = r.bytes(r.remaining());
      if (!rest.ok()) return rest.error();
      m.data = std::move(*rest);
      out.message = std::move(m);
      break;
    }
    case MessageType::kKeepalive: {
      if (!r.empty()) return CodecError("KEEPALIVE with body");
      out.message = KeepaliveMessage{};
      break;
    }
    case MessageType::kRouteRefresh: {
      RouteRefreshMessage m;
      auto afi = r.u16();
      if (!afi.ok()) return afi.error();
      auto reserved = r.u8();
      if (!reserved.ok()) return reserved.error();
      auto safi = r.u8();
      if (!safi.ok()) return safi.error();
      if (!r.empty()) return CodecError("trailing bytes in ROUTE-REFRESH");
      m.afi = *afi;
      m.safi = *safi;
      out.message = m;
      break;
    }
    default:
      return CodecError("unknown message type " + std::to_string(type));
  }
  return out;
}

}  // namespace stellar::bgp
