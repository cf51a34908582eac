#include "bgp/flowspec.hpp"

#include <algorithm>

#include "bgp/wire.hpp"

namespace stellar::bgp::flowspec {

namespace {

util::Error FsError(std::string what) { return util::MakeError("bgp.flowspec", std::move(what)); }

// Value length encoding: the two "len" bits hold log2 of the byte count.
int ValueByteCount(std::uint32_t v) {
  if (v <= 0xff) return 1;
  if (v <= 0xffff) return 2;
  return 4;
}

bool IsNumeric(ComponentType t) {
  return t != ComponentType::kDstPrefix && t != ComponentType::kSrcPrefix;
}

}  // namespace

NumericOp Eq(std::uint32_t value) {
  NumericOp op;
  op.eq = true;
  op.value = value;
  return op;
}

std::vector<NumericOp> Range(std::uint32_t lo, std::uint32_t hi) {
  NumericOp ge;
  ge.gt = true;
  ge.eq = true;
  ge.value = lo;
  NumericOp le;
  le.lt = true;
  le.eq = true;
  le.value = hi;
  le.and_with_previous = true;
  return {ge, le};
}

namespace {

// RFC 5575 §4.2.1.1: the op list is an OR of AND-groups; an AND bit chains
// an op to its predecessor.
bool OpsMatch(const std::vector<NumericOp>& ops, std::uint32_t x) {
  bool any_group = false;
  bool group_ok = true;
  bool in_group = false;
  for (const auto& op : ops) {
    if (!op.and_with_previous && in_group) {
      any_group = any_group || group_ok;
      group_ok = true;
    }
    group_ok = group_ok && op.matches(x);
    in_group = true;
  }
  if (in_group) any_group = any_group || group_ok;
  return any_group;
}

}  // namespace

bool Rule::matches(const net::FlowKey& flow) const {
  for (const auto& c : components) {
    switch (c.type) {
      case ComponentType::kDstPrefix:
        if (!c.prefix.contains(flow.dst_ip)) return false;
        break;
      case ComponentType::kSrcPrefix:
        if (!c.prefix.contains(flow.src_ip)) return false;
        break;
      case ComponentType::kIpProtocol:
        if (!OpsMatch(c.ops, static_cast<std::uint32_t>(flow.proto))) return false;
        break;
      case ComponentType::kPort:
        if (!OpsMatch(c.ops, flow.src_port) && !OpsMatch(c.ops, flow.dst_port)) return false;
        break;
      case ComponentType::kDstPort:
        if (!OpsMatch(c.ops, flow.dst_port)) return false;
        break;
      case ComponentType::kSrcPort:
        if (!OpsMatch(c.ops, flow.src_port)) return false;
        break;
      default:
        // Components without a fluid-simulation equivalent (TCP flags, packet
        // length, fragments) are treated as non-matching to stay conservative.
        return false;
    }
  }
  return !components.empty();
}

util::Result<std::vector<std::uint8_t>> EncodeNlri(const Rule& rule) {
  if (rule.components.empty()) return FsError("empty rule");
  for (std::size_t i = 1; i < rule.components.size(); ++i) {
    if (rule.components[i].type <= rule.components[i - 1].type) {
      return FsError("component types must be strictly ascending");
    }
  }

  ByteWriter body;
  for (const auto& c : rule.components) {
    body.u8(static_cast<std::uint8_t>(c.type));
    if (!IsNumeric(c.type)) {
      body.u8(c.prefix.length());
      const std::uint32_t v = c.prefix.address().value();
      const int nbytes = (c.prefix.length() + 7) / 8;
      for (int i = 0; i < nbytes; ++i) body.u8(static_cast<std::uint8_t>(v >> (24 - 8 * i)));
      continue;
    }
    if (c.ops.empty()) return FsError("numeric component without operators");
    for (std::size_t i = 0; i < c.ops.size(); ++i) {
      const NumericOp& op = c.ops[i];
      const int nbytes = ValueByteCount(op.value);
      const int len_bits = nbytes == 1 ? 0 : nbytes == 2 ? 1 : 2;
      std::uint8_t op_byte = 0;
      if (i + 1 == c.ops.size()) op_byte |= 0x80;  // End-of-list.
      if (op.and_with_previous) op_byte |= 0x40;
      op_byte |= static_cast<std::uint8_t>(len_bits << 4);
      if (op.lt) op_byte |= 0x04;
      if (op.gt) op_byte |= 0x02;
      if (op.eq) op_byte |= 0x01;
      body.u8(op_byte);
      for (int b = nbytes - 1; b >= 0; --b) body.u8(static_cast<std::uint8_t>(op.value >> (8 * b)));
    }
  }

  ByteWriter out;
  // RFC 5575 §4: lengths < 240 use one byte; larger use 0xFn nn.
  if (body.size() < 240) {
    out.u8(static_cast<std::uint8_t>(body.size()));
  } else if (body.size() < 4096) {
    out.u16(static_cast<std::uint16_t>(0xf000 | body.size()));
  } else {
    return FsError("NLRI too large");
  }
  out.bytes(body.data());
  return out.take();
}

util::Result<DecodedNlri> DecodeNlri(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  auto first = r.u8();
  if (!first.ok()) return first.error();
  std::size_t length = *first;
  if (*first >= 0xf0) {
    auto second = r.u8();
    if (!second.ok()) return second.error();
    length = ((*first & 0x0f) << 8) | *second;
  }
  auto body_r = r.sub(length);
  if (!body_r.ok()) return FsError("NLRI length exceeds buffer");
  ByteReader body = *body_r;

  DecodedNlri out;
  out.consumed = r.position();
  int last_type = 0;
  while (!body.empty()) {
    auto type = body.u8();
    if (!type.ok()) return type.error();
    if (*type <= last_type) return FsError("component types must be strictly ascending");
    last_type = *type;
    Component c;
    c.type = static_cast<ComponentType>(*type);
    if (!IsNumeric(c.type)) {
      auto len = body.u8();
      if (!len.ok()) return len.error();
      if (*len > 32) return FsError("bad prefix length");
      std::uint32_t v = 0;
      const int nbytes = (*len + 7) / 8;
      for (int i = 0; i < nbytes; ++i) {
        auto b = body.u8();
        if (!b.ok()) return b.error();
        v |= std::uint32_t{*b} << (24 - 8 * i);
      }
      c.prefix = net::Prefix4(net::IPv4Address(v), *len);
    } else {
      bool end = false;
      while (!end) {
        auto op_byte = body.u8();
        if (!op_byte.ok()) return FsError("truncated operator list");
        end = (*op_byte & 0x80) != 0;
        NumericOp op;
        op.and_with_previous = (*op_byte & 0x40) != 0;
        op.lt = (*op_byte & 0x04) != 0;
        op.gt = (*op_byte & 0x02) != 0;
        op.eq = (*op_byte & 0x01) != 0;
        const int nbytes = 1 << ((*op_byte >> 4) & 0x03);
        if (nbytes > 4) return FsError("8-byte operands not supported");
        std::uint32_t v = 0;
        for (int i = 0; i < nbytes; ++i) {
          auto b = body.u8();
          if (!b.ok()) return b.error();
          v = (v << 8) | *b;
        }
        op.value = v;
        c.ops.push_back(op);
      }
    }
    out.rule.components.push_back(std::move(c));
  }
  return out;
}

}  // namespace stellar::bgp::flowspec
