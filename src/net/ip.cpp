#include "net/ip.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <vector>

namespace stellar::net {

namespace {

util::Error ParseError(std::string_view what, std::string_view text) {
  return util::MakeError("net.parse", std::string(what) + ": '" + std::string(text) + "'");
}

// Parses a decimal integer in [0, max]; advances `text` past it.
bool ConsumeDecimal(std::string_view& text, unsigned max, unsigned& out) {
  std::size_t i = 0;
  unsigned value = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<unsigned>(text[i] - '0');
    if (value > max) return false;
    ++i;
    if (i > 10) return false;  // Absurdly long digit run.
  }
  if (i == 0) return false;
  text.remove_prefix(i);
  out = value;
  return true;
}

}  // namespace

util::Result<IPv4Address> IPv4Address::Parse(std::string_view text) {
  std::string_view rest = text;
  std::uint32_t value = 0;
  for (int octet = 0; octet < 4; ++octet) {
    if (octet != 0) {
      if (rest.empty() || rest.front() != '.') return ParseError("bad IPv4 address", text);
      rest.remove_prefix(1);
    }
    unsigned v = 0;
    if (!ConsumeDecimal(rest, 255, v)) return ParseError("bad IPv4 address", text);
    value = (value << 8) | v;
  }
  if (!rest.empty()) return ParseError("trailing characters in IPv4 address", text);
  return IPv4Address(value);
}

std::string IPv4Address::str() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (value_ >> 24) & 0xff, (value_ >> 16) & 0xff,
                (value_ >> 8) & 0xff, value_ & 0xff);
  return buf;
}

util::Result<IPv6Address> IPv6Address::Parse(std::string_view text) {
  // Split on "::" first; each side is a ':'-separated list of hextets, where
  // the final element of the full address may be an embedded IPv4 address.
  const auto gap = text.find("::");
  if (gap != std::string_view::npos && text.find("::", gap + 1) != std::string_view::npos) {
    return ParseError("multiple '::' in IPv6 address", text);
  }

  auto parse_groups = [&](std::string_view part,
                          std::vector<std::uint16_t>& out) -> bool {
    if (part.empty()) return true;
    while (true) {
      const auto colon = part.find(':');
      std::string_view tok = part.substr(0, colon);
      if (tok.empty()) return false;
      // Embedded IPv4 allowed only as the last token.
      if (tok.find('.') != std::string_view::npos) {
        if (colon != std::string_view::npos) return false;
        auto v4 = IPv4Address::Parse(tok);
        if (!v4.ok()) return false;
        out.push_back(static_cast<std::uint16_t>(v4->value() >> 16));
        out.push_back(static_cast<std::uint16_t>(v4->value() & 0xffff));
        return true;
      }
      if (tok.size() > 4) return false;
      unsigned v = 0;
      for (char c : tok) {
        if (c >= '0' && c <= '9') v = v * 16 + static_cast<unsigned>(c - '0');
        else if (c >= 'a' && c <= 'f') v = v * 16 + static_cast<unsigned>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F') v = v * 16 + static_cast<unsigned>(c - 'A' + 10);
        else return false;
      }
      out.push_back(static_cast<std::uint16_t>(v));
      if (colon == std::string_view::npos) return true;
      part.remove_prefix(colon + 1);
    }
  };

  std::vector<std::uint16_t> head;
  std::vector<std::uint16_t> tail;
  if (gap == std::string_view::npos) {
    if (!parse_groups(text, head) || head.size() != 8) {
      return ParseError("bad IPv6 address", text);
    }
  } else {
    if (!parse_groups(text.substr(0, gap), head) ||
        !parse_groups(text.substr(gap + 2), tail) || head.size() + tail.size() > 7) {
      return ParseError("bad IPv6 address", text);
    }
  }

  Bytes bytes{};
  for (std::size_t i = 0; i < head.size(); ++i) {
    bytes[2 * i] = static_cast<std::uint8_t>(head[i] >> 8);
    bytes[2 * i + 1] = static_cast<std::uint8_t>(head[i] & 0xff);
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    const std::size_t g = 8 - tail.size() + i;
    bytes[2 * g] = static_cast<std::uint8_t>(tail[i] >> 8);
    bytes[2 * g + 1] = static_cast<std::uint8_t>(tail[i] & 0xff);
  }
  return IPv6Address(bytes);
}

std::string IPv6Address::str() const {
  // RFC 5952: compress the longest run of >= 2 zero hextets (leftmost on tie).
  int best_start = -1;
  int best_len = 0;
  for (int i = 0; i < 8;) {
    if (hextet(static_cast<std::size_t>(i)) != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && hextet(static_cast<std::size_t>(j)) == 0) ++j;
    if (j - i > best_len) {
      best_len = j - i;
      best_start = i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      if (i == 8) return out;
      continue;
    }
    if (i != 0 && (best_start < 0 || i != best_start + best_len)) out += ':';
    char buf[8];
    std::snprintf(buf, sizeof buf, "%x", hextet(static_cast<std::size_t>(i)));
    out += buf;
    ++i;
  }
  return out;
}

Prefix4::Prefix4(IPv4Address addr, std::uint8_t length) : length_(length) {
  if (length > 32) throw std::invalid_argument("Prefix4: length > 32");
  addr_ = IPv4Address(addr.value() & mask());
}

util::Result<Prefix4> Prefix4::Parse(std::string_view text) {
  const auto slash = text.find('/');
  const std::string_view addr_part = text.substr(0, slash);
  auto addr = IPv4Address::Parse(addr_part);
  if (!addr.ok()) return addr.error();
  unsigned len = 32;
  if (slash != std::string_view::npos) {
    std::string_view len_part = text.substr(slash + 1);
    if (!ConsumeDecimal(len_part, 32, len) || !len_part.empty()) {
      return ParseError("bad prefix length", text);
    }
  }
  return Prefix4(*addr, static_cast<std::uint8_t>(len));
}

std::string Prefix4::str() const { return addr_.str() + "/" + std::to_string(length_); }

Prefix6::Prefix6(IPv6Address addr, std::uint8_t length) : length_(length) {
  if (length > 128) throw std::invalid_argument("Prefix6: length > 128");
  IPv6Address::Bytes b = addr.bytes();
  for (int i = 0; i < 16; ++i) {
    const int bits = std::clamp(static_cast<int>(length) - 8 * i, 0, 8);
    const std::uint8_t m = bits == 0 ? 0 : static_cast<std::uint8_t>(0xff << (8 - bits));
    b[static_cast<std::size_t>(i)] &= m;
  }
  addr_ = IPv6Address(b);
}

util::Result<Prefix6> Prefix6::Parse(std::string_view text) {
  const auto slash = text.find('/');
  auto addr = IPv6Address::Parse(text.substr(0, slash));
  if (!addr.ok()) return addr.error();
  unsigned len = 128;
  if (slash != std::string_view::npos) {
    std::string_view len_part = text.substr(slash + 1);
    if (!ConsumeDecimal(len_part, 128, len) || !len_part.empty()) {
      return ParseError("bad prefix length", text);
    }
  }
  return Prefix6(*addr, static_cast<std::uint8_t>(len));
}

bool Prefix6::contains(const IPv6Address& a) const {
  for (int i = 0; i < 16; ++i) {
    const int bits = std::clamp(static_cast<int>(length_) - 8 * i, 0, 8);
    if (bits == 0) return true;
    const std::uint8_t m = static_cast<std::uint8_t>(0xff << (8 - bits));
    if ((a.bytes()[static_cast<std::size_t>(i)] & m) !=
        addr_.bytes()[static_cast<std::size_t>(i)]) {
      return false;
    }
  }
  return true;
}

bool Prefix6::contains(const Prefix6& other) const {
  return other.length_ >= length_ && contains(other.addr_);
}

std::string Prefix6::str() const { return addr_.str() + "/" + std::to_string(length_); }

}  // namespace stellar::net
