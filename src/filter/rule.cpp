#include "filter/rule.hpp"

namespace stellar::filter {

std::string PortRange::str() const {
  if (is_wildcard()) return "*";
  if (is_single()) return std::to_string(lo);
  return std::to_string(lo) + "-" + std::to_string(hi);
}

bool MatchCriteria::matches(const net::FlowKey& flow) const {
  if (src_mac && *src_mac != flow.src_mac) return false;
  if (src_prefix && !src_prefix->contains(flow.src_ip)) return false;
  if (dst_prefix && !dst_prefix->contains(flow.dst_ip)) return false;
  if (proto && *proto != flow.proto) return false;
  if (src_port && !src_port->contains(flow.src_port)) return false;
  if (dst_port && !dst_port->contains(flow.dst_port)) return false;
  return true;
}

namespace {
int PortCriteriaCost(const std::optional<PortRange>& range) {
  if (!range || range->is_wildcard()) return 0;
  return range->is_single() ? 1 : 2;
}
}  // namespace

Selectivity MatchCriteria::selectivity() const {
  if (dst_prefix && dst_prefix->length() == 32) return Selectivity::kDstHost;
  if (proto && dst_port && dst_port->is_single()) return Selectivity::kProtoDstPort;
  if (proto && src_port && src_port->is_single()) return Selectivity::kProtoSrcPort;
  if (src_mac) return Selectivity::kSrcMac;
  return Selectivity::kGeneric;
}

std::uint64_t MatchCriteria::selectivity_key() const {
  switch (selectivity()) {
    case Selectivity::kDstHost: return dst_prefix->address().value();
    case Selectivity::kProtoDstPort:
      return (std::uint64_t{static_cast<std::uint8_t>(*proto)} << 16) | dst_port->lo;
    case Selectivity::kProtoSrcPort:
      return (std::uint64_t{static_cast<std::uint8_t>(*proto)} << 16) | src_port->lo;
    case Selectivity::kSrcMac: return src_mac->as_u64();
    case Selectivity::kGeneric: return 0;
  }
  return 0;
}

int MatchCriteria::l3l4_criteria_count() const {
  int n = 0;
  if (src_prefix) ++n;
  if (dst_prefix) ++n;
  if (proto) ++n;
  n += PortCriteriaCost(src_port);
  n += PortCriteriaCost(dst_port);
  return n;
}

std::string MatchCriteria::str() const {
  std::string out = "{";
  out += "Proto:";
  out += proto ? std::string(net::ToString(*proto)) : "*";
  out += "; Src-IP:" + (src_prefix ? src_prefix->str() : "*");
  out += "; Dst-IP:" + (dst_prefix ? dst_prefix->str() : "*");
  out += "; Src-Port:" + (src_port ? src_port->str() : "*");
  out += "; Dst-Port:" + (dst_port ? dst_port->str() : "*");
  if (src_mac) out += "; Src-MAC:" + src_mac->str();
  return out + "}";
}

std::string_view ToString(FilterAction a) {
  switch (a) {
    case FilterAction::kForward: return "forward";
    case FilterAction::kDrop: return "drop";
    case FilterAction::kShape: return "shape";
  }
  return "?";
}

std::string FilterRule::str() const {
  std::string out = std::string(ToString(action));
  if (action == FilterAction::kShape) {
    out += '@';
    out += std::to_string(static_cast<int>(shape_rate_mbps));
    out += "Mbps";
  }
  return out + " " + match.str();
}

}  // namespace stellar::filter
