#include "ixp/fabric.hpp"

#include <algorithm>
#include <bit>
#include <iterator>
#include <utility>

namespace stellar::ixp {

void Fabric::register_owner(const net::Prefix4& space, filter::PortId port) {
  owners_[space.length()].emplace(space.address().value(), port);  // First wins.
  owner_lengths_ |= std::uint64_t{1} << space.length();
}

bool Fabric::lookup_egress(net::IPv4Address dst, filter::PortId& port_out) const {
  // Probe the lengths in use, longest first: the first hit is the LPM.
  for (std::uint64_t lengths = owner_lengths_; lengths != 0;) {
    const auto length = static_cast<std::uint8_t>(std::bit_width(lengths) - 1);
    lengths &= ~(std::uint64_t{1} << length);
    const auto& table = owners_[length];
    const auto it = table.find(dst.value() & net::Prefix4::MaskOf(length));
    if (it != table.end()) {
      port_out = it->second;
      return true;
    }
  }
  return false;
}

Fabric::BinReport Fabric::deliver(std::span<const net::FlowSample> offered, double bin_s) {
  BinReport report;
  routed_.clear();

  for (std::size_t i = 0; i < offered.size(); ++i) {
    const net::FlowSample& sample = offered[i];
    const double mbps = sample.mbps(bin_s);
    report.offered_mbps += mbps;
    filter::PortId egress = 0;
    if (!lookup_egress(sample.key.dst_ip, egress)) {
      report.unrouted_mbps += mbps;
      continue;
    }
    if (ingress_blackhole_ && ingress_blackhole_(sample.key.src_mac, sample.key.dst_ip)) {
      report.rtbh_dropped_mbps += mbps;
      report.rtbh_dropped_peers.insert(sample.key.src_mac);
      continue;
    }
    routed_.emplace_back(egress, i);
  }
  // Sorted, each port's run lists its flows in arrival order.
  std::sort(routed_.begin(), routed_.end());

  report.delivered.reserve(routed_.size());
  for (auto run = routed_.begin(); run != routed_.end();) {
    const filter::PortId port = run->first;
    demand_.clear();
    for (; run != routed_.end() && run->first == port; ++run) {
      demand_.push_back(offered[run->second]);
    }
    // Egress QoS at the member port: the port's policy, then congestion
    // against the member's port capacity.
    filter::PortBinResult result = edge_router_.deliver(port, demand_, bin_s);
    report.delivered_mbps += result.delivered_mbps;
    report.rule_dropped_mbps += result.rule_dropped_mbps;
    report.shaper_dropped_mbps += result.shaper_dropped_mbps;
    report.congestion_dropped_mbps += result.congestion_dropped_mbps;
    std::move(result.delivered.begin(), result.delivered.end(),
              std::back_inserter(report.delivered));
    result.delivered.clear();
    report.per_port.emplace_hint(report.per_port.end(), port, std::move(result));
  }
  return report;
}

}  // namespace stellar::ixp
