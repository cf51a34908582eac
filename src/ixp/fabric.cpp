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
  // (egress port, offered index) of every routed flow. Sorted, each port's
  // run lists its flows in arrival order.
  std::vector<std::pair<filter::PortId, std::size_t>> routed;
  routed.reserve(offered.size());

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
    routed.emplace_back(egress, i);
  }
  std::sort(routed.begin(), routed.end());

  report.delivered.reserve(routed.size());
  std::vector<net::FlowSample> demand;
  for (auto run = routed.begin(); run != routed.end();) {
    const filter::PortId port = run->first;
    demand.clear();
    for (; run != routed.end() && run->first == port; ++run) {
      demand.push_back(offered[run->second]);
    }
    // Egress QoS at the member port: the port's policy, then congestion
    // against the member's port capacity.
    filter::PortBinResult result = edge_router_.deliver(port, demand, bin_s);
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
