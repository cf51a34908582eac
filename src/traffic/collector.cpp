#include "traffic/collector.hpp"

#include <algorithm>
#include <array>

#include "net/ports.hpp"

namespace stellar::traffic {

std::uint16_t ServicePort(const net::FlowKey& key) {
  static constexpr std::array<std::uint16_t, 11> kKnown{
      0,
      net::kPortChargen,
      net::kPortDns,
      net::kPortHttp,
      net::kPortNtp,
      net::kPortLdap,
      net::kPortHttps,
      net::kPortRtmp,
      net::kPortHttpAlt,
      net::kPortMemcached,
      161,  // SNMP.
  };
  auto known = [](std::uint16_t p) {
    for (std::uint16_t k : kKnown) {
      if (p == k) return true;
    }
    return false;
  };
  // Prefer the source port: responses from a service carry it there, and
  // amplification attacks are response streams.
  if (known(key.src_port)) return key.src_port;
  if (known(key.dst_port)) return key.dst_port;
  return std::min(key.src_port, key.dst_port);
}

void FlowCollector::ingest(const net::FlowSample& sample) {
  Bin& bin = bins_[bin_index(sample.time_s)];
  if (bin.bytes == 0 && bin.packets == 0) {
    bin.start_s = static_cast<double>(bin_index(sample.time_s)) * bin_s_;
  }
  bin.bytes += sample.bytes;
  bin.packets += sample.packets;
  bin.bytes_by_service_port[ServicePort(sample.key)] += sample.bytes;
  if (sample.key.proto == net::IpProto::kUdp) {
    bin.udp_bytes += sample.bytes;
    bin.bytes_by_udp_src_port[sample.key.src_port] += sample.bytes;
  } else if (sample.key.proto == net::IpProto::kTcp) {
    bin.tcp_bytes += sample.bytes;
  }
  bin.peers.insert(sample.key.src_mac);
}

void FlowCollector::ingest(std::span<const net::FlowSample> samples) {
  for (const auto& s : samples) ingest(s);
}

std::uint64_t FlowCollector::total_bytes(double t0_s, double t1_s) const {
  std::uint64_t total = 0;
  for (auto it = bins_.lower_bound(bin_index(t0_s)); it != bins_.end(); ++it) {
    if (it->second.start_s >= t1_s) break;
    total += it->second.bytes;
  }
  return total;
}

std::map<std::uint16_t, double> FlowCollector::service_port_shares(double t0_s,
                                                                   double t1_s) const {
  std::map<std::uint16_t, std::uint64_t> bytes;
  std::uint64_t total = 0;
  for (auto it = bins_.lower_bound(bin_index(t0_s)); it != bins_.end(); ++it) {
    if (it->second.start_s >= t1_s) break;
    for (const auto& [port, b] : it->second.bytes_by_service_port) {
      bytes[port] += b;
      total += b;
    }
  }
  std::map<std::uint16_t, double> shares;
  if (total == 0) return shares;
  for (const auto& [port, b] : bytes) {
    shares[port] = static_cast<double>(b) / static_cast<double>(total);
  }
  return shares;
}

std::map<std::uint16_t, double> FlowCollector::udp_src_port_shares(double t0_s,
                                                                   double t1_s) const {
  std::map<std::uint16_t, std::uint64_t> bytes;
  std::uint64_t total = 0;
  for (auto it = bins_.lower_bound(bin_index(t0_s)); it != bins_.end(); ++it) {
    if (it->second.start_s >= t1_s) break;
    total += it->second.bytes;
    for (const auto& [port, b] : it->second.bytes_by_udp_src_port) bytes[port] += b;
  }
  std::map<std::uint16_t, double> shares;
  if (total == 0) return shares;
  for (const auto& [port, b] : bytes) {
    shares[port] = static_cast<double>(b) / static_cast<double>(total);
  }
  return shares;
}

std::pair<double, double> FlowCollector::protocol_shares(double t0_s, double t1_s) const {
  std::uint64_t udp = 0;
  std::uint64_t tcp = 0;
  std::uint64_t total = 0;
  for (auto it = bins_.lower_bound(bin_index(t0_s)); it != bins_.end(); ++it) {
    if (it->second.start_s >= t1_s) break;
    udp += it->second.udp_bytes;
    tcp += it->second.tcp_bytes;
    total += it->second.bytes;
  }
  if (total == 0) return {0.0, 0.0};
  return {static_cast<double>(udp) / static_cast<double>(total),
          static_cast<double>(tcp) / static_cast<double>(total)};
}

}  // namespace stellar::traffic
