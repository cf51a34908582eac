// IPFIX-style flow collection and aggregation — the measurement side of the
// evaluation. The paper's Fig. 2c / 3a / 3c are computed from exactly these
// aggregates: per-bin volume, per-service-port shares, distinct peers.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <unordered_set>
#include <vector>

#include "net/flow.hpp"

namespace stellar::traffic {

/// Heuristic application port of a flow: the well-known service port among
/// {src, dst} (the server side). For amplification responses this is the UDP
/// source port (e.g. 11211); for client->server web traffic the destination
/// port (e.g. 443). Mirrors how flow-data studies bucket traffic by port.
[[nodiscard]] std::uint16_t ServicePort(const net::FlowKey& key);

/// Time-binned collector over a flow stream.
class FlowCollector {
 public:
  explicit FlowCollector(double bin_s) : bin_s_(bin_s) {}

  void ingest(const net::FlowSample& sample);
  void ingest(std::span<const net::FlowSample> samples);

  struct Bin {
    double start_s = 0.0;
    std::uint64_t bytes = 0;
    std::uint64_t packets = 0;
    std::map<std::uint16_t, std::uint64_t> bytes_by_service_port;
    std::map<std::uint16_t, std::uint64_t> bytes_by_udp_src_port;
    std::uint64_t udp_bytes = 0;
    std::uint64_t tcp_bytes = 0;
    /// Distinct source member routers. Hashed, not ordered: peer insertion is
    /// on the per-sample ingest hot path (std::hash<MacAddress> over the
    /// 48-bit address), and no aggregate needs ordered iteration.
    std::unordered_set<net::MacAddress> peers;
  };

  [[nodiscard]] const std::map<std::int64_t, Bin>& bins() const { return bins_; }
  [[nodiscard]] double bin_width_s() const { return bin_s_; }

  // -- Window aggregates [t0, t1) ------------------------------------------
  [[nodiscard]] std::uint64_t total_bytes(double t0_s, double t1_s) const;
  /// Share (0..1) of each service port's bytes in the window.
  [[nodiscard]] std::map<std::uint16_t, double> service_port_shares(double t0_s,
                                                                    double t1_s) const;
  /// Share (0..1) of each UDP source port's bytes among *all* window bytes.
  [[nodiscard]] std::map<std::uint16_t, double> udp_src_port_shares(double t0_s,
                                                                    double t1_s) const;
  /// UDP (first) and TCP (second) byte shares in the window.
  [[nodiscard]] std::pair<double, double> protocol_shares(double t0_s, double t1_s) const;

  void clear() { bins_.clear(); }

 private:
  [[nodiscard]] std::int64_t bin_index(double t_s) const {
    return static_cast<std::int64_t>(t_s / bin_s_);
  }

  double bin_s_;
  std::map<std::int64_t, Bin> bins_;
};

}  // namespace stellar::traffic
