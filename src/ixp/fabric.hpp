// IXP switching fabric (data plane): L2 forwarding from member ingress to the
// destination member's egress port, with
//   - RTBH null-interface drops at *ingress* (traffic whose sending member
//     routed the destination into the blackhole next-hop never crosses the
//     platform), and
//   - Stellar QoS policies applied at the *egress* member port (paper §4.5
//     chooses egress filtering), including port-capacity congestion.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "filter/edge_router.hpp"
#include "net/flow.hpp"

namespace stellar::ixp {

class Fabric {
 public:
  /// Predicate: does the sending member (identified by router MAC) blackhole
  /// traffic towards dst? Wired to MemberRouter::blackholes.
  using IngressBlackholeFn = std::function<bool(const net::MacAddress&, net::IPv4Address)>;

  explicit Fabric(filter::EdgeRouter& edge_router) : edge_router_(edge_router) {}

  /// Registers that `space` is reachable via `port` (the owning member).
  /// A prefix registered twice keeps its first port.
  void register_owner(const net::Prefix4& space, filter::PortId port);

  void set_ingress_blackhole_fn(IngressBlackholeFn fn) { ingress_blackhole_ = std::move(fn); }

  /// Longest-prefix-match owner lookup; returns false if unrouted.
  [[nodiscard]] bool lookup_egress(net::IPv4Address dst, filter::PortId& port_out) const;

  struct BinReport {
    double offered_mbps = 0.0;
    double unrouted_mbps = 0.0;            ///< No member owns the destination.
    double rtbh_dropped_mbps = 0.0;        ///< Ingress null-interface drops.
    double delivered_mbps = 0.0;
    double rule_dropped_mbps = 0.0;        ///< Stellar drop rules.
    double shaper_dropped_mbps = 0.0;      ///< Stellar shaper excess.
    double congestion_dropped_mbps = 0.0;  ///< Member port overload.
    /// Flows that actually reached members, after all filtering: ascending
    /// egress port, then arrival order within a port.
    std::vector<net::FlowSample> delivered;
    /// Per egress-port breakdown: totals and rule_counters. Each port's
    /// `delivered` is left empty; its flows are stored once, in `delivered`
    /// above.
    std::map<filter::PortId, filter::PortBinResult> per_port;
    /// Distinct ingress members whose traffic was RTBH-dropped.
    std::set<net::MacAddress> rtbh_dropped_peers;
  };

  /// Pushes one bin of offered traffic through the platform.
  BinReport deliver(std::span<const net::FlowSample> offered, double bin_s);

 private:
  filter::EdgeRouter& edge_router_;
  /// Owner table for LPM: one exact-match map per prefix length, keyed by
  /// the prefix's network address, and bit L of `owner_lengths_` set iff
  /// `owners_[L]` is non-empty.
  std::array<std::unordered_map<std::uint32_t, filter::PortId>, 33> owners_;
  std::uint64_t owner_lengths_ = 0;
  IngressBlackholeFn ingress_blackhole_;
  /// deliver()'s scratch, kept across bins so a bin allocates only its
  /// report: (egress port, offered index) of every routed flow, and the
  /// flows of the port being delivered.
  std::vector<std::pair<filter::PortId, std::size_t>> routed_;
  std::vector<net::FlowSample> demand_;
};

}  // namespace stellar::ixp
