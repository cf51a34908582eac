// Top-level IXP facade: wires the edge router, switching fabric, route
// server, hygiene databases and member routers into one platform — the
// substrate Stellar deploys onto. Also provides MakeLargeIxp(), a synthetic
// L-IXP (the paper's deployment target: >800 members, Tbps-scale, heavy-
// tailed port capacities, ~30% RTBH honoring).
#pragma once

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "filter/edge_router.hpp"
#include "ixp/fabric.hpp"
#include "ixp/irr.hpp"
#include "ixp/member.hpp"
#include "ixp/route_server.hpp"
#include "sim/event_queue.hpp"
#include "traffic/generators.hpp"
#include "util/rng.hpp"

namespace stellar::ixp {

struct MemberSpec {
  bgp::Asn asn = 0;
  std::string name;
  double port_capacity_mbps = 10'000.0;
  net::Prefix4 address_space;
  /// Optional IPv6 allocation (announced and IRR6-registered when set).
  std::optional<net::Prefix6> address_space6;
  MemberPolicy policy;
};

class Ixp {
 public:
  struct Config {
    bgp::Asn asn = 64500;
    net::IPv4Address blackhole_next_hop{net::IPv4Address(10, 99, 0, 66)};
    /// Edge-router hardware limits; zero pools = unlimited (functional tests).
    filter::TcamLimits tcam{};
    filter::CpuModelConfig cpu{};
  };

  Ixp(sim::EventQueue& queue, Config config);
  explicit Ixp(sim::EventQueue& queue) : Ixp(queue, Config{}) {}

  /// Registers a member: IRR route object + ROA for its space, an edge-router
  /// port, fabric ownership, and an eBGP session to the route server. The
  /// member's own prefix is announced immediately.
  MemberRouter& add_member(const MemberSpec& spec);

  [[nodiscard]] MemberRouter* member(bgp::Asn asn);
  [[nodiscard]] const std::vector<std::unique_ptr<MemberRouter>>& members() const {
    return members_;
  }

  /// Runs the event queue forward so sessions establish and updates settle.
  void settle(double seconds = 30.0);

  /// Pushes one bin of offered traffic through the platform.
  Fabric::BinReport deliver_bin(std::span<const net::FlowSample> offered, double bin_s) {
    return fabric_.deliver(offered, bin_s);
  }

  /// Traffic-generator handles for all members except `exclude` (the victim).
  [[nodiscard]] std::vector<traffic::SourceMember> source_members(bgp::Asn exclude = 0) const;

  [[nodiscard]] RouteServer& route_server() { return route_server_; }
  [[nodiscard]] filter::EdgeRouter& edge_router() { return edge_router_; }
  [[nodiscard]] Fabric& fabric() { return fabric_; }
  [[nodiscard]] IrrDatabase& irr() { return irr_; }
  [[nodiscard]] Irr6Database& irr6() { return irr6_; }
  [[nodiscard]] RpkiValidator& rpki() { return rpki_; }
  [[nodiscard]] sim::EventQueue& queue() { return queue_; }
  [[nodiscard]] const Config& config() const { return config_; }

 private:
  sim::EventQueue& queue_;
  Config config_;
  IrrDatabase irr_;
  Irr6Database irr6_;
  RpkiValidator rpki_;
  BogonList bogons_ = BogonList::Standard();
  Bogon6List bogons6_ = Bogon6List::Standard();
  filter::EdgeRouter edge_router_;
  Fabric fabric_;
  RouteServer route_server_;
  std::vector<std::unique_ptr<MemberRouter>> members_;
  std::map<bgp::Asn, MemberRouter*> by_asn_;
  std::unordered_map<net::MacAddress, MemberRouter*> by_mac_;
};

/// Parameters of the synthetic L-IXP.
struct LargeIxpParams {
  int member_count = 800;
  /// Fraction of members that honor RTBH (§2.4: ~70% do not).
  double rtbh_honor_fraction = 0.30;
  /// Fraction of non-honoring members that at least participate (accept the
  /// community but filter the /32 — they would honor if they fixed configs).
  double participate_fraction = 0.95;
  std::uint64_t seed = 42;
  Ixp::Config config{};
};

/// Builds a synthetic large IXP: member ASNs 65001..., /20 address spaces,
/// heavy-tailed port capacities (1G/10G/100G/400G mix), RTBH policies drawn
/// per `rtbh_honor_fraction`, all sessions established (the queue is run).
std::unique_ptr<Ixp> MakeLargeIxp(sim::EventQueue& queue, const LargeIxpParams& params);

}  // namespace stellar::ixp
