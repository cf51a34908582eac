#include "ixp/ixp.hpp"

#include <stdexcept>

namespace stellar::ixp {

namespace {

RouteServer::Config MakeRouteServerConfig(const Ixp::Config& config, const IrrDatabase& irr,
                                          const Irr6Database& irr6, const RpkiValidator& rpki,
                                          const BogonList& bogons, const Bogon6List& bogons6) {
  RouteServer::Config rs;
  rs.asn = config.asn;
  rs.blackhole_next_hop = config.blackhole_next_hop;
  rs.irr = &irr;
  rs.irr6 = &irr6;
  rs.rpki = &rpki;
  rs.bogons = &bogons;
  rs.bogons6 = &bogons6;
  return rs;
}

}  // namespace

Ixp::Ixp(sim::EventQueue& queue, Config config)
    : queue_(queue),
      config_(config),
      edge_router_("er1", config.tcam, config.cpu),
      fabric_(edge_router_),
      route_server_(queue,
                    MakeRouteServerConfig(config, irr_, irr6_, rpki_, bogons_, bogons6_)) {
  fabric_.set_ingress_blackhole_fn(
      [this](const net::MacAddress& mac, net::IPv4Address dst) {
        const auto it = by_mac_.find(mac);
        return it != by_mac_.end() && it->second->blackholes(dst);
      });
}

MemberRouter& Ixp::add_member(const MemberSpec& spec) {
  if (by_asn_.contains(spec.asn)) {
    throw std::invalid_argument("duplicate member ASN " + std::to_string(spec.asn));
  }
  MemberInfo info;
  info.asn = spec.asn;
  info.name = spec.name.empty() ? "AS" + std::to_string(spec.asn) : spec.name;
  info.port = static_cast<filter::PortId>(spec.asn);
  info.port_capacity_mbps = spec.port_capacity_mbps;
  info.mac = net::MacAddress::ForRouter(spec.asn);
  const auto index = static_cast<std::uint32_t>(members_.size());
  info.router_ip = net::IPv4Address(10, 99,
                                    static_cast<std::uint8_t>(1 + index / 250),
                                    static_cast<std::uint8_t>(1 + index % 250));
  info.address_space = spec.address_space;
  info.address_space6 = spec.address_space6;
  info.policy = spec.policy;

  irr_.add_route_object(spec.address_space, spec.asn);
  if (spec.address_space6) irr6_.add_route_object(*spec.address_space6, spec.asn);
  rpki_.add_roa({spec.address_space, 32, spec.asn});
  edge_router_.add_port(info.port, spec.port_capacity_mbps);
  fabric_.register_owner(spec.address_space, info.port);

  auto router = std::make_unique<MemberRouter>(queue_, info, config_.blackhole_next_hop,
                                               route_server_.config().blackhole_next_hop6);
  router->connect(route_server_.accept_member(spec.asn));
  router->announce(spec.address_space);
  if (spec.address_space6) router->announce(*spec.address_space6);
  MemberRouter& ref = *router;
  by_asn_[spec.asn] = &ref;
  by_mac_[info.mac] = &ref;
  members_.push_back(std::move(router));
  return ref;
}

MemberRouter* Ixp::member(bgp::Asn asn) {
  const auto it = by_asn_.find(asn);
  return it == by_asn_.end() ? nullptr : it->second;
}

void Ixp::settle(double seconds) { queue_.run_until(queue_.now() + sim::Seconds(seconds)); }

std::vector<traffic::SourceMember> Ixp::source_members(bgp::Asn exclude) const {
  std::vector<traffic::SourceMember> out;
  out.reserve(members_.size());
  for (const auto& m : members_) {
    if (m->info().asn == exclude) continue;
    out.push_back(traffic::SourceMember{m->info().mac, m->info().address_space});
  }
  return out;
}

std::unique_ptr<Ixp> MakeLargeIxp(sim::EventQueue& queue, const LargeIxpParams& params) {
  auto ixp = std::make_unique<Ixp>(queue, params.config);
  util::Rng rng(params.seed);

  for (int i = 0; i < params.member_count; ++i) {
    MemberSpec spec;
    // 16-bit ASNs keep scope-control communities expressible; stay below the
    // IXP's own ASN (64500).
    spec.asn = static_cast<bgp::Asn>(60'001 + i);
    if (spec.asn >= 64'499) {
      throw std::invalid_argument("MakeLargeIxp: too many members for 16-bit ASN plan");
    }
    // /20 slices out of 60.0.0.0/8: disjoint, public, non-bogon.
    spec.address_space = net::Prefix4(
        net::IPv4Address((60u << 24) | (static_cast<std::uint32_t>(i) << 12)), 20);

    // Heavy-tailed port capacities: most members 1-10G, a few hyper-giants.
    const double draw = rng.uniform();
    spec.port_capacity_mbps = draw < 0.35 ? 1'000.0
                              : draw < 0.80 ? 10'000.0
                              : draw < 0.98 ? 100'000.0
                                            : 400'000.0;

    spec.policy.accepts_more_specifics = rng.chance(params.rtbh_honor_fraction);
    spec.policy.participates_in_rtbh =
        spec.policy.accepts_more_specifics || rng.chance(params.participate_fraction);
    ixp->add_member(spec);
  }
  // Let sessions establish and initial announcements propagate.
  ixp->settle(120.0);
  return ixp;
}

}  // namespace stellar::ixp
