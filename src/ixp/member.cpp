#include "ixp/member.hpp"

#include <stdexcept>

#include "obs/trace.hpp"

namespace stellar::ixp {

MemberRouter::MemberRouter(sim::EventQueue& queue, MemberInfo info,
                           net::IPv4Address blackhole_next_hop,
                           net::IPv6Address blackhole_next_hop6)
    : queue_(queue),
      info_(std::move(info)),
      blackhole_next_hop_(blackhole_next_hop),
      blackhole_next_hop6_(blackhole_next_hop6) {}

void MemberRouter::teardown_session() {
  if (reconnector_) {
    reconnector_->stop();
    reconnector_.reset();
  }
  if (session_) {
    session_->stop();
    session_.reset();
  }
}

void MemberRouter::connect(std::shared_ptr<bgp::Endpoint> transport) {
  teardown_session();
  bgp::SessionConfig config;
  config.local_asn = info_.asn;
  config.router_id = info_.router_ip;
  config.announce_ipv6_unicast = info_.address_space6.has_value();
  session_ = std::make_unique<bgp::Session>(queue_, std::move(transport), config);
  session_->set_update_handler([this](const bgp::ReceivedUpdate& u) { on_update(u); });
  session_->set_state_handler([this](bgp::SessionState state) { on_state(state); });
  session_->start();
}

void MemberRouter::connect_resilient(bgp::ReconnectingSession::TransportFactory factory,
                                     bgp::ReconnectPolicy policy) {
  teardown_session();
  bgp::SessionConfig config;
  config.local_asn = info_.asn;
  config.router_id = info_.router_ip;
  config.announce_ipv6_unicast = info_.address_space6.has_value();
  reconnector_ = std::make_unique<bgp::ReconnectingSession>(queue_, std::move(factory),
                                                            config, policy);
  reconnector_->set_update_handler([this](const bgp::ReceivedUpdate& u) { on_update(u); });
  reconnector_->set_state_handler([this](bgp::SessionState state) { on_state(state); });
  reconnector_->set_established_handler([this](bgp::Session& session) {
    // Resync both directions on every establishment (including the first —
    // connect_resilient may have replaced a live session, withdrawing our
    // routes): ask for everything we may have missed, then replay everything
    // the route server lost with our old session.
    request_refresh(session);
    replay_announcements();
  });
  reconnector_->start();
}

void MemberRouter::on_state(bgp::SessionState state) {
  // RFC 4271: routes learned over a connection go with it. The re-joined
  // session's refresh re-sends only current routes, so a route withdrawn
  // while the session was down must not survive here.
  if (state != bgp::SessionState::kClosed) return;
  ribs_ = {};
  blackholed_ = {};
}

void MemberRouter::request_refresh(bgp::Session& session) {
  session.request_route_refresh(bgp::Afi<net::Prefix4>::kCode);
  if (info_.address_space6) session.request_route_refresh(bgp::Afi<net::Prefix6>::kCode);
}

void MemberRouter::replay_announcements() {
  for (const auto& [prefix, attrs] : announced_.v4) send_announce(prefix, attrs);
  for (const auto& [prefix, attrs] : announced_.v6) send_announce(prefix, attrs);
}

template <typename PrefixT>
void MemberRouter::announce(const PrefixT& prefix, std::vector<bgp::Community> communities,
                            std::vector<bgp::ExtendedCommunity> extended,
                            std::vector<bgp::LargeCommunity> large) {
  if (!session()) throw std::logic_error("MemberRouter: connect() before announcing");
  send_announce(prefix, announced_.get<PrefixT>()[prefix] = {std::move(communities),
                                                             std::move(extended),
                                                             std::move(large)});
}

template <typename PrefixT>
void MemberRouter::send_announce(const PrefixT& prefix, const AnnouncedAttrs& announced) {
  using Afi = bgp::Afi<PrefixT>;
  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::kIgp;
  attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {info_.asn}}};
  attrs.communities = announced.communities;
  attrs.extended_communities = announced.extended;
  attrs.large_communities = announced.large;
  if constexpr (Afi::kCode == bgp::kAfiIPv4) {
    // Extended or large communities mean a Stellar signal (IPv4 only): open
    // the signal-path trace at the moment the member's BGP stack emits the
    // announcement.
    if (!announced.extended.empty() || !announced.large.empty()) {
      obs::tracer().mark(prefix.str(), "member_announce", queue_.now().count());
    }
    Afi::set_next_hop(attrs, info_.router_ip);
  } else {
    // Peering-LAN v6 next-hop derived from the member's v4 address
    // (IPv4-mapped form keeps the simulation self-describing).
    net::IPv6Address::Bytes nh{};
    nh[10] = 0xff;
    nh[11] = 0xff;
    const std::uint32_t v4 = info_.router_ip.value();
    nh[12] = static_cast<std::uint8_t>(v4 >> 24);
    nh[13] = static_cast<std::uint8_t>(v4 >> 16);
    nh[14] = static_cast<std::uint8_t>(v4 >> 8);
    nh[15] = static_cast<std::uint8_t>(v4);
    Afi::set_next_hop(attrs, net::IPv6Address(nh));
  }
  session()->announce(Afi::announce(std::move(attrs), prefix));
}

template <typename PrefixT>
void MemberRouter::withdraw(const PrefixT& prefix) {
  if (!session()) throw std::logic_error("MemberRouter: connect() before announcing");
  announced_.get<PrefixT>().erase(prefix);
  session()->announce(bgp::Afi<PrefixT>::withdraw(prefix));
}

template void MemberRouter::announce(const net::Prefix4&, std::vector<bgp::Community>,
                                     std::vector<bgp::ExtendedCommunity>,
                                     std::vector<bgp::LargeCommunity>);
template void MemberRouter::announce(const net::Prefix6&, std::vector<bgp::Community>,
                                     std::vector<bgp::ExtendedCommunity>,
                                     std::vector<bgp::LargeCommunity>);
template void MemberRouter::withdraw(const net::Prefix4&);
template void MemberRouter::withdraw(const net::Prefix6&);

void MemberRouter::update_policy(MemberPolicy policy) {
  info_.policy = policy;
  if (!policy.accepts_more_specifics) {
    // Tightened: evict more-specifics accepted under the old policy.
    evict_more_specifics<net::Prefix4>();
    evict_more_specifics<net::Prefix6>();
  }
  bgp::Session* live = session();
  if (live != nullptr && live->established()) {
    // Relaxed (or unchanged): ask the route server to re-send everything so
    // the new import policy sees routes it previously filtered.
    request_refresh(*live);
  }
}

template <typename PrefixT>
void MemberRouter::evict_more_specifics() {
  auto& blackholed = blackholed_.get<PrefixT>();
  std::erase_if(ribs_.get<PrefixT>().routes_, [&](const auto& route) {
    if (route.first.length() <= bgp::Afi<PrefixT>::kMaxCommonLength) return false;
    blackholed.erase(route.first);
    return true;
  });
}

bool MemberRouter::blackholes(net::IPv4Address dst) const {
  return in_blackhole<net::Prefix4>(dst);
}

bool MemberRouter::blackholes(const net::IPv6Address& dst) const {
  return in_blackhole<net::Prefix6>(dst);
}

template <typename PrefixT>
bool MemberRouter::in_blackhole(const typename bgp::Afi<PrefixT>::Address& dst) const {
  // Longest-prefix-match semantics: the blackhole route is by construction
  // the most specific route for its covered hosts, so containment suffices.
  for (const auto& p : blackholed_.get<PrefixT>()) {
    if (p.contains(dst)) return true;
  }
  return false;
}

void MemberRouter::on_update(const bgp::ReceivedUpdate& update) {
  import_update<net::Prefix4>(update);
  import_update<net::Prefix6>(update);
}

template <typename PrefixT>
void MemberRouter::import_update(const bgp::ReceivedUpdate& received) {
  using Afi = bgp::Afi<PrefixT>;
  const bgp::UpdateMessage& update = received.message();
  auto& routes = ribs_.get<PrefixT>().routes_;
  auto& blackholed = blackholed_.get<PrefixT>();
  // One path per prefix (no ADD-PATH): the path-id is always 0.
  Afi::for_each_withdrawn(update, [&](const PrefixT& prefix, bgp::PathId) {
    routes.erase(prefix);
    blackholed.erase(prefix);
  });
  Afi::for_each_announced(update, [&](const PrefixT& prefix, bgp::PathId) {
    // Default import filter: reject more-specifics (the blackhole adoption
    // barrier) unless the member configured the exception.
    if (prefix.length() > Afi::kMaxCommonLength && !info_.policy.accepts_more_specifics) {
      ++rejected_more_specifics_;
      return;
    }
    routes[prefix] = received.attrs();

    const bool is_blackhole_route =
        update.attrs.has_community(bgp::kBlackhole) &&
        Afi::next_hop(update.attrs) ==
            bgp::PickAfi<PrefixT>(blackhole_next_hop_, blackhole_next_hop6_);
    if (is_blackhole_route && info_.policy.participates_in_rtbh) {
      blackholed.insert(prefix);
    } else {
      blackholed.erase(prefix);
    }
  });
}

}  // namespace stellar::ixp
