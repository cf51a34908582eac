#include "ixp/route_server.hpp"

#include <algorithm>
#include <cassert>
#include <optional>

#include "obs/trace.hpp"

namespace stellar::ixp {

namespace {
/// ADD-PATH path-id assigned to routes from a member peer on the controller
/// session: stable per peer, nonzero as RFC 7911 requires for sent paths.
bgp::PathId ControllerPathId(bgp::PeerId peer) { return peer; }
}  // namespace

RouteServer::RouteServer(sim::EventQueue& queue, Config config)
    : queue_(queue), config_(config) {
  assert(config_.irr != nullptr && "route server requires an IRR database");
}

bgp::Community RouteServer::exclude_peer(bgp::Asn peer) const {
  return bgp::Community(0, static_cast<std::uint16_t>(peer));
}

bgp::Community RouteServer::include_peer(bgp::Asn peer) const {
  return bgp::Community(static_cast<std::uint16_t>(config_.asn),
                        static_cast<std::uint16_t>(peer));
}

bgp::Community RouteServer::announce_to_none() const {
  return bgp::Community(0, static_cast<std::uint16_t>(config_.asn));
}

std::shared_ptr<bgp::Endpoint> RouteServer::accept_member(bgp::Asn member_asn) {
  auto [server_side, member_side] = bgp::MakeLink(queue_);
  bgp::SessionConfig session_config;
  session_config.local_asn = config_.asn;
  session_config.router_id = config_.router_id;
  session_config.announce_ipv6_unicast = config_.irr6 != nullptr;

  // A reconnecting member reuses its slot (stable PeerId across flaps, no
  // unbounded members_ growth under session churn). Only a dead session may
  // be replaced; a second concurrent session for an ASN gets its own slot.
  std::size_t slot = members_.size();
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (members_[i].asn == member_asn &&
        (members_[i].session == nullptr || members_[i].session->state() == bgp::SessionState::kClosed)) {
      slot = i;
      break;
    }
  }
  if (slot == members_.size()) {
    members_.push_back(MemberPeer{member_asn, nullptr});
  } else {
    // Fresh Adj-RIB-Out: the rejoining router remembers nothing we exported.
    forget_exports<net::Prefix4>(slot);
    forget_exports<net::Prefix6>(slot);
  }
  const bgp::PeerId peer = static_cast<bgp::PeerId>(slot + 1);  // Index + 1.
  auto session = std::make_unique<bgp::Session>(queue_, server_side, session_config);
  session->set_update_handler(
      [this, peer](const bgp::UpdateMessage& u) { on_member_update(peer, u); });
  // Implicit withdraw (paper §4.2.1): a failed member session takes all of
  // that member's routes — and thereby its blackholing signals — with it.
  session->set_state_handler([this, peer](bgp::SessionState state) {
    if (state == bgp::SessionState::kClosed) on_member_session_closed(peer);
  });
  session->set_refresh_handler([this, peer](const bgp::RouteRefreshMessage& refresh) {
    on_member_refresh(peer, refresh);
  });
  session->start();
  members_[slot].session = std::move(session);
  return member_side;
}

std::shared_ptr<bgp::Endpoint> RouteServer::accept_controller() {
  auto [server_side, controller_side] = bgp::MakeLink(queue_);
  bgp::SessionConfig session_config;
  session_config.local_asn = config_.asn;  // iBGP: controller shares the IXP ASN.
  session_config.router_id = config_.router_id;
  session_config.add_path_tx = true;
  controller_session_ = std::make_unique<bgp::Session>(queue_, server_side, session_config);
  // ROUTE-REFRESH from the controller (post-reconnect resync): replay the
  // full Adj-RIB-In so it can rebuild desired state from scratch.
  controller_session_->set_refresh_handler([this](const bgp::RouteRefreshMessage& refresh) {
    if (refresh.afi != bgp::kAfiIPv4) return;
    ribs_.v4.for_each([this](const bgp::RouteView& route) { controller_announce(route); });
  });
  controller_session_->start();
  // Initial RIB synchronization: queued updates flush on establishment.
  ribs_.v4.for_each([this](const bgp::RouteView& route) { controller_announce(route); });
  return controller_side;
}

std::size_t RouteServer::established_member_sessions() const {
  std::size_t n = 0;
  for (const auto& m : members_) {
    if (m.session->established()) ++n;
  }
  return n;
}

bgp::Asn RouteServer::member_asn_of_peer(bgp::PeerId peer) const {
  assert(peer >= 1 && peer <= members_.size());
  return members_[peer - 1].asn;
}

void RouteServer::on_member_update(bgp::PeerId peer, const bgp::UpdateMessage& update) {
  import_update<net::Prefix4>(peer, update);
  import_update<net::Prefix6>(peer, update);
}

void RouteServer::on_member_session_closed(bgp::PeerId peer) {
  withdraw_peer<net::Prefix4>(peer);
  withdraw_peer<net::Prefix6>(peer);
}

void RouteServer::on_member_refresh(bgp::PeerId peer, const bgp::RouteRefreshMessage& refresh) {
  if (refresh.afi == bgp::Afi<net::Prefix4>::kCode) refresh_member<net::Prefix4>(peer - 1);
  if (refresh.afi == bgp::Afi<net::Prefix6>::kCode) refresh_member<net::Prefix6>(peer - 1);
}

template <typename PrefixT>
void RouteServer::import_update(bgp::PeerId peer, const bgp::UpdateMessage& update) {
  constexpr bool kV4 = bgp::Afi<PrefixT>::kCode == bgp::kAfiIPv4;
  // IPv6 unicast is imported only when the IXP runs an IRR6.
  if constexpr (!kV4) {
    if (config_.irr6 == nullptr) return;
  }
  MemberPeer& from = members_[peer - 1];
  auto& rib = ribs_.get<PrefixT>();
  std::vector<PrefixT> touched;

  // A pure withdraw carries no attributes: the event describes the scope of
  // the route being withdrawn.
  const auto withdraw = [&](const PrefixT& prefix) {
    const auto withdrawn = rib.find(prefix, peer);
    if (!withdrawn) return;
    rib.withdraw(prefix, peer);
    touched.push_back(prefix);
    if constexpr (kV4) controller_withdraw(prefix, peer);
    if (withdrawn->has_community(bgp::kBlackhole)) {
      log_blackhole_event(from, prefix, *withdrawn, /*withdrawn=*/true);
    }
  };
  bgp::Afi<PrefixT>::for_each_withdrawn(
      update, [&](const PrefixT& prefix, bgp::PathId) { withdraw(prefix); });

  bgp::Afi<PrefixT>::for_each_announced(update, [&](const PrefixT& prefix, bgp::PathId) {
    // A rejected announcement replaces the member's earlier route for the
    // prefix all the same: treat it as a withdraw of that route.
    if (!import_accept(from, prefix, update.attrs)) {
      withdraw(prefix);
      return;
    }
    // Members do not use ADD-PATH northbound.
    const bgp::BasicRouteView<PrefixT> route{prefix, peer, 0, update.attrs};
    if (!rib.insert(route)) return;
    touched.push_back(prefix);
    if constexpr (kV4) controller_announce(route);
    if (update.attrs.has_community(bgp::kBlackhole)) {
      log_blackhole_event(from, prefix, update.attrs, /*withdrawn=*/false);
    }
  });

  for (const auto& prefix : touched) reexport(prefix, 0, members_.size());
}

template <typename PrefixT>
void RouteServer::withdraw_peer(bgp::PeerId peer) {
  // Collect this peer's prefixes, drop them, withdraw them everywhere.
  // A session failure implicitly withdraws the peer's blackhole routes, so it
  // must log the same events as an explicit withdraw — otherwise the journal
  // and looking glass undercount removals (the stored attrs describe the
  // signaling scope of the route being torn down).
  auto& rib = ribs_.get<PrefixT>();
  std::vector<PrefixT> touched;
  std::vector<std::pair<PrefixT, bgp::PathAttributes>> blackholed;
  rib.for_each([&](const bgp::BasicRouteView<PrefixT>& route) {
    if (route.peer != peer) return;
    touched.push_back(route.prefix);
    if (route.attrs.has_community(bgp::kBlackhole)) {
      blackholed.emplace_back(route.prefix, route.attrs);
    }
  });
  if (rib.withdraw_peer(peer) == 0) return;
  for (const auto& [prefix, attrs] : blackholed) {
    log_blackhole_event(members_[peer - 1], prefix, attrs, /*withdrawn=*/true);
  }
  for (const auto& prefix : touched) {
    if constexpr (bgp::Afi<PrefixT>::kCode == bgp::kAfiIPv4) controller_withdraw(prefix, peer);
    reexport(prefix, 0, members_.size());
  }
}

template <typename PrefixT>
void RouteServer::refresh_member(std::size_t member_index) {
  // Forget what was exported so everything eligible is re-sent, letting the
  // member's (possibly changed) import policy re-evaluate each route.
  forget_exports<PrefixT>(member_index);
  for (const auto& prefix : ribs_.get<PrefixT>().prefixes()) {
    reexport(prefix, member_index, member_index + 1);
  }
}

template <typename PrefixT>
void RouteServer::forget_exports(std::size_t member_index) {
  for (auto& [prefix, slots] : adj_rib_out_.get<PrefixT>()) {
    if (member_index < slots.size()) slots[member_index].reset();
  }
}

template <typename PrefixT>
bool RouteServer::import_accept(const MemberPeer& from, const PrefixT& prefix,
                                const bgp::PathAttributes& attrs) {
  // The announcing member must originate the path (no route-server leaks).
  const auto origin = attrs.origin_asn();
  if (!origin || *origin != from.asn) {
    ++rejects_.origin_mismatch;
    return false;
  }
  const auto* bogons = bgp::PickAfi<PrefixT>(config_.bogons, config_.bogons6);
  if (bogons != nullptr && bogons->is_bogon(prefix)) {
    ++rejects_.bogon;
    return false;
  }
  const auto* irr = bgp::PickAfi<PrefixT>(config_.irr, config_.irr6);
  if (irr == nullptr || !irr->authorized(prefix, from.asn)) {
    ++rejects_.irr_unauthorized;
    return false;
  }
  // RPKI validation is IPv4 only: the validator holds IPv4 ROAs.
  if constexpr (bgp::Afi<PrefixT>::kCode == bgp::kAfiIPv4) {
    if (config_.rpki != nullptr &&
        config_.rpki->validate(prefix, from.asn) == RpkiState::kInvalid) {
      ++rejects_.rpki_invalid;
      return false;
    }
  }
  // More-specifics past the AFI's common boundary are only meaningful as
  // blackholing requests (standard or Advanced, the latter marked by IXP
  // extended or large communities).
  if (prefix.length() > bgp::Afi<PrefixT>::kMaxCommonLength) {
    const auto in_namespace = [this](const auto& c) {
      return bgp::InIxpNamespace(c, config_.asn);
    };
    const bool advanced = std::ranges::any_of(attrs.extended_communities, in_namespace) ||
                          std::ranges::any_of(attrs.large_communities, in_namespace);
    if (!attrs.has_community(bgp::kBlackhole) && !advanced) {
      ++rejects_.too_specific;
      return false;
    }
  }
  return true;
}

template <typename PrefixT>
void RouteServer::log_blackhole_event(const MemberPeer& from, const PrefixT& prefix,
                                      const bgp::PathAttributes& attrs, bool withdrawn) {
  BasicBlackholeEvent<PrefixT> ev;
  ev.time_s = queue_.now().count();
  ev.member = from.asn;
  ev.prefix = prefix;
  ev.withdrawn = withdrawn;
  for (const auto& c : attrs.communities) {
    if (c == announce_to_none()) {
      ev.announce_to_none = true;
    } else if (c.asn() == 0 && c.value() != 0 && c.value() != config_.asn) {
      ++ev.excluded_peers;
    } else if (c.asn() == static_cast<std::uint16_t>(config_.asn) && c.value() != 0 &&
               c != bgp::kBlackhole) {
      ++ev.included_peers;
    }
  }
  events_.get<PrefixT>().push_back(ev);
}

template <typename PrefixT>
void RouteServer::reexport(const PrefixT& prefix, std::size_t first, std::size_t last) {
  // One RIB walk per re-export, shared across the member fan-out.
  std::vector<bgp::BasicRouteView<PrefixT>> paths;
  ribs_.get<PrefixT>().visit_prefix(
      prefix, [&](const bgp::BasicRouteView<PrefixT>& r) { paths.push_back(r); });
  auto& records = adj_rib_out_.get<PrefixT>();
  auto record = records.find(prefix);
  if (record == records.end()) {
    // No member holds the prefix and no path may go to any member (every
    // Stellar signal: announce-to-none without an include-peer), so the
    // fan-out would send nothing.
    if (std::none_of(paths.begin(), paths.end(),
                     [this](const auto& r) { return exportable(r.attrs); })) {
      return;
    }
    record = records.try_emplace(prefix).first;
  }
  auto& slots = record->second;
  // Update groups, one per path index: the members whose slot changes to
  // that path's export attributes (interned at most once per fan-out) share
  // one UPDATE, built and encoded once per tx codec. The extra last group
  // keeps null attributes: "no eligible path", the withdraw.
  struct Group {
    std::shared_ptr<const bgp::PathAttributes> attrs;
    std::optional<bgp::SharedUpdate> update;
  };
  std::vector<Group> groups(paths.size() + 1);
  for (std::size_t i = first; i < last; ++i) {
    const bgp::PeerId target_peer = static_cast<bgp::PeerId>(i + 1);
    // Best eligible path for this member (not its own, scope allows).
    std::size_t best = paths.size();
    for (std::size_t p = 0; p < paths.size(); ++p) {
      if (paths[p].peer == target_peer || !eligible(paths[p].attrs, members_[i].asn)) continue;
      if (best == paths.size() || bgp::BetterPath(paths[p], paths[best])) best = p;
    }
    Group& group = groups[best];
    if (group.attrs == nullptr && best < paths.size()) {
      group.attrs = bgp::Intern(member_export_attrs<PrefixT>(paths[best].attrs));
    }
    if (i >= slots.size()) slots.resize(members_.size());
    // Interned pointers: equal <=> the exported attributes are unchanged.
    if (slots[i] == group.attrs) continue;
    slots[i] = group.attrs;
    if (!group.update) {
      group.update.emplace(group.attrs != nullptr
                               ? bgp::Afi<PrefixT>::announce(*group.attrs, prefix)
                               : bgp::Afi<PrefixT>::withdraw(prefix));
    }
    members_[i].session->announce(*group.update);
  }
  if (std::all_of(slots.begin(), slots.end(), [](const auto& a) { return a == nullptr; })) {
    records.erase(record);
  }
}

bool RouteServer::eligible(const bgp::PathAttributes& attrs, bgp::Asn target) const {
  if (attrs.has_community(bgp::kNoAdvertise)) return false;
  if (attrs.has_community(announce_to_none())) {
    return attrs.has_community(include_peer(target));
  }
  return !attrs.has_community(exclude_peer(target));
}

bool RouteServer::exportable(const bgp::PathAttributes& attrs) const {
  if (attrs.has_community(bgp::kNoAdvertise)) return false;
  if (!attrs.has_community(announce_to_none())) return true;
  // Announce-to-none reaches only include-peer (ixp:peer) targets.
  return std::any_of(attrs.communities.begin(), attrs.communities.end(), [this](bgp::Community c) {
    return c.asn() == static_cast<std::uint16_t>(config_.asn);
  });
}

template <typename PrefixT>
bgp::PathAttributes RouteServer::member_export_attrs(const bgp::PathAttributes& attrs) const {
  bgp::PathAttributes out = attrs;
  // Strip scope-control communities: they are instructions to the route
  // server, not information for peers.
  std::erase_if(out.communities, [this](bgp::Community c) {
    if (c == bgp::kBlackhole) return false;
    return c.asn() == 0 || c.asn() == static_cast<std::uint16_t>(config_.asn);
  });
  // Strip Stellar signaling communities (IXP namespace, both encodings).
  const auto in_namespace = [this](const auto& c) { return bgp::InIxpNamespace(c, config_.asn); };
  std::erase_if(out.extended_communities, in_namespace);
  std::erase_if(out.large_communities, in_namespace);
  // Classic RTBH: rewrite the next-hop so accepting members route the prefix
  // into the IXP's null interface.
  std::optional<typename bgp::Afi<PrefixT>::Address> next_hop;
  if (attrs.has_community(bgp::kBlackhole)) {
    next_hop = bgp::PickAfi<PrefixT>(config_.blackhole_next_hop, config_.blackhole_next_hop6);
    out.add_community(bgp::kNoExport);
  }
  bgp::Afi<PrefixT>::set_next_hop(out, next_hop);
  return out;
}

void RouteServer::controller_announce(const bgp::RouteView& route) {
  if (!controller_session_) return;
  // Signal routes get a trace mark at the point the route server relays them
  // to the controller over the ADD-PATH iBGP session. (Replays on resync
  // re-stamp the same stage; breakdown keeps the first episode.)
  if (!route.attrs.extended_communities.empty() || !route.attrs.large_communities.empty()) {
    obs::tracer().mark(route.prefix.str(), "route_server_accept", queue_.now().count());
  }
  bgp::UpdateMessage update;
  update.attrs = route.attrs;
  update.announced.push_back(bgp::Nlri4{ControllerPathId(route.peer), route.prefix});
  controller_session_->announce(std::move(update));
}

void RouteServer::controller_withdraw(const net::Prefix4& prefix, bgp::PeerId peer) {
  if (!controller_session_) return;
  bgp::UpdateMessage update;
  update.withdrawn.push_back(bgp::Nlri4{ControllerPathId(peer), prefix});
  controller_session_->announce(std::move(update));
}

}  // namespace stellar::ixp
