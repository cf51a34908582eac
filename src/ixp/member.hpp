// IXP member model: the descriptor the IXP registers (ASN, port, address
// space, RTBH policy) plus the member-side BGP router that peers with the
// route server.
//
// The router's import behaviour encodes the paper's central RTBH failure
// mode (§2.4): ~70% of members do not honor blackhole announcements, mostly
// because their default configuration rejects prefixes more specific than
// /24 — honoring a /32 RTBH route requires an explicit exception.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bgp/reconnect.hpp"
#include "bgp/rib.hpp"
#include "bgp/session.hpp"
#include "filter/tcam.hpp"
#include "net/ip.hpp"
#include "net/mac.hpp"
#include "sim/event_queue.hpp"

namespace stellar::ixp {

struct MemberPolicy {
  /// Member filters out routes more specific than the AFI's common boundary
  /// (bgp::Afi::kMaxCommonLength) — the default router config. Blackhole
  /// host routes are rejected by such members.
  bool accepts_more_specifics = false;
  /// Member acts on the BLACKHOLE community by accepting the rewritten
  /// next-hop (only effective if more-specifics are accepted too).
  bool participates_in_rtbh = true;

  /// A member honors RTBH only if both conditions hold.
  [[nodiscard]] bool honors_rtbh() const {
    return accepts_more_specifics && participates_in_rtbh;
  }
};

struct MemberInfo {
  bgp::Asn asn = 0;
  std::string name;
  filter::PortId port = 0;
  double port_capacity_mbps = 10'000.0;
  net::MacAddress mac;
  net::IPv4Address router_ip;      ///< Peering-LAN address (BGP next-hop).
  net::Prefix4 address_space;      ///< The prefix this member originates.
  std::optional<net::Prefix6> address_space6;  ///< Optional IPv6 allocation.
  MemberPolicy policy;
};

/// A member router's received routes. The router has one session to the
/// route server and no ADD-PATH, so a prefix has at most one path: a flat
/// hash table of prefix -> interned attributes, each import one write. The
/// reads are those of bgp::BasicRib that a single-path table answers;
/// for_each() and prefixes() sort, so they run in prefix order.
template <typename PrefixT>
class MemberRib {
 public:
  using View = bgp::BasicRouteView<PrefixT>;

  /// The prefix's route as a view, valid while the RIB is not mutated.
  [[nodiscard]] std::optional<View> best(const PrefixT& prefix) const {
    const auto it = routes_.find(prefix);
    if (it == routes_.end()) return std::nullopt;
    return View{it->first, 0, 0, *it->second};
  }
  /// Interned attributes of the prefix's route, or nullptr.
  [[nodiscard]] std::shared_ptr<const bgp::PathAttributes> find(const PrefixT& prefix) const {
    const auto it = routes_.find(prefix);
    return it == routes_.end() ? nullptr : it->second;
  }
  /// Visits the prefix's route, if any. Do not mutate the RIB from `fn`.
  void visit_prefix(const PrefixT& prefix, const std::function<void(const View&)>& fn) const {
    if (const auto route = best(prefix)) fn(*route);
  }
  /// Visits every route in prefix order. Do not mutate the RIB from `fn`.
  void for_each(const std::function<void(const View&)>& fn) const {
    for (const auto* route : sorted()) fn(View{route->first, 0, 0, *route->second});
  }
  /// All prefixes, in order.
  [[nodiscard]] std::vector<PrefixT> prefixes() const {
    std::vector<PrefixT> out;
    out.reserve(routes_.size());
    for (const auto* route : sorted()) out.push_back(route->first);
    return out;
  }
  [[nodiscard]] std::size_t size() const { return routes_.size(); }
  [[nodiscard]] bool empty() const { return routes_.empty(); }

 private:
  friend class MemberRouter;

  using Table = std::unordered_map<PrefixT, std::shared_ptr<const bgp::PathAttributes>>;

  [[nodiscard]] std::vector<const typename Table::value_type*> sorted() const {
    std::vector<const typename Table::value_type*> out;
    out.reserve(routes_.size());
    for (const auto& route : routes_) out.push_back(&route);
    std::sort(out.begin(), out.end(), [](const auto* a, const auto* b) { return a->first < b->first; });
    return out;
  }

  Table routes_;
};

/// The member's border router facing the IXP: one eBGP session to the route
/// server, a received-routes RIB, and the blackhole FIB consulted by the
/// fabric at ingress.
class MemberRouter {
 public:
  MemberRouter(sim::EventQueue& queue, MemberInfo info, net::IPv4Address blackhole_next_hop,
               net::IPv6Address blackhole_next_hop6 = net::IPv6Address());

  /// Attaches the transport to the route server and starts the session.
  /// Any previous session is stopped first.
  void connect(std::shared_ptr<bgp::Endpoint> transport);

  /// Self-healing connect: dials through `factory` (typically another
  /// RouteServer::accept_member call), re-dials with backoff + flap damping
  /// after unexpected session loss, and on every re-establishment requests a
  /// ROUTE-REFRESH and replays this router's own announcements — so a member
  /// that flaps converges back to its pre-failure signaling state without
  /// operator action. Announcements made through announce() are replayed;
  /// raw session()->announce() traffic is not tracked.
  void connect_resilient(bgp::ReconnectingSession::TransportFactory factory,
                         bgp::ReconnectPolicy policy);

  /// Announces a prefix (net::Prefix4 or net::Prefix6; IPv6 travels in
  /// MP_REACH/MP_UNREACH, RFC 4760) to the route server with optional
  /// communities, or withdraws it.
  template <typename PrefixT>
  void announce(const PrefixT& prefix, std::vector<bgp::Community> communities = {},
                std::vector<bgp::ExtendedCommunity> extended = {},
                std::vector<bgp::LargeCommunity> large = {});
  template <typename PrefixT>
  void withdraw(const PrefixT& prefix);

  /// Changes the member's import policy at runtime — the §2.4 remediation
  /// story: an operator fixes the config that filtered /32 blackholes. Sends
  /// a ROUTE-REFRESH so previously rejected routes are re-advertised and
  /// re-evaluated; on tightening, now-forbidden routes are dropped locally.
  void update_policy(MemberPolicy policy);

  /// Ingress check used by the fabric: does this member's router currently
  /// send traffic for `dst` into the blackhole next-hop?
  [[nodiscard]] bool blackholes(net::IPv4Address dst) const;
  [[nodiscard]] bool blackholes(const net::IPv6Address& dst) const;

  [[nodiscard]] const MemberInfo& info() const { return info_; }
  template <typename PrefixT = net::Prefix4>
  [[nodiscard]] const MemberRib<PrefixT>& rib() const { return ribs_.get<PrefixT>(); }
  [[nodiscard]] bgp::Session* session() {
    return reconnector_ ? reconnector_->session() : session_.get();
  }
  /// Non-null after connect_resilient(): the recovery state machine.
  [[nodiscard]] bgp::ReconnectingSession* reconnector() { return reconnector_.get(); }
  template <typename PrefixT = net::Prefix4>
  [[nodiscard]] const std::set<PrefixT>& blackholed_prefixes() const {
    return blackholed_.get<PrefixT>();
  }
  [[nodiscard]] std::uint64_t rejected_more_specifics() const { return rejected_more_specifics_; }

 private:
  /// What this router has told the route server (for replay on reconnect).
  struct AnnouncedAttrs {
    std::vector<bgp::Community> communities;
    std::vector<bgp::ExtendedCommunity> extended;
    std::vector<bgp::LargeCommunity> large;
  };
  template <typename PrefixT>
  using AnnouncedMap = std::map<PrefixT, AnnouncedAttrs>;
  template <typename PrefixT>
  using PrefixSet = std::set<PrefixT>;

  void on_update(const bgp::ReceivedUpdate& update);
  /// Flushes every route learned from the route server when the session closes.
  void on_state(bgp::SessionState state);
  void teardown_session();
  /// Asks the route server to re-send every AFI this router runs.
  void request_refresh(bgp::Session& session);
  /// Re-announces everything in announced_ (post-reconnect).
  void replay_announcements();

  // Per-AFI halves of replay_announcements, on_update, update_policy and
  // blackholes.
  template <typename PrefixT>
  void send_announce(const PrefixT& prefix, const AnnouncedAttrs& attrs);
  template <typename PrefixT>
  void import_update(const bgp::ReceivedUpdate& update);
  /// Drops accepted routes past the AFI's more-specific boundary.
  template <typename PrefixT>
  void evict_more_specifics();
  template <typename PrefixT>
  [[nodiscard]] bool in_blackhole(const typename bgp::Afi<PrefixT>::Address& dst) const;

  sim::EventQueue& queue_;
  MemberInfo info_;
  net::IPv4Address blackhole_next_hop_;
  net::IPv6Address blackhole_next_hop6_;
  std::unique_ptr<bgp::Session> session_;
  std::unique_ptr<bgp::ReconnectingSession> reconnector_;
  bgp::PerAfi<AnnouncedMap> announced_;
  bgp::PerAfi<MemberRib> ribs_;        ///< Accepted routes from the route server.
  /// Prefixes routed into the blackhole, kept apart from ribs_ so the
  /// fabric's per-flow blackholes() scans only them.
  bgp::PerAfi<PrefixSet> blackholed_;
  std::uint64_t rejected_more_specifics_ = 0;
};

}  // namespace stellar::ixp
