// IXP route server (paper §2.1, §4.3): multilateral peering hub, import
// hygiene (IRR / RPKI / bogons), scope-control ("action") communities,
// classic RTBH blackhole handling with next-hop rewriting, and the ADD-PATH
// iBGP southbound session feeding the Stellar blackholing controller.
//
// Key property inherited by Stellar (paper §4.3): "as opposed to RTBH, the
// route server does not reflect [Advanced Blackholing] signals back to the
// other members" — signals addressed to the IXP itself (announce-to-none)
// still reach the controller session, which receives *every* accepted path
// with a distinct ADD-PATH path-id.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bgp/rib.hpp"
#include "bgp/session.hpp"
#include "ixp/irr.hpp"
#include "net/ip.hpp"
#include "sim/event_queue.hpp"

namespace stellar::ixp {

/// One accepted blackhole announcement or withdrawal, logged for the Fig. 3b
/// analysis of how members scope their RTBH requests. IPv6 events (paper
/// footnote 4: <1% of blackholing traffic, but the mechanism is
/// AFI-agnostic) carry the same fields.
template <typename PrefixT>
struct BasicBlackholeEvent {
  double time_s = 0.0;
  bgp::Asn member = 0;
  PrefixT prefix;
  int excluded_peers = 0;   ///< "All-k": number of (0:peer) exclusions.
  int included_peers = 0;   ///< Explicit (ixp:peer) inclusions.
  bool announce_to_none = false;  ///< (0:ixp_asn) present.
  bool withdrawn = false;
};

/// Import hygiene, scope control, RTBH next-hop rewrite and implicit withdraw
/// are written once over the prefix type (bgp::Afi holds the wire
/// differences). Three policy points differ by AFI: RPKI validation and the
/// controller feed are IPv4 only, and IPv6 import runs only with an IRR6.
class RouteServer {
 public:
  struct Config {
    bgp::Asn asn = 64500;  ///< The IXP's ASN (route server + community namespace).
    net::IPv4Address router_id{net::IPv4Address(10, 99, 0, 1)};
    net::IPv4Address blackhole_next_hop{net::IPv4Address(10, 99, 0, 66)};
    /// RFC 6666 discard-only prefix: 100::1.
    net::IPv6Address blackhole_next_hop6{DiscardOnlyV6()};
    const IrrDatabase* irr = nullptr;       ///< Required: prefix-ownership checks.
    const Irr6Database* irr6 = nullptr;     ///< Optional: enables IPv6 announcements.
    const RpkiValidator* rpki = nullptr;    ///< Optional: RPKI invalid => reject.
    const BogonList* bogons = nullptr;      ///< Optional: bogon announcements => reject.
    const Bogon6List* bogons6 = nullptr;

    /// 100::1 inside the RFC 6666 discard-only block.
    static net::IPv6Address DiscardOnlyV6() {
      net::IPv6Address::Bytes b{};
      b[0] = 0x01;
      b[15] = 0x01;
      return net::IPv6Address(b);
    }
  };

  struct RejectStats {
    std::uint64_t bogon = 0;
    std::uint64_t irr_unauthorized = 0;
    std::uint64_t rpki_invalid = 0;
    std::uint64_t too_specific = 0;      ///< Past bgp::Afi::kMaxCommonLength, not a blackhole.
    std::uint64_t origin_mismatch = 0;   ///< AS path origin != announcing member.

    [[nodiscard]] std::uint64_t total() const {
      return bogon + irr_unauthorized + rpki_invalid + too_specific + origin_mismatch;
    }
  };

  using BlackholeEvent = BasicBlackholeEvent<net::Prefix4>;

  RouteServer(sim::EventQueue& queue, Config config);

  /// Creates the server side of a member eBGP session and returns the
  /// transport endpoint the member router should connect to.
  std::shared_ptr<bgp::Endpoint> accept_member(bgp::Asn member_asn);

  /// Creates the southbound iBGP+ADD-PATH session and returns the endpoint
  /// for the blackholing controller. All currently accepted routes are
  /// queued for initial synchronization.
  std::shared_ptr<bgp::Endpoint> accept_controller();

  // -- Scope-control community helpers (IXP community namespace) ------------
  /// (0:peer) — do not announce to `peer`.
  [[nodiscard]] bgp::Community exclude_peer(bgp::Asn peer) const;
  /// (ixp:peer) — announce to `peer` (with announce-to-none, an allowlist).
  [[nodiscard]] bgp::Community include_peer(bgp::Asn peer) const;
  /// (0:ixp) — announce to no member (the Stellar-style "IXP only" scope).
  [[nodiscard]] bgp::Community announce_to_none() const;

  // -- Introspection ----------------------------------------------------------
  template <typename PrefixT = net::Prefix4>
  [[nodiscard]] const bgp::BasicRib<PrefixT>& adj_rib_in() const { return ribs_.get<PrefixT>(); }
  [[nodiscard]] const RejectStats& rejects() const { return rejects_; }
  template <typename PrefixT = net::Prefix4>
  [[nodiscard]] const std::vector<BasicBlackholeEvent<PrefixT>>& blackhole_events() const {
    return events_.get<PrefixT>();
  }
  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] std::size_t established_member_sessions() const;
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] bgp::Asn member_asn_of_peer(bgp::PeerId peer) const;

 private:
  /// Adj-RIB-Out record of one prefix: slot i holds the interned attributes
  /// last sent to member i. A null slot, or one past the end, means "not
  /// exported"; a prefix absent from the map is held by no member. Interned:
  /// all members holding the same best path share one allocation, and the
  /// did-it-change check is a pointer comparison.
  template <typename PrefixT>
  using AdjRibOut = std::map<PrefixT, std::vector<std::shared_ptr<const bgp::PathAttributes>>>;
  template <typename PrefixT>
  using EventLog = std::vector<BasicBlackholeEvent<PrefixT>>;

  struct MemberPeer {
    bgp::Asn asn = 0;
    std::unique_ptr<bgp::Session> session;
  };

  void on_member_update(bgp::PeerId peer, const bgp::UpdateMessage& update);
  /// Implicit withdraw on session failure: every route of the dead peer is
  /// removed and withdrawn from members and the controller.
  void on_member_session_closed(bgp::PeerId peer);
  /// ROUTE-REFRESH from a member: forgets what was exported to it for the
  /// AFI and re-sends every eligible route.
  void on_member_refresh(bgp::PeerId peer, const bgp::RouteRefreshMessage& refresh);

  // Per-AFI halves of the three handlers above.
  template <typename PrefixT>
  void import_update(bgp::PeerId peer, const bgp::UpdateMessage& update);
  template <typename PrefixT>
  void withdraw_peer(bgp::PeerId peer);
  template <typename PrefixT>
  void refresh_member(std::size_t member_index);
  /// Nulls member_index's slot in every Adj-RIB-Out record of the AFI.
  template <typename PrefixT>
  void forget_exports(std::size_t member_index);

  template <typename PrefixT>
  [[nodiscard]] bool import_accept(const MemberPeer& from, const PrefixT& prefix,
                                   const bgp::PathAttributes& attrs);
  template <typename PrefixT>
  void log_blackhole_event(const MemberPeer& from, const PrefixT& prefix,
                           const bgp::PathAttributes& attrs, bool withdrawn);
  /// Re-runs best-path selection for `prefix` towards members [first, last),
  /// in ascending order, and sends each one the announce or withdraw that
  /// brings it in line with its Adj-RIB-Out slot.
  template <typename PrefixT>
  void reexport(const PrefixT& prefix, std::size_t first, std::size_t last);
  /// True if a route with these attributes may be exported to `target`.
  [[nodiscard]] bool eligible(const bgp::PathAttributes& attrs, bgp::Asn target) const;
  /// True if eligible() may accept these attributes for some member.
  [[nodiscard]] bool exportable(const bgp::PathAttributes& attrs) const;
  /// Attributes as exported to members: scope communities stripped, blackhole
  /// next-hop rewritten, Stellar extended communities removed.
  template <typename PrefixT>
  [[nodiscard]] bgp::PathAttributes member_export_attrs(const bgp::PathAttributes& attrs) const;
  /// Sends a member's accepted route to the controller under its peer's
  /// ADD-PATH path-id.
  void controller_announce(const bgp::RouteView& route);
  void controller_withdraw(const net::Prefix4& prefix, bgp::PeerId peer);

  sim::EventQueue& queue_;
  Config config_;
  std::vector<MemberPeer> members_;  ///< PeerId = index + 1.
  bgp::PerAfi<bgp::BasicRib> ribs_;  ///< All accepted member routes.
  bgp::PerAfi<AdjRibOut> adj_rib_out_;
  std::unique_ptr<bgp::Session> controller_session_;
  RejectStats rejects_;
  bgp::PerAfi<EventLog> events_;
};

}  // namespace stellar::ixp
