// BGP session: finite state machine (RFC 4271 §8, reduced to the states an
// always-connected in-memory transport can reach), capability negotiation,
// keepalive/hold timers on the simulation clock, and stream reassembly of the
// wire format.
//
// The transport is a pair of in-memory endpoints joined by a Link with a
// configurable one-way latency — the moral equivalent of a TCP connection
// across the IXP peering LAN. Sessions never see each other directly; they
// only exchange encoded bytes, so everything above the transport exercises
// the real codec.
//
// Fan-out once. Links carry immutable, shared frames (bgp::Frame), so one
// encoded message can travel to many peers without a copy:
//   - Encode once per group. A route server hands every session of an
//     update group one SharedUpdate; each Established session sends the
//     frame encoded once per tx codec.
//   - Decode once per frame. A frame that holds exactly one whole,
//     well-formed message of any kind decodes once per rx codec and keeps
//     the result with itself. A session whose rx buffer is empty hands that
//     message to handle_message, so the receivers of a fan-out share one
//     decoded message; the FSM checks (UPDATE outside Established, ...) are
//     the same as on the reassembly path. Partial, coalesced or corrupt
//     input takes the stream-reassembly path.
//   - Deliver once per group. Sends of one frame that arrive at one instant
//     and take consecutive sequence numbers share one queued event, which
//     makes the arrivals in send order (EventQueue::join_batch; DESIGN §8,
//     coalesced delivery). A group's sends over lazy links take no other
//     number, so its fan-out is one event; a timer arm between two sends
//     (an eager link) splits it.
//   - Intern once per frame. The update handler gets a ReceivedUpdate whose
//     attrs() interns on first use and keeps the result with the frame's
//     decode, so the receivers of a fan-out share one intern per rx codec.
//   - Private copies under fault filters. A link with a fault filter copies
//     the frame before the filter may touch it, so a corrupting link never
//     changes the bytes another peer receives.
//   - KEEPALIVE is the same 19 bytes under every codec: one frame per
//     process, decoded once per codec.
//
// Lazy upkeep. Once both sessions of a link without a fault filter are
// Established, keeping the link alive costs nothing: neither side queues a
// keepalive timer event or sends a KEEPALIVE frame, and neither arms its hold
// timer, for keepalives or for real messages. Each side keeps two instants:
// when its next keepalive is due (re-anchored at establishment and by every
// UPDATE or ROUTE-REFRESH it sends) and when its hold timer was last armed.
// The keepalives the timers would send follow from them with the timers' own
// double sums: due at t, the next at t + hold/3, arriving at t + latency.
// They keep the peer's hold timer from ever expiring, because the link's
// latency is below hold/3 (a slower link keeps its timers).
// The virtual keepalives become real state only where they can be seen:
//   - keepalives_received() counts those arrived by now();
//   - before either side closes (stop(), a failure, a NOTIFICATION received,
//     Endpoint::close() from outside), before either Session is destroyed,
//     before bytes from outside the sessions enter the link, and when a
//     partial message is left in an rx buffer (keepalives would complete
//     it), the link turns eager for good. Keepalives in flight become delivery events, each
//     keepalive timer is armed at its next due instant and each hold timer
//     at (last arrival) + hold. So keepalives in flight at a close are
//     dropped or counted as sends after close, and a Session destroyed
//     without closing its transport expires the survivor's hold timer, as
//     with the timers running all along.
// Endpoint::Stats need no such step: no keepalive can be lost while both
// ends are open and both sessions alive.
// Tie rule. A virtual keepalive due at the current instant counts as sent
// (and, at its arrival instant, as received) before any other event or call
// at that instant. The events made real when a link turns eager are queued
// then, behind events already queued for their instants; of the two
// keepalive timers, the one anchored earlier is armed first, as the timers
// would order them. The timers order by sequence number instead, so the two
// differ only for an event queued more than hold/3 (for a send) or more than
// the latency (for an arrival) before the instant it lands on exactly, or
// queued between a virtual keepalive and the trigger for the instant a
// made-real event lands on.
// A fault filter must be set before the link's first send; a link with one
// keeps its timers and KEEPALIVE frames.
#pragma once

#include <cstdint>
#include <deque>
#include <forward_list>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/intern.hpp"
#include "bgp/message.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace stellar::bgp {

class Session;

/// One encoded BGP message (or any byte string a test sends) as it crosses a
/// link: immutable, so any number of peers may receive the same frame.
class Frame {
 public:
  explicit Frame(std::vector<std::uint8_t> bytes) : bytes_(std::move(bytes)) {}
  Frame(const Frame&) = delete;
  Frame& operator=(const Frame&) = delete;

  [[nodiscard]] std::span<const std::uint8_t> bytes() const { return bytes_; }

  /// The message these bytes hold under `codec`, or null unless they hold
  /// exactly one complete, well-formed message. Decoded on the first call per
  /// codec; later calls return the same object, which lives as long as the
  /// frame.
  [[nodiscard]] const Message* message(const CodecOptions& codec) const {
    const Decoded& d = decode(codec);
    return d.message ? &*d.message : nullptr;
  }

 private:
  friend class Session;

  struct Decoded {
    CodecOptions codec;
    std::optional<Message> message;
    /// An UPDATE's attributes, interned on the first ReceivedUpdate::attrs().
    mutable std::shared_ptr<const PathAttributes> attrs;
  };
  [[nodiscard]] const Decoded& decode(const CodecOptions& codec) const;

  std::vector<std::uint8_t> bytes_;
  /// One entry per codec asked for; a list, so a returned pointer stays
  /// valid when a later codec adds an entry.
  mutable std::forward_list<Decoded> decoded_;
};

using FramePtr = std::shared_ptr<const Frame>;

/// One UPDATE sent to many sessions (a route server's update group). Encoded
/// on first use per tx codec, so every session that sends it under the same
/// codec hands its link the same frame.
class SharedUpdate {
 public:
  explicit SharedUpdate(UpdateMessage update) : update_(std::move(update)) {}

  [[nodiscard]] const UpdateMessage& message() const { return update_; }
  [[nodiscard]] const FramePtr& frame(const CodecOptions& codec);

 private:
  UpdateMessage update_;
  std::vector<std::pair<CodecOptions, FramePtr>> frames_;
};

/// An UPDATE as a Session hands it to its handler, valid for that call.
/// Converts to the message, so a handler may take `const UpdateMessage&`.
class ReceivedUpdate {
 public:
  ReceivedUpdate(const UpdateMessage& message, std::shared_ptr<const PathAttributes>& attrs)
      : message_(message), attrs_(attrs) {}

  [[nodiscard]] const UpdateMessage& message() const { return message_; }
  operator const UpdateMessage&() const { return message_; }  // NOLINT: implicit by design.
  /// The message's attributes, interned (AttrPool::global()) on the first
  /// call. An UPDATE that came as a frame of its own keeps them with the
  /// frame's decode, so the receivers of a fan-out share one intern per rx
  /// codec.
  [[nodiscard]] const std::shared_ptr<const PathAttributes>& attrs() const {
    if (attrs_ == nullptr) attrs_ = Intern(message_.attrs);
    return attrs_;
  }

 private:
  const UpdateMessage& message_;
  std::shared_ptr<const PathAttributes>& attrs_;
};

/// One side of an in-memory duplex byte pipe.
class Endpoint {
 public:
  using ReceiveHandler = std::function<void(const Frame&)>;
  using CloseHandler = std::function<void()>;
  /// Per-message fault hook (see sim/fault.hpp): may mutate the bytes
  /// (corruption) or add extra one-way delay; returning false drops the
  /// message entirely. Called once per send() on an open link, on a private
  /// copy of the frame's bytes. Set it before the link's first send.
  using FaultFilter = std::function<bool(std::vector<std::uint8_t>& bytes,
                                         sim::Duration& extra_delay)>;

  /// Sends a frame to the peer endpoint; it arrives after the link latency.
  /// On a closed link (either side) this is a counted no-op. Bytes sent from
  /// outside the sessions turn a link with lazy upkeep eager first (see
  /// Session).
  void send(FramePtr frame);
  void send(std::vector<std::uint8_t> bytes);
  /// Closes both directions; the peer's close handler fires after latency.
  /// A link with lazy upkeep turns eager first (see Session).
  void close();
  [[nodiscard]] bool closed() const { return closed_; }

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }
  void set_close_handler(CloseHandler h) { on_close_ = std::move(h); }
  /// Throws std::logic_error once either end of the link has sent.
  void set_fault_filter(FaultFilter f);

  struct Stats {
    /// send() calls attempted after this side closed or the peer was
    /// closed/destroyed — the bytes never left the host.
    std::uint64_t sends_after_close = 0;
    /// Total payload bytes that never reached the peer's receive handler
    /// (sends after close, in-flight bytes arriving at a closed peer, and
    /// fault-injector drops).
    std::uint64_t dropped_bytes = 0;
  };
  /// Thin read over the obs registry cells: per-endpoint values stay exact
  /// because each endpoint owns its own instance cells.
  [[nodiscard]] const Stats& stats() const {
    stats_.sends_after_close = sends_after_close_.value();
    stats_.dropped_bytes = dropped_bytes_.value();
    return stats_;
  }

 private:
  friend std::pair<std::shared_ptr<Endpoint>, std::shared_ptr<Endpoint>> MakeLink(
      sim::EventQueue& queue, sim::Duration latency);
  friend class Session;

  /// Arrivals of one frame at one instant, queued as one event.
  class Delivery;

  /// send() without the lazy-upkeep check: a session's own messages.
  void transmit(FramePtr frame);
  /// Queues the arrival of `frame` at `peer` at instant `at`: joins the
  /// frame's open Delivery for that instant when it may (see
  /// EventQueue::join_batch), else opens one.
  void deliver_at(sim::SimTime at, std::shared_ptr<Endpoint> peer, FramePtr frame);

  sim::EventQueue* queue_ = nullptr;
  sim::Duration latency_{0.0};
  std::weak_ptr<Endpoint> peer_;
  ReceiveHandler on_receive_;
  CloseHandler on_close_;
  FaultFilter fault_filter_;
  Session* session_ = nullptr;  ///< The session on this endpoint, if any.
  bool sent_ = false;           ///< This end has sent (or tried to).
  bool closed_ = false;
  obs::Counter sends_after_close_ = obs::registry().counter("bgp.endpoint.sends_after_close");
  obs::Counter dropped_bytes_ = obs::registry().counter("bgp.endpoint.dropped_bytes");
  mutable Stats stats_;
};

/// Creates a connected endpoint pair with the given one-way latency.
std::pair<std::shared_ptr<Endpoint>, std::shared_ptr<Endpoint>> MakeLink(
    sim::EventQueue& queue, sim::Duration latency = sim::Millis(1.0));

/// Observation hook for every link MakeLink creates (fault injection, link
/// telemetry). Single-threaded simulation-global state: at most one hook is
/// active; pass nullptr to uninstall. Returns the previously installed hook.
using LinkHook = std::function<void(const std::shared_ptr<Endpoint>&,
                                    const std::shared_ptr<Endpoint>&)>;
LinkHook SetLinkHook(LinkHook hook);

enum class SessionState : std::uint8_t {
  kIdle,
  kOpenSent,
  kOpenConfirm,
  kEstablished,
  kClosed,
};

[[nodiscard]] std::string_view ToString(SessionState s);

struct SessionConfig {
  Asn local_asn = 0;
  net::IPv4Address router_id;
  std::uint16_t hold_time_s = 90;  ///< 0 disables keepalive/hold timers.
  bool add_path_rx = false;        ///< Willing to receive ADD-PATH NLRI (IPv4 unicast).
  bool add_path_tx = false;        ///< Willing to send ADD-PATH NLRI.
  bool announce_ipv6_unicast = false;
};

/// A point-to-point BGP session over an Endpoint.
class Session {
 public:
  using UpdateHandler = std::function<void(const ReceivedUpdate&)>;
  using StateHandler = std::function<void(SessionState)>;
  using RefreshHandler = std::function<void(const RouteRefreshMessage&)>;

  Session(sim::EventQueue& queue, std::shared_ptr<Endpoint> transport, SessionConfig config);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Kicks the FSM: sends OPEN and moves Idle -> OpenSent.
  void start();

  /// Queues an UPDATE. Sent immediately when Established, otherwise buffered
  /// and flushed on establishment (mirrors initial RIB synchronization).
  void announce(UpdateMessage update);
  /// The same for an UPDATE shared with other sessions: when Established,
  /// sends the frame every session with this tx codec shares.
  void announce(SharedUpdate& update);

  /// Sends NOTIFICATION(Cease) and closes the transport.
  void stop(std::uint8_t cease_subcode = 0);

  /// Sends a ROUTE-REFRESH (RFC 2918) asking the peer to re-advertise its
  /// Adj-RIB-Out for the AFI/SAFI. Only meaningful once Established.
  void request_route_refresh(std::uint16_t afi = kAfiIPv4,
                             std::uint8_t safi = kSafiUnicast);

  [[nodiscard]] SessionState state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == SessionState::kEstablished; }
  [[nodiscard]] Asn local_asn() const { return config_.local_asn; }
  /// Peer ASN; valid once >= OpenConfirm.
  [[nodiscard]] Asn peer_asn() const { return peer_asn_; }
  [[nodiscard]] bool is_ibgp() const { return peer_asn_ == config_.local_asn; }
  /// Negotiated hold time (min of both OPENs); valid once Established.
  [[nodiscard]] std::uint16_t negotiated_hold_time_s() const { return hold_time_s_; }
  /// True if the peer will include path-ids in NLRI it sends to us.
  [[nodiscard]] bool add_path_rx_negotiated() const { return rx_codec_.add_path_ipv4_unicast; }
  [[nodiscard]] bool add_path_tx_negotiated() const { return tx_codec_.add_path_ipv4_unicast; }
  /// True once the peer's OPEN advertised the route-refresh capability.
  [[nodiscard]] bool peer_supports_route_refresh() const {
    return peer_supports_route_refresh_;
  }

  void set_update_handler(UpdateHandler h) { on_update_ = std::move(h); }
  void set_state_handler(StateHandler h) { on_state_ = std::move(h); }
  void set_refresh_handler(RefreshHandler h) { on_refresh_ = std::move(h); }

  // Introspection counters (looking-glass / tests).
  [[nodiscard]] std::uint64_t updates_sent() const { return updates_sent_; }
  [[nodiscard]] std::uint64_t updates_received() const { return updates_received_; }
  /// Virtual keepalives count once arrived (see "Lazy upkeep" above).
  [[nodiscard]] std::uint64_t keepalives_received() const;

 private:
  friend class Endpoint;  // close() and send() make upkeep real.

  void on_frame(const Frame& frame);
  void on_bytes(std::span<const std::uint8_t> bytes);
  void on_transport_closed();
  /// `attrs` memoises an UPDATE's interned attributes (ReceivedUpdate).
  void handle_message(const Message& msg, std::shared_ptr<const PathAttributes>& attrs);
  void handle_open(const OpenMessage& open);
  void enter_established();
  template <typename M>
  void send(const M& msg, const CodecOptions& codec);
  void send_keepalive();
  void fail(NotificationCode code, std::uint8_t subcode, const std::string& why);
  void set_state(SessionState s);
  void arm_hold_timer();
  void arm_keepalive_timer();
  [[nodiscard]] sim::Duration keepalive_interval() const {
    return sim::Seconds(hold_time_s_ / 3.0);
  }
  /// Goes lazy if the peer session is Established too and the link allows.
  void start_lazy_upkeep();
  /// Sender side of lazy upkeep: sends the virtual keepalives due by now()
  /// and delivers those arrived by now() to the peer.
  void advance_keepalives();
  /// Turns a lazy link eager (both sides); a no-op on an eager one.
  void make_upkeep_real();

  sim::EventQueue& queue_;
  std::shared_ptr<Endpoint> transport_;
  SessionConfig config_;

  SessionState state_ = SessionState::kIdle;
  Asn peer_asn_ = 0;
  std::uint16_t hold_time_s_ = 0;
  bool peer_supports_route_refresh_ = false;
  CodecOptions rx_codec_;  ///< How we decode what the peer sends.
  CodecOptions tx_codec_;  ///< How we encode what we send.

  std::vector<std::uint8_t> rx_buffer_;
  std::deque<UpdateMessage> pending_;
  UpdateHandler on_update_;
  StateHandler on_state_;
  RefreshHandler on_refresh_;

  sim::Timer hold_timer_{queue_, [this] {
    if (state_ != SessionState::kEstablished) return;
    fail(NotificationCode::kHoldTimerExpired, 0, "hold timer expired");
  }};
  sim::Timer keepalive_timer_{queue_, [this] {
    if (state_ != SessionState::kEstablished) return;
    send_keepalive();
    arm_keepalive_timer();
  }};

  /// When the keepalive timer is (or, lazily, would be) due.
  sim::SimTime next_keepalive_{0.0};
  /// The queue's next_seq() when that schedule was last anchored by a real
  /// arm or send: of two keepalives due at one instant, the timers send the
  /// one anchored earlier first.
  std::uint64_t keepalive_anchor_ = 0;
  /// When the hold timer was (or, lazily, would have been) last armed.
  sim::SimTime hold_from_{0.0};
  /// Lazy upkeep: the peer's session; null while the timers run.
  Session* lazy_peer_ = nullptr;
  /// Lazy upkeep: arrival instants of virtual keepalives in flight.
  std::vector<sim::SimTime> keepalives_in_flight_;

  std::uint64_t updates_sent_ = 0;
  std::uint64_t updates_received_ = 0;
  std::uint64_t keepalives_received_ = 0;
};

}  // namespace stellar::bgp
