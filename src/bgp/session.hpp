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
//   - Private copies under fault filters. A link with a fault filter copies
//     the frame before the filter may touch it, so a corrupting link never
//     changes the bytes another peer receives.
//   - KEEPALIVE is the same 19 bytes under every codec: one frame per
//     process, decoded once per codec.
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

#include "bgp/message.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace stellar::bgp {

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
  [[nodiscard]] const Message* message(const CodecOptions& codec) const;

 private:
  struct Decoded {
    CodecOptions codec;
    std::optional<Message> message;
  };

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

/// One side of an in-memory duplex byte pipe.
class Endpoint {
 public:
  using ReceiveHandler = std::function<void(const Frame&)>;
  using CloseHandler = std::function<void()>;
  /// Per-message fault hook (see sim/fault.hpp): may mutate the bytes
  /// (corruption) or add extra one-way delay; returning false drops the
  /// message entirely. Called once per send() on an open link, on a private
  /// copy of the frame's bytes.
  using FaultFilter = std::function<bool(std::vector<std::uint8_t>& bytes,
                                         sim::Duration& extra_delay)>;

  /// Sends a frame to the peer endpoint; it arrives after the link latency.
  /// On a closed link (either side) this is a counted no-op.
  void send(FramePtr frame);
  void send(std::vector<std::uint8_t> bytes);
  /// Closes both directions; the peer's close handler fires after latency.
  void close();
  [[nodiscard]] bool closed() const { return closed_; }

  void set_receive_handler(ReceiveHandler h) { on_receive_ = std::move(h); }
  void set_close_handler(CloseHandler h) { on_close_ = std::move(h); }
  void set_fault_filter(FaultFilter f) { fault_filter_ = std::move(f); }

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

  sim::EventQueue* queue_ = nullptr;
  sim::Duration latency_{0.0};
  std::weak_ptr<Endpoint> self_;  ///< For stats updates from queued events.
  std::weak_ptr<Endpoint> peer_;
  ReceiveHandler on_receive_;
  CloseHandler on_close_;
  FaultFilter fault_filter_;
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
  using UpdateHandler = std::function<void(const UpdateMessage&)>;
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
  [[nodiscard]] std::uint64_t keepalives_received() const { return keepalives_received_; }

 private:
  void on_frame(const Frame& frame);
  void on_bytes(std::span<const std::uint8_t> bytes);
  void on_transport_closed();
  void handle_message(const Message& msg);
  void handle_open(const OpenMessage& open);
  void enter_established();
  void send(const Message& msg, const CodecOptions& codec);
  void send_keepalive();
  void fail(NotificationCode code, std::uint8_t subcode, const std::string& why);
  void set_state(SessionState s);
  void arm_hold_timer();
  void arm_keepalive_timer();

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

  std::uint64_t updates_sent_ = 0;
  std::uint64_t updates_received_ = 0;
  std::uint64_t keepalives_received_ = 0;
};

}  // namespace stellar::bgp
