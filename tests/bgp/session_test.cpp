#include "bgp/session.hpp"

#include <gtest/gtest.h>

namespace stellar::bgp {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

struct SessionPair {
  sim::EventQueue queue;
  std::unique_ptr<Session> a;
  std::unique_ptr<Session> b;
  std::vector<UpdateMessage> a_received;
  std::vector<UpdateMessage> b_received;

  explicit SessionPair(SessionConfig ca, SessionConfig cb) {
    auto [ea, eb] = MakeLink(queue);
    a = std::make_unique<Session>(queue, ea, ca);
    b = std::make_unique<Session>(queue, eb, cb);
    a->set_update_handler([this](const UpdateMessage& u) { a_received.push_back(u); });
    b->set_update_handler([this](const UpdateMessage& u) { b_received.push_back(u); });
  }

  void establish() {
    a->start();
    b->start();
    queue.run_until(sim::Seconds(1.0));
  }
};

SessionConfig Cfg(Asn asn, std::uint8_t id) {
  SessionConfig c;
  c.local_asn = asn;
  c.router_id = net::IPv4Address(10, 0, 0, id);
  return c;
}

/// Gives every link created while alive a pass-through fault filter, so its
/// sessions run their keepalive and hold timers instead of lazy upkeep.
class PassThroughFilters {
 public:
  PassThroughFilters() {
    previous_ = SetLinkHook(
        [](const std::shared_ptr<Endpoint>& a, const std::shared_ptr<Endpoint>& b) {
          const auto pass = [](std::vector<std::uint8_t>&, sim::Duration&) { return true; };
          a->set_fault_filter(pass);
          b->set_fault_filter(pass);
        });
  }
  ~PassThroughFilters() { SetLinkHook(std::move(previous_)); }
  PassThroughFilters(const PassThroughFilters&) = delete;
  PassThroughFilters& operator=(const PassThroughFilters&) = delete;

 private:
  LinkHook previous_;
};

/// Runs a case on both kinds of link: as `Suite.Name` on a clean link (lazy
/// upkeep) and as `SuiteOnFilteredLink.Name` with pass-through filters (the
/// timers and KEEPALIVE frames). The body follows the macro like a TEST body.
#define LINK_KIND_TEST(Suite, Name)                  \
  void Name##Body();                                 \
  TEST(Suite, Name) { Name##Body(); }                \
  TEST(Suite##OnFilteredLink, Name) {                \
    PassThroughFilters filters;                      \
    Name##Body();                                    \
  }                                                  \
  void Name##Body()

TEST(SessionTest, EstablishesViaOpenKeepalive) {
  SessionPair pair(Cfg(65001, 1), Cfg(65002, 2));
  pair.establish();
  EXPECT_TRUE(pair.a->established());
  EXPECT_TRUE(pair.b->established());
  EXPECT_EQ(pair.a->peer_asn(), 65002u);
  EXPECT_EQ(pair.b->peer_asn(), 65001u);
  EXPECT_FALSE(pair.a->is_ibgp());
}

TEST(SessionTest, IbgpDetected) {
  SessionPair pair(Cfg(64500, 1), Cfg(64500, 2));
  pair.establish();
  EXPECT_TRUE(pair.a->is_ibgp());
}

TEST(SessionTest, HoldTimeNegotiatedToMinimum) {
  SessionConfig ca = Cfg(65001, 1);
  ca.hold_time_s = 90;
  SessionConfig cb = Cfg(65002, 2);
  cb.hold_time_s = 30;
  SessionPair pair(ca, cb);
  pair.establish();
  EXPECT_EQ(pair.a->negotiated_hold_time_s(), 30);
  EXPECT_EQ(pair.b->negotiated_hold_time_s(), 30);
}

TEST(SessionTest, UpdateDelivered) {
  SessionPair pair(Cfg(65001, 1), Cfg(65002, 2));
  pair.establish();
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.as_path = {{AsPathSegment::Type::kSequence, {65001}}};
  u.attrs.next_hop = net::IPv4Address(10, 0, 0, 1);
  u.announced = {{0, P4("60.1.0.0/20")}};
  pair.a->announce(u);
  pair.queue.run_until(sim::Seconds(2.0));
  ASSERT_EQ(pair.b_received.size(), 1u);
  EXPECT_EQ(pair.b_received[0], u);
  EXPECT_EQ(pair.a->updates_sent(), 1u);
  EXPECT_EQ(pair.b->updates_received(), 1u);
}

TEST(SessionTest, UpdatesBufferedUntilEstablished) {
  SessionPair pair(Cfg(65001, 1), Cfg(65002, 2));
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.next_hop = net::IPv4Address(10, 0, 0, 1);
  u.announced = {{0, P4("60.1.0.0/20")}};
  pair.a->announce(u);  // Before start: must queue, not crash.
  EXPECT_EQ(pair.a->updates_sent(), 0u);
  pair.establish();
  pair.queue.run_until(sim::Seconds(2.0));
  ASSERT_EQ(pair.b_received.size(), 1u);
}

TEST(SessionTest, AddPathNegotiationDirections) {
  SessionConfig ca = Cfg(64500, 1);
  ca.add_path_tx = true;  // a wants to send path ids.
  SessionConfig cb = Cfg(64500, 2);
  cb.add_path_rx = true;  // b is willing to receive them.
  SessionPair pair(ca, cb);
  pair.establish();
  EXPECT_TRUE(pair.a->add_path_tx_negotiated());
  EXPECT_FALSE(pair.a->add_path_rx_negotiated());
  EXPECT_TRUE(pair.b->add_path_rx_negotiated());
  EXPECT_FALSE(pair.b->add_path_tx_negotiated());

  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.next_hop = net::IPv4Address(1, 1, 1, 1);
  u.announced = {{7, P4("100.10.10.10/32")}, {9, P4("100.10.10.10/32")}};
  pair.a->announce(u);
  pair.queue.run_until(sim::Seconds(2.0));
  ASSERT_EQ(pair.b_received.size(), 1u);
  ASSERT_EQ(pair.b_received[0].announced.size(), 2u);
  EXPECT_EQ(pair.b_received[0].announced[0].path_id, 7u);
  EXPECT_EQ(pair.b_received[0].announced[1].path_id, 9u);
}

TEST(SessionTest, AddPathNotNegotiatedWithoutBothSides) {
  SessionConfig ca = Cfg(65001, 1);
  ca.add_path_tx = true;
  SessionPair pair(ca, Cfg(65002, 2));  // b has no ADD-PATH capability.
  pair.establish();
  EXPECT_FALSE(pair.a->add_path_tx_negotiated());
}

LINK_KIND_TEST(SessionTest, KeepalivesKeepSessionAlive) {
  SessionConfig ca = Cfg(65001, 1);
  ca.hold_time_s = 9;
  SessionConfig cb = Cfg(65002, 2);
  cb.hold_time_s = 9;
  SessionPair pair(ca, cb);
  pair.establish();
  pair.queue.run_until(sim::Seconds(120.0));
  EXPECT_TRUE(pair.a->established());
  EXPECT_TRUE(pair.b->established());
  EXPECT_GT(pair.a->keepalives_received(), 10u);
}

TEST(SessionTest, RouteRefreshCapabilityNegotiatedAndDelivered) {
  SessionPair pair(Cfg(65001, 1), Cfg(65002, 2));
  pair.establish();
  EXPECT_TRUE(pair.a->peer_supports_route_refresh());
  EXPECT_TRUE(pair.b->peer_supports_route_refresh());

  std::vector<bgp::RouteRefreshMessage> received;
  pair.b->set_refresh_handler(
      [&received](const RouteRefreshMessage& m) { received.push_back(m); });
  pair.a->request_route_refresh(kAfiIPv6);
  pair.queue.run_until(pair.queue.now() + sim::Seconds(1.0));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].afi, kAfiIPv6);
  EXPECT_TRUE(pair.a->established());
}

TEST(SessionTest, RouteRefreshNotSentBeforeEstablished) {
  SessionPair pair(Cfg(65001, 1), Cfg(65002, 2));
  std::vector<bgp::RouteRefreshMessage> received;
  pair.b->set_refresh_handler(
      [&received](const RouteRefreshMessage& m) { received.push_back(m); });
  pair.a->request_route_refresh();  // Idle: must be a no-op, not a crash.
  pair.establish();
  pair.queue.run_until(pair.queue.now() + sim::Seconds(1.0));
  EXPECT_TRUE(received.empty());
}

LINK_KIND_TEST(SessionTest, StopSendsCeaseAndCloses) {
  SessionPair pair(Cfg(65001, 1), Cfg(65002, 2));
  pair.establish();
  pair.a->stop();
  pair.queue.run_until(sim::Seconds(3.0));
  EXPECT_EQ(pair.a->state(), SessionState::kClosed);
  EXPECT_EQ(pair.b->state(), SessionState::kClosed);
}

LINK_KIND_TEST(SessionTest, HoldTimerExpiryClosesSilentSession) {
  SessionConfig ca = Cfg(65001, 1);
  ca.hold_time_s = 9;
  SessionConfig cb = Cfg(65002, 2);
  cb.hold_time_s = 9;
  auto pair = std::make_unique<SessionPair>(ca, cb);
  pair->establish();
  ASSERT_TRUE(pair->a->established());
  // The peer's router dies silently: destroying the Session stops its
  // keepalives without closing the transport.
  sim::EventQueue& queue = pair->queue;
  Session& a = *pair->a;
  pair->b.reset();
  queue.run_until(queue.now() + sim::Seconds(30.0));
  EXPECT_EQ(a.state(), SessionState::kClosed);
}

TEST(SessionTest, GarbageBytesTerminateSession) {
  sim::EventQueue queue;
  auto [ea, eb] = MakeLink(queue);
  Session session(queue, ea, Cfg(65001, 1));
  session.start();
  queue.run_until(sim::Seconds(0.5));
  eb->send(std::vector<std::uint8_t>(32, 0x00));  // Invalid marker.
  queue.run_until(sim::Seconds(1.0));
  EXPECT_EQ(session.state(), SessionState::kClosed);
}

// Brings a session to OpenConfirm by hand (the peer's OPEN, no KEEPALIVE
// yet) and records every message the session sends.
struct OpenConfirmPeer {
  sim::EventQueue queue;
  std::shared_ptr<Endpoint> wire;
  std::unique_ptr<Session> session;
  std::vector<Message> sent;

  OpenConfirmPeer() {
    auto [ea, eb] = MakeLink(queue);
    session = std::make_unique<Session>(queue, ea, Cfg(65001, 1));
    wire = eb;
    wire->set_receive_handler([this](const Frame& frame) {
      if (auto msg = Decode(frame.bytes()); msg.ok()) sent.push_back(*msg);
    });
    session->start();
    OpenMessage open;
    open.my_asn = 65002;
    open.bgp_identifier = net::IPv4Address(10, 0, 0, 2);
    open.add_four_octet_as_capability();
    open.capabilities.push_back(Capability{Capability::kRouteRefresh, {}});
    wire->send(Encode(open));
    queue.run_until(sim::Seconds(0.5));
  }

  /// True if the last message the session sent is an FSM-error NOTIFICATION.
  [[nodiscard]] bool sent_fsm_error() const {
    if (sent.empty()) return false;
    const auto* n = std::get_if<NotificationMessage>(&sent.back());
    return n != nullptr && n->code == NotificationCode::kFsmError;
  }
};

TEST(SessionTest, UpdateInOpenConfirmIsAnFsmError) {
  OpenConfirmPeer peer;
  ASSERT_EQ(peer.session->state(), SessionState::kOpenConfirm);
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.as_path = {{AsPathSegment::Type::kSequence, {65002}}};
  u.attrs.next_hop = net::IPv4Address(10, 0, 0, 2);
  u.announced = {{0, P4("60.1.0.0/20")}};
  peer.wire->send(Encode(u));  // One whole, well-formed frame.
  peer.queue.run_until(sim::Seconds(1.0));
  EXPECT_EQ(peer.session->state(), SessionState::kClosed);
  EXPECT_EQ(peer.session->updates_received(), 0u);
  EXPECT_TRUE(peer.sent_fsm_error());
}

TEST(SessionTest, RouteRefreshInOpenConfirmIsAnFsmError) {
  OpenConfirmPeer peer;
  ASSERT_EQ(peer.session->state(), SessionState::kOpenConfirm);
  int refreshes = 0;
  peer.session->set_refresh_handler([&](const RouteRefreshMessage&) { ++refreshes; });
  peer.wire->send(Encode(RouteRefreshMessage{kAfiIPv4, kSafiUnicast}));
  peer.queue.run_until(sim::Seconds(1.0));
  EXPECT_EQ(peer.session->state(), SessionState::kClosed);
  EXPECT_EQ(refreshes, 0);
  EXPECT_TRUE(peer.sent_fsm_error());
}

TEST(SessionTest, StateCallbacksFire) {
  SessionPair pair(Cfg(65001, 1), Cfg(65002, 2));
  std::vector<SessionState> states;
  pair.a->set_state_handler([&](SessionState s) { states.push_back(s); });
  pair.establish();
  ASSERT_GE(states.size(), 3u);
  EXPECT_EQ(states[0], SessionState::kOpenSent);
  EXPECT_EQ(states[1], SessionState::kOpenConfirm);
  EXPECT_EQ(states[2], SessionState::kEstablished);
}

TEST(EndpointTest, CloseReachesPeer) {
  sim::EventQueue queue;
  auto [ea, eb] = MakeLink(queue);
  bool closed = false;
  eb->set_close_handler([&] { closed = true; });
  ea->close();
  queue.run_until(sim::Seconds(1.0));
  EXPECT_TRUE(closed);
  EXPECT_TRUE(eb->closed());
}

TEST(EndpointTest, SendAfterCloseIsNoop) {
  sim::EventQueue queue;
  auto [ea, eb] = MakeLink(queue);
  int received = 0;
  eb->set_receive_handler([&](const Frame&) { ++received; });
  ea->close();
  queue.run_until(sim::Seconds(1.0));
  ea->send({1, 2, 3});
  queue.run_until(sim::Seconds(2.0));
  EXPECT_EQ(received, 0);
}

TEST(EndpointTest, SendAfterLocalCloseIsCounted) {
  sim::EventQueue queue;
  auto [ea, eb] = MakeLink(queue);
  ea->close();
  ea->send({1, 2, 3});
  ea->send({4, 5});
  EXPECT_EQ(ea->stats().sends_after_close, 2u);
  EXPECT_EQ(ea->stats().dropped_bytes, 5u);
  EXPECT_EQ(eb->stats().sends_after_close, 0u);
}

TEST(EndpointTest, SendToGonePeerIsCounted) {
  sim::EventQueue queue;
  auto [ea, eb] = MakeLink(queue);
  eb->close();  // The remote side goes away first.
  ea->send({1, 2, 3, 4});
  queue.run_until(sim::Seconds(1.0));
  EXPECT_EQ(ea->stats().sends_after_close, 1u);
  EXPECT_EQ(ea->stats().dropped_bytes, 4u);
}

LINK_KIND_TEST(EndpointTest, InFlightBytesDroppedOnPeerCloseAreCounted) {
  sim::EventQueue queue;
  auto [ea, eb] = MakeLink(queue);
  int received = 0;
  eb->set_receive_handler([&](const Frame&) { ++received; });
  ea->send({1, 2, 3});  // In flight (delivery is scheduled, not immediate)...
  eb->close();          // ...and the peer closes before it lands.
  queue.run_until(sim::Seconds(1.0));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(ea->stats().sends_after_close, 0u);  // The send itself was legal.
  EXPECT_EQ(ea->stats().dropped_bytes, 3u);
}

// ---- BGP timer edge cases (keepalive cadence, zero hold time, boundary) ----

LINK_KIND_TEST(SessionTimerTest, KeepaliveCadenceIsOneThirdOfHoldTime) {
  SessionConfig ca = Cfg(65001, 1);
  ca.hold_time_s = 9;  // Keepalive interval: 3 s.
  SessionConfig cb = Cfg(65002, 2);
  cb.hold_time_s = 9;
  SessionPair pair(ca, cb);
  pair.establish();
  const std::uint64_t at_establish = pair.a->keepalives_received();
  pair.queue.run_until(pair.queue.now() + sim::Seconds(30.0));
  const std::uint64_t received = pair.a->keepalives_received() - at_establish;
  // 30 s at one keepalive per 3 s: exactly 10 modulo boundary rounding.
  EXPECT_GE(received, 9u);
  EXPECT_LE(received, 11u);
}

LINK_KIND_TEST(SessionTimerTest, ZeroHoldTimeDisablesTimers) {
  SessionConfig ca = Cfg(65001, 1);
  ca.hold_time_s = 0;
  SessionConfig cb = Cfg(65002, 2);
  cb.hold_time_s = 0;
  auto pair = std::make_unique<SessionPair>(ca, cb);
  pair->establish();
  ASSERT_TRUE(pair->a->established());
  EXPECT_EQ(pair->a->negotiated_hold_time_s(), 0);
  // Kill the peer silently: with hold_time 0 there is no hold timer, so the
  // survivor must stay Established indefinitely (RFC 4271 §4.2 semantics).
  sim::EventQueue& queue = pair->queue;
  Session& a = *pair->a;
  pair->b.reset();
  queue.run_until(queue.now() + sim::Seconds(3600.0));
  EXPECT_TRUE(a.established());
  // Only the establishing keepalive: no periodic ones with timers disabled.
  EXPECT_LE(a.keepalives_received(), 1u);
}

TEST(SessionTimerTest, IdleCleanLinkQueuesNoUpkeepEvents) {
  SessionConfig ca = Cfg(65001, 1);
  ca.hold_time_s = 9;
  SessionConfig cb = Cfg(65002, 2);
  cb.hold_time_s = 9;
  std::uint64_t filtered_a = 0;
  std::uint64_t filtered_b = 0;
  {
    PassThroughFilters filters;
    SessionPair filtered(ca, cb);
    filtered.establish();
    filtered.queue.run_until(filtered.queue.now() + sim::Seconds(900.0));
    filtered_a = filtered.a->keepalives_received();
    filtered_b = filtered.b->keepalives_received();
  }
  SessionPair clean(ca, cb);
  clean.establish();
  clean.queue.run_until(clean.queue.now() + sim::Seconds(900.0));  // 100 hold periods.
  EXPECT_EQ(clean.queue.pending(), 0u);
  EXPECT_TRUE(clean.a->established());
  EXPECT_TRUE(clean.b->established());
  EXPECT_GT(filtered_a, 300u);
  EXPECT_EQ(clean.a->keepalives_received(), filtered_a);
  EXPECT_EQ(clean.b->keepalives_received(), filtered_b);
}

// Drives the peer side of a session by hand so the test controls exactly
// which messages (and when) reach the session under test.
struct ManualPeer {
  sim::EventQueue queue;
  std::shared_ptr<Endpoint> wire;  // The manual side's endpoint.
  std::unique_ptr<Session> session;

  explicit ManualPeer(std::uint16_t hold_time_s) {
    auto [ea, eb] = MakeLink(queue);
    SessionConfig config = Cfg(65001, 1);
    config.hold_time_s = hold_time_s;
    session = std::make_unique<Session>(queue, ea, config);
    wire = eb;
    session->start();
    queue.run_until(sim::Seconds(0.1));  // Session's OPEN is on the wire.
    OpenMessage open;
    open.my_asn = 65002;
    open.hold_time_s = hold_time_s;
    open.bgp_identifier = net::IPv4Address(10, 0, 0, 2);
    open.add_four_octet_as_capability();
    wire->send(Encode(open));
    wire->send(Encode(KeepaliveMessage{}));
    queue.run_until(sim::Seconds(0.5));
  }

  void send_keepalive() { wire->send(Encode(KeepaliveMessage{})); }
  void send_update() {
    UpdateMessage u;
    u.attrs.origin = Origin::kIgp;
    u.attrs.as_path = {{AsPathSegment::Type::kSequence, {65002}}};
    u.attrs.next_hop = net::IPv4Address(10, 0, 0, 2);
    u.announced = {{0, P4("60.1.0.0/20")}};
    wire->send(Encode(u));
  }
};

TEST(SessionTimerTest, HoldTimerExpiresExactlyAtBoundary) {
  ManualPeer peer(9);
  ASSERT_TRUE(peer.session->established());
  // Re-arm the hold timer at a known instant: the keepalive sent at t=2.0
  // arrives at 2.0 + link latency (1 ms), so expiry is at ~11.001 s.
  peer.queue.run_until(sim::Seconds(2.0));
  peer.send_keepalive();
  // Just short of the 9 s hold time: still up.
  peer.queue.run_until(sim::Seconds(10.9));
  EXPECT_TRUE(peer.session->established());
  // Just past it: hold timer fired, session closed.
  peer.queue.run_until(sim::Seconds(11.1));
  EXPECT_EQ(peer.session->state(), SessionState::kClosed);
}

TEST(SessionTimerTest, KeepalivesResetHoldTimer) {
  ManualPeer peer(9);
  ASSERT_TRUE(peer.session->established());
  // Keepalives every 4 s (< 9 s hold): the session must outlive many hold
  // periods.
  for (int i = 0; i < 10; ++i) {
    peer.queue.run_until(peer.queue.now() + sim::Seconds(4.0));
    ASSERT_TRUE(peer.session->established()) << "died after " << i << " keepalives";
    peer.send_keepalive();
  }
  // Stop feeding it: expiry one hold time later.
  peer.queue.run_until(peer.queue.now() + sim::Seconds(10.0));
  EXPECT_EQ(peer.session->state(), SessionState::kClosed);
}

TEST(SessionTimerTest, UpdatesResetHoldTimerToo) {
  ManualPeer peer(9);
  ASSERT_TRUE(peer.session->established());
  // RFC 4271 §4.4: *any* message restarts the hold timer, not just
  // KEEPALIVE. Feed only UPDATEs.
  for (int i = 0; i < 10; ++i) {
    peer.queue.run_until(peer.queue.now() + sim::Seconds(4.0));
    ASSERT_TRUE(peer.session->established()) << "died after " << i << " updates";
    peer.send_update();
  }
  peer.queue.run_until(peer.queue.now() + sim::Seconds(10.0));
  EXPECT_GE(peer.session->updates_received(), 10u);
  EXPECT_EQ(peer.session->state(), SessionState::kClosed);
}

TEST(SessionTimerTest, MessageTrafficKeepsOneEventPerTimer) {
  // Every UPDATE sent restarts the sender's keepalive timer and every one
  // received restarts the receiver's hold timer. A restart moves the
  // deadline of the timer's one queued event; it must not queue another.
  SessionPair pair(Cfg(65001, 1), Cfg(65002, 2));  // Hold time 90.
  pair.establish();
  ASSERT_TRUE(pair.a->established());
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.as_path = {{AsPathSegment::Type::kSequence, {65001}}};
  u.attrs.next_hop = net::IPv4Address(10, 0, 0, 1);
  u.announced = {{0, P4("60.1.0.0/20")}};
  for (int i = 0; i < 1000; ++i) pair.a->announce(u);
  pair.queue.run_until(pair.queue.now() + sim::Millis(10.0));
  EXPECT_EQ(pair.b->updates_received(), 1000u);
  EXPECT_TRUE(pair.b->established());
  EXPECT_LE(pair.queue.pending(), 4u);  // Hold and keepalive, per side.
}

#undef LINK_KIND_TEST

}  // namespace
}  // namespace stellar::bgp
