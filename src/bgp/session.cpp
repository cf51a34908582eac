#include "bgp/session.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace stellar::bgp {

namespace {

/// KEEPALIVE is the bare header under every codec: one frame per process,
/// which keeps one decode per rx codec.
const FramePtr& KeepaliveFrame() {
  static const FramePtr frame = std::make_shared<const Frame>(Encode(KeepaliveMessage{}));
  return frame;
}

}  // namespace

// ---------------------------------------------------------------------------
// Frame / SharedUpdate.

const Frame::Decoded& Frame::decode(const CodecOptions& codec) const {
  for (const Decoded& d : decoded_) {
    if (d.codec == codec) return d;
  }
  Decoded& d = decoded_.emplace_front(Decoded{codec, std::nullopt, nullptr});
  auto framed = DecodeFramed(bytes_, codec);
  if (framed.ok() && framed->message && framed->consumed == bytes_.size()) {
    d.message = std::move(framed->message);
  }
  return d;
}

const FramePtr& SharedUpdate::frame(const CodecOptions& codec) {
  for (const auto& [c, frame] : frames_) {
    if (c == codec) return frame;
  }
  return frames_.emplace_back(codec, std::make_shared<const Frame>(Encode(update_, codec))).second;
}

// ---------------------------------------------------------------------------
// Endpoint / Link.

void Endpoint::send(FramePtr frame) {
  if (session_ != nullptr) session_->make_upkeep_real();
  transmit(std::move(frame));
}

void Endpoint::transmit(FramePtr frame) {
  sent_ = true;
  auto peer = peer_.lock();
  if (closed_ || !peer || peer->closed_) {
    sends_after_close_.inc();
    dropped_bytes_.inc(frame->bytes().size());
    return;
  }
  sim::Duration delay = latency_;
  if (fault_filter_) {
    // The filter may corrupt what it is given: a private copy, so a frame
    // other peers share never changes.
    std::vector<std::uint8_t> bytes(frame->bytes().begin(), frame->bytes().end());
    if (!fault_filter_(bytes, delay)) {
      dropped_bytes_.inc(bytes.size());  // Injected drop.
      return;
    }
    frame = std::make_shared<const Frame>(std::move(bytes));
  }
  deliver_at(queue_->now() + delay, std::move(peer), std::move(frame));
}

class Endpoint::Delivery final : public sim::EventQueue::Batch {
 public:
  explicit Delivery(FramePtr frame) : frame_(std::move(frame)) {}

  void add(std::shared_ptr<Endpoint> peer) {
    if (first_ == nullptr) {
      first_ = std::move(peer);
    } else {
      rest_.push_back(std::move(peer));
    }
  }

  void run() override {
    arrive(*first_);
    for (const auto& peer : rest_) arrive(*peer);
  }

 private:
  void arrive(Endpoint& peer) const {
    if (peer.closed_ || !peer.on_receive_) {
      // Closed while the bytes were in flight: account them as lost, at the
      // sender (the peer's peer), if it still exists.
      if (auto sender = peer.peer_.lock()) sender->dropped_bytes_.inc(frame_->bytes().size());
      return;
    }
    peer.on_receive_(*frame_);
  }

  FramePtr frame_;
  /// Receiving ends, in send order. The first is inline: most frames go to
  /// one peer (no group, or a link with a private copy).
  std::shared_ptr<Endpoint> first_;
  std::vector<std::shared_ptr<Endpoint>> rest_;
};

void Endpoint::deliver_at(sim::SimTime at, std::shared_ptr<Endpoint> peer, FramePtr frame) {
  // The frame is the batch's tag: the Delivery keeps it alive while queued.
  const Frame* tag = frame.get();
  auto* delivery = static_cast<Delivery*>(queue_->join_batch(at, tag));
  if (delivery == nullptr) {
    auto opened = std::make_unique<Delivery>(std::move(frame));
    delivery = opened.get();
    queue_->open_batch(at, tag, std::move(opened));
  }
  delivery->add(std::move(peer));
}

void Endpoint::send(std::vector<std::uint8_t> bytes) {
  send(std::make_shared<const Frame>(std::move(bytes)));
}

void Endpoint::set_fault_filter(FaultFilter f) {
  // Whether a link's sessions may keep it alive lazily is settled once both
  // are Established, so a filter that comes later would see no keepalives.
  const auto peer = peer_.lock();
  if (sent_ || (peer && peer->sent_)) {
    throw std::logic_error("fault filter set after the link's first send");
  }
  fault_filter_ = std::move(f);
}

void Endpoint::close() {
  if (closed_) return;
  if (session_ != nullptr) session_->make_upkeep_real();
  closed_ = true;
  if (auto peer = peer_.lock()) {
    queue_->schedule_after(latency_, [peer] {
      if (peer->closed_) return;
      peer->closed_ = true;
      if (peer->on_close_) peer->on_close_();
    });
  }
}

namespace {
LinkHook g_link_hook;
}  // namespace

LinkHook SetLinkHook(LinkHook hook) {
  LinkHook previous = std::move(g_link_hook);
  g_link_hook = std::move(hook);
  return previous;
}

std::pair<std::shared_ptr<Endpoint>, std::shared_ptr<Endpoint>> MakeLink(sim::EventQueue& queue,
                                                                         sim::Duration latency) {
  auto a = std::make_shared<Endpoint>();
  auto b = std::make_shared<Endpoint>();
  a->queue_ = &queue;
  b->queue_ = &queue;
  a->latency_ = latency;
  b->latency_ = latency;
  a->peer_ = b;
  b->peer_ = a;
  if (g_link_hook) g_link_hook(a, b);
  return {a, b};
}

// ---------------------------------------------------------------------------
// Session.

std::string_view ToString(SessionState s) {
  switch (s) {
    case SessionState::kIdle: return "Idle";
    case SessionState::kOpenSent: return "OpenSent";
    case SessionState::kOpenConfirm: return "OpenConfirm";
    case SessionState::kEstablished: return "Established";
    case SessionState::kClosed: return "Closed";
  }
  return "?";
}

template <typename M>
void Session::send(const M& msg, const CodecOptions& codec) {
  transport_->transmit(std::make_shared<const Frame>(Encode(msg, codec)));
}

Session::Session(sim::EventQueue& queue, std::shared_ptr<Endpoint> transport,
                 SessionConfig config)
    : queue_(queue), transport_(std::move(transport)), config_(config) {
  transport_->session_ = this;
  transport_->set_receive_handler([this](const Frame& frame) { on_frame(frame); });
  transport_->set_close_handler([this] { on_transport_closed(); });
}

Session::~Session() {
  // A silent death: the peer's hold timer must run from here on.
  make_upkeep_real();
  // Detach transport callbacks: the endpoint may outlive us inside queued
  // link-latency events.
  transport_->set_receive_handler(nullptr);
  transport_->set_close_handler(nullptr);
  transport_->session_ = nullptr;
}

void Session::start() {
  if (state_ != SessionState::kIdle) return;
  OpenMessage open;
  open.my_asn = config_.local_asn;
  open.hold_time_s = config_.hold_time_s;
  open.bgp_identifier = config_.router_id;
  open.add_four_octet_as_capability();
  open.capabilities.push_back(Capability{Capability::kRouteRefresh, {}});
  open.add_multiprotocol_capability(kAfiIPv4, kSafiUnicast);
  if (config_.announce_ipv6_unicast) open.add_multiprotocol_capability(kAfiIPv6, kSafiUnicast);
  if (config_.add_path_rx || config_.add_path_tx) {
    const std::uint8_t mode = static_cast<std::uint8_t>((config_.add_path_rx ? 1 : 0) |
                                                        (config_.add_path_tx ? 2 : 0));
    const AddPathTuple tuple{kAfiIPv4, kSafiUnicast, mode};
    open.add_add_path_capability({&tuple, 1});
  }
  // OPEN itself is negotiation-independent: encode with defaults.
  send(open, CodecOptions{});
  set_state(SessionState::kOpenSent);
}

void Session::announce(UpdateMessage update) {
  SharedUpdate shared(std::move(update));
  announce(shared);
}

void Session::announce(SharedUpdate& update) {
  if (state_ == SessionState::kClosed) return;
  if (state_ != SessionState::kEstablished) {
    pending_.push_back(update.message());
    return;
  }
  ++updates_sent_;
  transport_->transmit(update.frame(tx_codec_));
  arm_keepalive_timer();  // Any message defers the next keepalive.
}

void Session::request_route_refresh(std::uint16_t afi, std::uint8_t safi) {
  // RFC 2918 §4: only send towards peers that advertised the capability.
  if (state_ != SessionState::kEstablished || !peer_supports_route_refresh_) return;
  send(RouteRefreshMessage{afi, safi}, tx_codec_);
  arm_keepalive_timer();
}

void Session::stop(std::uint8_t cease_subcode) {
  if (state_ == SessionState::kClosed) return;
  make_upkeep_real();  // Keepalives in flight go before the NOTIFICATION.
  NotificationMessage n;
  n.code = NotificationCode::kCease;
  n.subcode = cease_subcode;
  send(n, tx_codec_);
  transport_->close();
  set_state(SessionState::kClosed);
}

void Session::on_frame(const Frame& frame) {
  // Decode once: a whole message arriving on a clean stream is decoded by
  // the frame, once for every session that shares it under the same rx
  // codec.
  if (rx_buffer_.empty()) {
    const Frame::Decoded& decoded = frame.decode(rx_codec_);
    if (decoded.message) {
      arm_hold_timer();
      handle_message(*decoded.message, decoded.attrs);
      return;
    }
  }
  on_bytes(frame.bytes());
}

void Session::on_bytes(std::span<const std::uint8_t> bytes) {
  rx_buffer_.insert(rx_buffer_.end(), bytes.begin(), bytes.end());
  while (true) {
    auto framed = DecodeFramed(rx_buffer_, rx_codec_);
    if (!framed.ok()) {
      fail(NotificationCode::kMessageHeaderError, 0, framed.error().message);
      return;
    }
    if (!framed->message) {
      // Incomplete: wait for more bytes, which keepalives may complete. (Bytes
      // sent from outside just before the link went lazy end up here.)
      if (!rx_buffer_.empty()) make_upkeep_real();
      return;
    }
    rx_buffer_.erase(rx_buffer_.begin(),
                     rx_buffer_.begin() + static_cast<std::ptrdiff_t>(framed->consumed));
    arm_hold_timer();
    std::shared_ptr<const PathAttributes> attrs;
    handle_message(*framed->message, attrs);
    if (state_ == SessionState::kClosed) return;
  }
}

void Session::on_transport_closed() {
  set_state(SessionState::kClosed);
}

void Session::handle_message(const Message& msg, std::shared_ptr<const PathAttributes>& attrs) {
  switch (TypeOf(msg)) {
    case MessageType::kOpen:
      handle_open(std::get<OpenMessage>(msg));
      break;
    case MessageType::kKeepalive:
      ++keepalives_received_;
      if (state_ == SessionState::kOpenConfirm) enter_established();
      break;
    case MessageType::kUpdate:
      if (state_ != SessionState::kEstablished) {
        fail(NotificationCode::kFsmError, 0, "UPDATE outside Established");
        return;
      }
      ++updates_received_;
      if (on_update_) on_update_(ReceivedUpdate(std::get<UpdateMessage>(msg), attrs));
      break;
    case MessageType::kNotification:
      transport_->close();
      set_state(SessionState::kClosed);
      break;
    case MessageType::kRouteRefresh:
      if (state_ != SessionState::kEstablished) {
        fail(NotificationCode::kFsmError, 0, "ROUTE-REFRESH outside Established");
        return;
      }
      if (on_refresh_) on_refresh_(std::get<RouteRefreshMessage>(msg));
      break;
  }
}

void Session::handle_open(const OpenMessage& open) {
  if (state_ != SessionState::kOpenSent) {
    fail(NotificationCode::kFsmError, 0, "OPEN in state " + std::string(ToString(state_)));
    return;
  }
  if (open.version != 4) {
    fail(NotificationCode::kOpenMessageError, 1, "unsupported BGP version");
    return;
  }
  if (open.hold_time_s != 0 && open.hold_time_s < 3) {
    fail(NotificationCode::kOpenMessageError, 6, "unacceptable hold time");
    return;
  }
  peer_asn_ = open.effective_asn();
  hold_time_s_ = std::min(config_.hold_time_s, open.hold_time_s);
  for (const auto& cap : open.capabilities) {
    if (cap.code == Capability::kRouteRefresh) peer_supports_route_refresh_ = true;
  }

  // ADD-PATH negotiation (RFC 7911 §5): we may receive path-ids iff we said
  // "receive" and the peer said "send"; symmetrically for sending.
  bool peer_tx = false;
  bool peer_rx = false;
  for (const auto& t : open.add_path_tuples()) {
    if (t.afi == kAfiIPv4 && t.safi == kSafiUnicast) {
      peer_rx = (t.send_receive & 1) != 0;
      peer_tx = (t.send_receive & 2) != 0;
    }
  }
  rx_codec_.add_path_ipv4_unicast = config_.add_path_rx && peer_tx;
  tx_codec_.add_path_ipv4_unicast = config_.add_path_tx && peer_rx;
  rx_codec_.four_octet_as = open.four_octet_asn().has_value();
  tx_codec_.four_octet_as = rx_codec_.four_octet_as;

  send_keepalive();
  set_state(SessionState::kOpenConfirm);
}

void Session::enter_established() {
  set_state(SessionState::kEstablished);
  start_lazy_upkeep();
  arm_keepalive_timer();
  arm_hold_timer();
  while (!pending_.empty() && state_ == SessionState::kEstablished) {
    UpdateMessage u = std::move(pending_.front());
    pending_.pop_front();
    ++updates_sent_;
    send(u, tx_codec_);
  }
}

void Session::send_keepalive() { transport_->transmit(KeepaliveFrame()); }

void Session::fail(NotificationCode code, std::uint8_t subcode, const std::string& why) {
  (void)why;  // Kept for debuggability via a breakpoint; not logged by default.
  make_upkeep_real();
  NotificationMessage n;
  n.code = code;
  n.subcode = subcode;
  send(n, tx_codec_);
  transport_->close();
  set_state(SessionState::kClosed);
}

void Session::set_state(SessionState s) {
  if (state_ == s) return;
  state_ = s;
  if (s == SessionState::kClosed) {
    assert(lazy_peer_ == nullptr);  // Every way to Closed makes upkeep real first.
    hold_timer_.cancel();
    keepalive_timer_.cancel();
  }
  if (on_state_) on_state_(s);
}

void Session::arm_hold_timer() {
  if (hold_time_s_ == 0) return;
  hold_from_ = queue_.now();
  if (lazy_peer_ == nullptr) hold_timer_.arm_at(hold_from_ + sim::Seconds(hold_time_s_));
}

void Session::arm_keepalive_timer() {
  if (hold_time_s_ == 0) return;
  if (lazy_peer_ != nullptr) advance_keepalives();
  next_keepalive_ = queue_.now() + keepalive_interval();
  keepalive_anchor_ = queue_.next_seq();
  if (lazy_peer_ == nullptr) keepalive_timer_.arm_at(next_keepalive_);
}

// ---------------------------------------------------------------------------
// Lazy upkeep (see the header comment).

std::uint64_t Session::keepalives_received() const {
  if (lazy_peer_ != nullptr) lazy_peer_->advance_keepalives();
  return keepalives_received_;
}

void Session::start_lazy_upkeep() {
  if (state_ != SessionState::kEstablished || hold_time_s_ == 0 || !rx_buffer_.empty()) return;
  const std::shared_ptr<Endpoint> peer_end = transport_->peer_.lock();
  if (!peer_end || peer_end->session_ == nullptr) return;
  Session& peer = *peer_end->session_;
  const auto quiet = [this](const Endpoint& end) {
    return !end.closed_ && !end.fault_filter_ && end.latency_ < keepalive_interval();
  };
  if (peer.state_ != SessionState::kEstablished || peer.hold_time_s_ != hold_time_s_ ||
      !peer.rx_buffer_.empty() || !quiet(*transport_) || !quiet(*peer_end)) {
    return;
  }
  assert(lazy_peer_ == nullptr && peer.lazy_peer_ == nullptr);
  // This side's schedule starts now, so the arm_keepalive_timer() that
  // follows finds nothing due; the peer's keeps the instants its timers were
  // armed for.
  next_keepalive_ = queue_.now() + keepalive_interval();
  lazy_peer_ = &peer;
  peer.lazy_peer_ = this;
  for (Session* side : {this, &peer}) {
    side->keepalive_timer_.cancel();
    side->hold_timer_.cancel();
  }
}

void Session::advance_keepalives() {
  const sim::SimTime now = queue_.now();
  while (next_keepalive_ <= now) {
    keepalives_in_flight_.push_back(next_keepalive_ + transport_->latency_);
    next_keepalive_ += keepalive_interval();
  }
  auto arrived = keepalives_in_flight_.begin();
  for (; arrived != keepalives_in_flight_.end() && *arrived <= now; ++arrived) {
    ++lazy_peer_->keepalives_received_;
    lazy_peer_->hold_from_ = std::max(lazy_peer_->hold_from_, *arrived);
  }
  keepalives_in_flight_.erase(keepalives_in_flight_.begin(), arrived);
}

void Session::make_upkeep_real() {
  if (lazy_peer_ == nullptr) return;
  // The side anchored earlier goes first, as its timer would at a shared
  // instant.
  Session* sides[] = {this, lazy_peer_};
  if (sides[1]->keepalive_anchor_ < sides[0]->keepalive_anchor_) std::swap(sides[0], sides[1]);
  for (Session* side : sides) side->advance_keepalives();
  for (Session* side : sides) {
    const std::shared_ptr<Endpoint> peer_end = side->transport_->peer_.lock();
    for (const sim::SimTime at : side->keepalives_in_flight_) {
      side->transport_->deliver_at(at, peer_end, KeepaliveFrame());
    }
    side->keepalives_in_flight_.clear();
    side->lazy_peer_ = nullptr;
    side->keepalive_timer_.arm_at(side->next_keepalive_);
    side->hold_timer_.arm_at(side->hold_from_ + sim::Seconds(side->hold_time_s_));
  }
}

}  // namespace stellar::bgp
