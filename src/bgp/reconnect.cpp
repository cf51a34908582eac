#include "bgp/reconnect.hpp"

#include "obs/journal.hpp"

namespace stellar::bgp {
namespace {

std::string SessionSubject(const SessionConfig& config) {
  return "asn" + std::to_string(config.local_asn);
}

}  // namespace

ReconnectingSession::ReconnectingSession(sim::EventQueue& queue, TransportFactory factory,
                                         SessionConfig session_config, ReconnectPolicy policy)
    : queue_(queue),
      factory_(std::move(factory)),
      session_config_(session_config),
      policy_(policy),
      damping_(policy),
      jitter_rng_(policy.seed),
      next_backoff_s_(policy.initial_backoff_s),
      dial_timer_(queue, [this] {
        if (stopped_ || !session_ || session_->established() ||
            session_->state() == SessionState::kClosed) {
          return;
        }
        // Handshake stalled (e.g. the OPEN was lost): tear it down; the close
        // flows through on_state() and schedules the next attempt.
        ++stats_.dial_timeouts;
        obs::journal().append(queue_.now().count(), obs::EventKind::kDialTimeout,
                              SessionSubject(session_config_));
        session_->stop();
      }),
      redial_timer_(queue, [this] {
        if (!stopped_) dial();
      }) {}

void ReconnectingSession::start() {
  if (started_) return;
  started_ = true;
  dial();
}

void ReconnectingSession::stop(std::uint8_t cease_subcode) {
  stopped_ = true;
  if (session_) session_->stop(cease_subcode);
}

void ReconnectingSession::set_update_handler(Session::UpdateHandler h) {
  on_update_ = std::move(h);
  if (session_) session_->set_update_handler(on_update_);
}

void ReconnectingSession::set_state_handler(Session::StateHandler h) {
  on_state_user_ = std::move(h);
}

void ReconnectingSession::set_refresh_handler(Session::RefreshHandler h) {
  on_refresh_ = std::move(h);
  if (session_) session_->set_refresh_handler(on_refresh_);
}

void ReconnectingSession::dial() {
  std::shared_ptr<Endpoint> transport = factory_ ? factory_() : nullptr;
  if (!transport) {
    ++stats_.give_ups;
    return;
  }
  ++stats_.dial_attempts;
  was_established_ = false;
  session_ = std::make_unique<Session>(queue_, std::move(transport), session_config_);
  attach_handlers();
  session_->start();
  if (policy_.dial_timeout_s > 0.0) dial_timer_.arm_after(sim::Seconds(policy_.dial_timeout_s));
}

void ReconnectingSession::attach_handlers() {
  if (on_update_) session_->set_update_handler(on_update_);
  if (on_refresh_) session_->set_refresh_handler(on_refresh_);
  session_->set_state_handler([this](SessionState state) { on_state(state); });
}

void ReconnectingSession::on_state(SessionState state) {
  if (state == SessionState::kEstablished) {
    if (stats_.flaps > 0) {
      ++stats_.reconnects;
      obs::journal().append(queue_.now().count(), obs::EventKind::kSessionReconnect,
                            SessionSubject(session_config_),
                            "reconnects=" + std::to_string(stats_.reconnects));
    }
    attempts_since_established_ = 0;
    next_backoff_s_ = policy_.initial_backoff_s;
    was_established_ = true;
    if (on_state_user_) on_state_user_(state);
    if (on_established_) on_established_(*session_);
    return;
  }
  if (state == SessionState::kClosed && !stopped_) {
    ++stats_.flaps;
    damping_.record_flap(queue_.now().count());
    obs::journal().append(queue_.now().count(), obs::EventKind::kSessionFlap,
                          SessionSubject(session_config_),
                          "flaps=" + std::to_string(stats_.flaps));
    if (on_state_user_) on_state_user_(state);
    schedule_redial();
    return;
  }
  if (on_state_user_) on_state_user_(state);
}

void ReconnectingSession::schedule_redial() {
  if (redial_timer_.armed() || stopped_) return;
  // The retry budget counts redials only — the initial dial is free, so a
  // never-established session gets max_retries + 1 total attempts and a
  // max_retries of 0 means strictly one-shot.
  if (policy_.max_retries >= 0 && attempts_since_established_ >= policy_.max_retries) {
    ++stats_.give_ups;
    obs::journal().append(queue_.now().count(), obs::EventKind::kSessionGiveUp,
                          SessionSubject(session_config_),
                          "retries=" + std::to_string(attempts_since_established_));
    return;
  }
  ++attempts_since_established_;
  const double now = queue_.now().count();
  const double jitter =
      1.0 + policy_.jitter_frac * (2.0 * jitter_rng_.uniform() - 1.0);
  double delay = std::max(next_backoff_s_ * jitter, 0.0);
  next_backoff_s_ =
      std::min(next_backoff_s_ * policy_.backoff_multiplier, policy_.max_backoff_s);
  if (damping_.suppressed(now)) {
    // Damped: hold the dial until the penalty decays to the reuse threshold.
    ++stats_.suppressed_dials;
    delay = std::max(delay, damping_.reuse_delay(now));
    obs::journal().append(now, obs::EventKind::kSessionSuppressed,
                          SessionSubject(session_config_),
                          "hold_s=" + std::to_string(damping_.reuse_delay(now)));
  }
  stats_.last_backoff_s = delay;
  redial_timer_.arm_after(sim::Seconds(delay));
}

}  // namespace stellar::bgp
