// Self-healing BGP transport: a ReconnectingSession re-dials a session that
// closed unexpectedly, with exponential backoff + deterministic jitter and
// RFC 2439-style route-flap damping applied to the session itself. Damping is
// what keeps one flapping member from churning the rate-limited configuration
// queue and starving other victims: each flap adds a penalty that decays
// exponentially; while the penalty sits above the suppress threshold the
// session is not re-dialed, until decay brings it below the reuse threshold.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>

#include "bgp/session.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace stellar::bgp {

/// Backoff + damping knobs for ReconnectingSession.
struct ReconnectPolicy {
  double initial_backoff_s = 1.0;  ///< Delay before the first reconnect attempt.
  double max_backoff_s = 60.0;     ///< Exponential backoff cap.
  double backoff_multiplier = 2.0;
  /// Deterministic jitter: each delay is multiplied by a seeded factor drawn
  /// uniformly from [1 - jitter_frac, 1 + jitter_frac].
  double jitter_frac = 0.1;
  /// Consecutive failed reconnect attempts before giving up permanently.
  /// Negative: retry forever. Zero: never reconnect (one-shot session).
  int max_retries = -1;
  /// A dial that has not reached Established after this long is torn down
  /// and retried — without it, a lost OPEN strands the session in OpenSent
  /// forever (no hold timer runs before negotiation). Zero disables.
  double dial_timeout_s = 30.0;

  // RFC 2439-style flap damping. A "flap" is any unexpected session close.
  double flap_penalty = 1000.0;        ///< Penalty added per flap.
  double suppress_threshold = 3000.0;  ///< Penalty above which dialing stops.
  double reuse_threshold = 1500.0;     ///< Decay below this re-enables dialing.
  double half_life_s = 60.0;           ///< Exponential penalty decay half-life.
  double max_suppress_s = 3600.0;      ///< Hard cap on one suppression episode.

  std::uint64_t seed = 1;  ///< Jitter stream seed (reproducible schedules).
};

/// Exponentially decaying flap penalty (RFC 2439 §2.2 figure-of-merit),
/// reusable standalone for per-peer damping bookkeeping.
class FlapDamping {
 public:
  explicit FlapDamping(const ReconnectPolicy& policy) : policy_(policy) {}

  /// Records one flap at simulation time `now_s`.
  void record_flap(double now_s) {
    penalty_ = penalty(now_s) + policy_.flap_penalty;
    last_update_s_ = now_s;
    if (!suppressed_ && penalty_ >= policy_.suppress_threshold) {
      suppressed_ = true;
      suppressed_since_s_ = now_s;
    }
  }

  /// Current decayed penalty.
  [[nodiscard]] double penalty(double now_s) const {
    const double dt = now_s - last_update_s_;
    if (dt <= 0.0) return penalty_;
    return penalty_ * std::exp2(-dt / policy_.half_life_s);
  }

  /// True while dialing is suppressed (penalty has not yet decayed to the
  /// reuse threshold and the max-suppress cap has not elapsed).
  [[nodiscard]] bool suppressed(double now_s) {
    if (!suppressed_) return false;
    if (penalty(now_s) < policy_.reuse_threshold ||
        now_s - suppressed_since_s_ >= policy_.max_suppress_s) {
      suppressed_ = false;
    }
    return suppressed_;
  }

  /// Seconds from `now_s` until the penalty decays to the reuse threshold.
  [[nodiscard]] double reuse_delay(double now_s) const {
    const double p = penalty(now_s);
    if (p <= policy_.reuse_threshold) return 0.0;
    const double delay = policy_.half_life_s * std::log2(p / policy_.reuse_threshold);
    const double cap_remaining = policy_.max_suppress_s - (now_s - suppressed_since_s_);
    return std::min(delay, std::max(cap_remaining, 0.0));
  }

 private:
  ReconnectPolicy policy_;
  double penalty_ = 0.0;
  double last_update_s_ = 0.0;
  bool suppressed_ = false;
  double suppressed_since_s_ = 0.0;
};

/// A Session plus the recovery state machine around it: dial, run, and on an
/// unexpected close re-dial through a TransportFactory after a backoff that
/// combines exponential growth, deterministic jitter, and flap damping.
/// Handlers survive reconnects — they are re-attached to every new Session.
class ReconnectingSession {
 public:
  /// Produces a fresh transport for each dial attempt (e.g. by calling
  /// RouteServer::accept_member again). Returning nullptr aborts recovery.
  using TransportFactory = std::function<std::shared_ptr<Endpoint>()>;
  /// Fired each time a session (re-)enters Established — the owner replays
  /// announcements / requests ROUTE-REFRESH here.
  using EstablishedHandler = std::function<void(Session&)>;

  ReconnectingSession(sim::EventQueue& queue, TransportFactory factory,
                      SessionConfig session_config, ReconnectPolicy policy);
  ReconnectingSession(const ReconnectingSession&) = delete;
  ReconnectingSession& operator=(const ReconnectingSession&) = delete;

  /// Dials the first session. No-op if already started.
  void start();
  /// Intentional shutdown: closes the current session without reconnecting.
  void stop(std::uint8_t cease_subcode = 0);

  /// The current underlying session (never null after start(); outlives a
  /// close until the next dial replaces it).
  [[nodiscard]] Session* session() { return session_.get(); }
  [[nodiscard]] bool established() const { return session_ && session_->established(); }

  void set_update_handler(Session::UpdateHandler h);
  void set_state_handler(Session::StateHandler h);
  void set_refresh_handler(Session::RefreshHandler h);
  void set_established_handler(EstablishedHandler h) { on_established_ = std::move(h); }

  struct Stats {
    std::uint64_t dial_attempts = 0;  ///< Sessions created (incl. the first).
    std::uint64_t flaps = 0;          ///< Unexpected closes observed.
    std::uint64_t reconnects = 0;     ///< Re-establishments after a flap.
    std::uint64_t suppressed_dials = 0;  ///< Dials deferred by flap damping.
    std::uint64_t dial_timeouts = 0;  ///< Dials torn down before Established.
    std::uint64_t give_ups = 0;       ///< Recovery abandoned (retry cap / factory).
    double last_backoff_s = 0.0;      ///< Most recent scheduled dial delay.
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  /// Decayed damping penalty at `now_s` (introspection for tests/benches).
  [[nodiscard]] double damping_penalty(double now_s) const {
    return damping_.penalty(now_s);
  }

 private:
  void dial();
  void attach_handlers();
  void on_state(SessionState state);
  void schedule_redial();

  sim::EventQueue& queue_;
  TransportFactory factory_;
  SessionConfig session_config_;
  ReconnectPolicy policy_;
  FlapDamping damping_;
  util::Rng jitter_rng_;

  std::unique_ptr<Session> session_;
  Session::UpdateHandler on_update_;
  Session::StateHandler on_state_user_;
  Session::RefreshHandler on_refresh_;
  EstablishedHandler on_established_;

  bool started_ = false;
  bool stopped_ = false;        ///< Intentional stop: no recovery.
  bool was_established_ = false;  ///< Current session reached Established.
  int attempts_since_established_ = 0;
  double next_backoff_s_ = 0.0;
  sim::Timer dial_timer_;    ///< Tears down a dial stuck before Established.
  sim::Timer redial_timer_;  ///< The pending re-dial after a flap.
  Stats stats_;
};

}  // namespace stellar::bgp
