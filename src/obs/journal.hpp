// Bounded event journal (the third leg of the observability plane): a
// structured record of the discrete things that happened to the platform —
// session flaps, fault injections, rule installs/removals, detector
// trigger/clear — kept in a util::RingLog so week-long chaos runs cannot leak.
// Records carry the caller's clock (production code passes sim time; the
// detect engine passes experiment-relative bin time), and both the append
// order and the CSV dump are deterministic: same seed, same scenario,
// byte-identical journal (asserted by tests/integration/chaos_test).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/ring_log.hpp"

namespace stellar::obs {

enum class EventKind : std::uint8_t {
  // BGP session lifecycle (bgp::ReconnectingSession).
  kSessionFlap,        ///< Established session dropped to idle/closed.
  kSessionReconnect,   ///< Redial re-established the session.
  kSessionSuppressed,  ///< Flap damping suppressed a redial.
  kDialTimeout,        ///< A dial attempt never reached kEstablished.
  kSessionGiveUp,      ///< Retry budget exhausted; session abandoned.
  // Injected faults (sim::FaultInjector).
  kFaultDrop,
  kFaultCorrupt,
  kFaultDelay,
  kFaultPartitionDrop,
  kFaultKill,
  // Rule lifecycle (core::NetworkManager).
  kRuleInstalled,
  kRuleRemoved,
  kRuleRetry,
  kRuleDeadLettered,
  // Controller safety actions (core::BlackholingController).
  kFailsafeFlush,
  kReconciliation,
  // Detection loop (detect::AutoMitigator).
  kDetectorTriggered,
  kDetectorCleared,
  kMitigationEscalated,
  kMitigationWithdrawn,
};

[[nodiscard]] std::string_view ToString(EventKind kind);

struct JournalEvent {
  double t_s = 0.0;
  EventKind kind = EventKind::kSessionFlap;
  std::string subject;  ///< What it happened to (prefix, rule key, link#, ASN).
  std::string detail;   ///< Free-form context; commas are escaped in CSV.
};

class Journal {
 public:
  explicit Journal(std::size_t capacity = util::RingLog<JournalEvent>::kDefaultCapacity)
      : events_(capacity) {}
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  void append(double t_s, EventKind kind, std::string subject, std::string detail = "");

  [[nodiscard]] const util::RingLog<JournalEvent>& events() const { return events_; }
  /// Retained events of one kind (convenience for tests and reports).
  [[nodiscard]] std::uint64_t count(EventKind kind) const;

  /// CSV dump: header + "t_s,kind,subject,detail" rows in append order.
  [[nodiscard]] std::string csv() const;

  void clear() { events_.clear(); }

  static Journal& global();

 private:
  util::RingLog<JournalEvent> events_;
};

/// Shorthand for Journal::global().
inline Journal& journal() { return Journal::global(); }

}  // namespace stellar::obs
