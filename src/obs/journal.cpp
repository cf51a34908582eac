#include "obs/journal.hpp"

#include <algorithm>
#include <cstdio>

namespace stellar::obs {
namespace {

std::string FormatTime(double t_s) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6f", t_s);
  return buf;
}

std::string CsvField(std::string s) {
  // The journal's CSV is line-oriented for diffing, not a full CSV dialect:
  // commas and newlines in payloads are folded to ';' / ' '.
  std::replace(s.begin(), s.end(), ',', ';');
  std::replace(s.begin(), s.end(), '\n', ' ');
  return s;
}

}  // namespace

std::string_view ToString(EventKind kind) {
  switch (kind) {
    case EventKind::kSessionFlap: return "session_flap";
    case EventKind::kSessionReconnect: return "session_reconnect";
    case EventKind::kSessionSuppressed: return "session_suppressed";
    case EventKind::kDialTimeout: return "dial_timeout";
    case EventKind::kSessionGiveUp: return "session_give_up";
    case EventKind::kFaultDrop: return "fault_drop";
    case EventKind::kFaultCorrupt: return "fault_corrupt";
    case EventKind::kFaultDelay: return "fault_delay";
    case EventKind::kFaultPartitionDrop: return "fault_partition_drop";
    case EventKind::kFaultKill: return "fault_kill";
    case EventKind::kRuleInstalled: return "rule_installed";
    case EventKind::kRuleRemoved: return "rule_removed";
    case EventKind::kRuleRetry: return "rule_retry";
    case EventKind::kRuleDeadLettered: return "rule_dead_lettered";
    case EventKind::kFailsafeFlush: return "failsafe_flush";
    case EventKind::kReconciliation: return "reconciliation";
    case EventKind::kDetectorTriggered: return "detector_triggered";
    case EventKind::kDetectorCleared: return "detector_cleared";
    case EventKind::kMitigationEscalated: return "mitigation_escalated";
    case EventKind::kMitigationWithdrawn: return "mitigation_withdrawn";
  }
  return "unknown";
}

void Journal::append(double t_s, EventKind kind, std::string subject, std::string detail) {
  events_.push_back(JournalEvent{t_s, kind, std::move(subject), std::move(detail)});
}

std::uint64_t Journal::count(EventKind kind) const {
  std::uint64_t n = 0;
  for (const JournalEvent& ev : events_) {
    if (ev.kind == kind) ++n;
  }
  return n;
}

std::string Journal::csv() const {
  std::string out = "t_s,kind,subject,detail\n";
  for (const JournalEvent& ev : events_) {
    out += FormatTime(ev.t_s) + "," + std::string(ToString(ev.kind)) + "," +
           CsvField(ev.subject) + "," + CsvField(ev.detail) + "\n";
  }
  return out;
}

Journal& Journal::global() {
  static Journal* instance = new Journal();
  return *instance;
}

}  // namespace stellar::obs
