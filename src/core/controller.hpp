// The blackholing controller (paper §4.4, Fig. 7): passive iBGP speaker
// behind the route server, consuming every accepted path via ADD-PATH,
// tracking signaled blackholing rules in a RIB, and turning RIB differences
// into abstract (hardware-independent) configuration changes.
//
// Admission control lives here (paper §4.1.2: "management has to do
// 'admission control' (limit the number of blackholing rules) to ensure that
// the hardware resource limitations of the IXP's forwarding hardware are
// respected").
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bgp/reconnect.hpp"
#include "bgp/rib.hpp"
#include "bgp/session.hpp"
#include "core/portal.hpp"
#include "core/signal.hpp"
#include "filter/qos.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"

namespace stellar::core {

/// One abstract configuration change, the unit flowing from the controller
/// through the token-bucket queue into a compiler.
struct ConfigChange {
  enum class Op : std::uint8_t { kInstall, kRemove };

  Op op = Op::kInstall;
  bgp::Asn member = 0;  ///< The victim member whose port the rule protects.
  filter::PortId port = 0;
  filter::FilterRule rule;
  /// Stable identity across install/remove: derived from the signaling
  /// route's (prefix, path-id) and the rule's position in the signal.
  std::string key;
  /// Set by the network manager when the change enters its queue.
  double enqueued_at_s = 0.0;
  /// Apply attempts consumed so far (network-manager retry bookkeeping).
  int attempt = 0;
  /// Signal-path trace id (the signaling route's prefix); empty for changes
  /// not born from a signal (e.g. reconciliation orphan removals). Stages
  /// downstream stamp obs::tracer() marks against this id.
  std::string trace;

  [[nodiscard]] std::string str() const;
};

class BlackholingController {
 public:
  struct PortDirectoryEntry {
    filter::PortId port = 0;
    double capacity_mbps = 0.0;
  };
  /// Resolves a member ASN to its IXP port (nullopt: not a member).
  using PortDirectory = std::function<std::optional<PortDirectoryEntry>(bgp::Asn)>;
  using ChangeSink = std::function<void(ConfigChange)>;
  /// Fresh transport per dial (RouteServer::accept_controller), for
  /// self-healing reconnects after a session loss.
  using TransportFactory = std::function<std::shared_ptr<bgp::Endpoint>()>;
  /// Change keys currently (or imminently) realized in the data plane:
  /// compiler-installed rules projected over the manager's in-flight queue.
  /// The reconciliation audit diffs this against desired().
  using InstalledView = std::function<std::vector<std::string>()>;

  struct Config {
    /// The IXP's ASN. Signals are accepted in the two-octet-AS extended
    /// community namespace (when the ASN fits 16 bits) and in the RFC 8092
    /// large-community namespace (always).
    bgp::Asn ixp_asn = 64500;
    /// RIB-diff processing cadence.
    double process_interval_s = 0.5;
    /// Admission control: max concurrently desired rules per member port.
    int max_rules_per_port = 64;
    /// Negotiate ADD-PATH on the route-server session. Disabling it loses
    /// the ability to honor diverging rules for one prefix from different
    /// members (paper §4.3) — kept switchable for the ablation bench.
    bool use_add_path = true;
  };

  /// `transport` is the endpoint returned by RouteServer::accept_controller().
  /// One-shot session: a closed signaling path stays closed (fail-safe only).
  BlackholingController(sim::EventQueue& queue, std::shared_ptr<bgp::Endpoint> transport,
                        Config config, PortDirectory directory, const RulePortal* portal);

  /// Self-healing variant: dials through `factory` and re-dials per `policy`
  /// after unexpected session loss; each re-establishment triggers a
  /// ROUTE-REFRESH resync followed by a reconciliation audit.
  BlackholingController(sim::EventQueue& queue, TransportFactory factory,
                        bgp::ReconnectPolicy policy, Config config, PortDirectory directory,
                        const RulePortal* portal);
  ~BlackholingController();
  BlackholingController(const BlackholingController&) = delete;
  BlackholingController& operator=(const BlackholingController&) = delete;

  void set_change_sink(ChangeSink sink) { sink_ = std::move(sink); }
  void set_installed_view(InstalledView view) { installed_view_ = std::move(view); }

  /// Recomputes the desired rule set from the RIB and emits the differences.
  /// Called periodically; exposed for tests and for immediate reaction.
  void process();

  /// Post-resync reconciliation audit: diffs the data plane (installed view)
  /// against the desired set, removing orphans and reinstalling missing
  /// rules. Runs automatically after reconnect resyncs; exposed for tests
  /// and for quiescence checks.
  struct ReconcileReport {
    std::uint64_t orphans_removed = 0;
    std::uint64_t missing_reinstalled = 0;
  };
  ReconcileReport reconcile();

  struct Stats {
    std::uint64_t updates_processed = 0;
    std::uint64_t signals_decoded = 0;
    std::uint64_t invalid_signals = 0;      ///< Malformed or unauthorized.
    std::uint64_t admission_rejected = 0;   ///< Over the per-port rule budget.
    std::uint64_t installs_emitted = 0;
    std::uint64_t removals_emitted = 0;
    /// Times the fail-safe flushed all rules after losing the route server.
    std::uint64_t failsafe_flushes = 0;
    // Reconciliation audit outcomes (post-resync convergence observability).
    std::uint64_t reconciliations = 0;
    std::uint64_t orphans_removed = 0;
    std::uint64_t missing_reinstalled = 0;
    // Diff-epoch shape: how many process() rounds ran the O(RIB) full rescan
    // vs the O(dirty prefixes) incremental delta.
    std::uint64_t epochs_full = 0;
    std::uint64_t epochs_incremental = 0;
  };

  /// Thin read over this controller's obs registry cells.
  [[nodiscard]] const Stats& stats() const {
    stats_.updates_processed = c_updates_processed_.value();
    stats_.signals_decoded = c_signals_decoded_.value();
    stats_.invalid_signals = c_invalid_signals_.value();
    stats_.admission_rejected = c_admission_rejected_.value();
    stats_.installs_emitted = c_installs_emitted_.value();
    stats_.removals_emitted = c_removals_emitted_.value();
    stats_.failsafe_flushes = c_failsafe_flushes_.value();
    stats_.reconciliations = c_reconciliations_.value();
    stats_.orphans_removed = c_orphans_removed_.value();
    stats_.missing_reinstalled = c_missing_reinstalled_.value();
    stats_.epochs_full = c_epochs_full_.value();
    stats_.epochs_incremental = c_epochs_incremental_.value();
    return stats_;
  }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const bgp::Rib& rib() const { return rib_; }
  [[nodiscard]] bgp::Session& session() { return *reconnector_->session(); }
  /// Recovery state machine around the session (reconnect/damping stats).
  [[nodiscard]] bgp::ReconnectingSession& reconnector() { return *reconnector_; }
  /// Currently desired (admitted) rules, keyed by change identity.
  [[nodiscard]] const std::map<std::string, ConfigChange>& desired() const { return desired_; }

 private:
  struct DesiredRule {
    bgp::Asn member;
    filter::PortId port;
    filter::FilterRule rule;
    std::string trace;  ///< Signal-path trace id (the signaling prefix).
  };

  void on_update(const bgp::UpdateMessage& update);
  /// Derives the rules a single RIB route asks for.
  [[nodiscard]] std::vector<std::pair<std::string, DesiredRule>> derive_rules(
      const bgp::RouteView& route);
  void init_session(TransportFactory factory, bgp::ReconnectPolicy policy);
  /// Full O(RIB) recompute of the desired set (the paper's snapshot diff).
  void process_full();
  /// Batched per-epoch delta over the prefixes dirtied since the last round.
  /// Falls back to process_full() whenever admission control could bind —
  /// admission is sort-order-sensitive, so only a global pass decides it.
  void process_incremental();
  /// Emits the removal/install/modify changes moving `key` to `next`
  /// (nullptr: no longer desired), maintaining desired_ and port_counts_.
  /// Returns the number of changes emitted (0, 1, or 2).
  std::size_t emit_transition(const std::string& key, const DesiredRule* next);

  sim::EventQueue& queue_;
  Config config_;
  PortDirectory directory_;
  const RulePortal* portal_;
  std::unique_ptr<bgp::ReconnectingSession> reconnector_;
  /// Runs process() every process_interval_s; re-armed after each round.
  sim::Timer processor_{queue_, [this] {
    process();
    processor_.arm_after(sim::Seconds(config_.process_interval_s));
  }};
  bgp::Rib rib_;
  /// Signal routes already counted in stats (process() re-derives every
  /// round; stats must count each signaled route once).
  std::set<std::pair<net::Prefix4, bgp::PathId>> stats_counted_;
  /// key -> change currently believed installed (or queued to install).
  std::map<std::string, ConfigChange> desired_;
  /// Prefixes touched by updates since the last process() round: the unit of
  /// the batched diff epoch. All per-prefix deltas within one epoch coalesce
  /// into a single change-set emission.
  std::set<net::Prefix4> dirty_;
  /// Force the next epoch through the full rescan (initial sync, fail-safe
  /// flush, any RIB mutation that bypasses on_update()).
  bool need_full_ = true;
  /// Desired-rule count per port, mirrored from desired_ so the incremental
  /// path can detect a port nearing its admission budget without a rescan.
  std::map<filter::PortId, int> port_counts_;
  /// Ports that had at least one admission rejection during the last full
  /// pass: a rejected rule may be waiting in the RIB, so any churn on these
  /// ports must re-run global admission.
  std::set<filter::PortId> rejected_ports_;
  ChangeSink sink_;
  InstalledView installed_view_;
  /// Invalidates scheduled reconciliations when the controller dies.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  obs::Counter c_updates_processed_ =
      obs::registry().counter("core.controller.updates_processed");
  obs::Counter c_signals_decoded_ = obs::registry().counter("core.controller.signals_decoded");
  obs::Counter c_invalid_signals_ = obs::registry().counter("core.controller.invalid_signals");
  obs::Counter c_admission_rejected_ =
      obs::registry().counter("core.controller.admission_rejected");
  obs::Counter c_installs_emitted_ =
      obs::registry().counter("core.controller.installs_emitted");
  obs::Counter c_removals_emitted_ =
      obs::registry().counter("core.controller.removals_emitted");
  obs::Counter c_failsafe_flushes_ =
      obs::registry().counter("core.controller.failsafe_flushes");
  obs::Counter c_reconciliations_ = obs::registry().counter("core.controller.reconciliations");
  obs::Counter c_orphans_removed_ = obs::registry().counter("core.controller.orphans_removed");
  obs::Counter c_missing_reinstalled_ =
      obs::registry().counter("core.controller.missing_reinstalled");
  obs::Counter c_epochs_full_ = obs::registry().counter("core.controller.epochs_full");
  obs::Counter c_epochs_incremental_ =
      obs::registry().counter("core.controller.epochs_incremental");
  /// Changes emitted per non-empty diff epoch (batch size distribution).
  obs::Histogram h_epoch_changes_ = obs::registry().histogram(
      "core.controller.epoch_changes", obs::HistogramOptions{1.0, 2.0, 16});
  mutable Stats stats_;
};

}  // namespace stellar::core
