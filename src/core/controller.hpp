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
#include <tuple>
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

  /// One diff epoch: re-derives the prefixes dirtied since the last round,
  /// re-admits their ports' candidates and emits the differences. Called
  /// periodically; exposed for tests and for immediate reaction.
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
    /// Signal paths decoded on arrival; a path that is withdrawn and
    /// announced again counts again.
    std::uint64_t signals_decoded = 0;
    std::uint64_t invalid_signals = 0;      ///< Malformed or unauthorized.
    /// Candidates that became rejected by the per-port rule budget, on
    /// arrival or by eviction; one that stays rejected counts once.
    std::uint64_t admission_rejected = 0;
    std::uint64_t installs_emitted = 0;
    std::uint64_t removals_emitted = 0;
    /// Times the fail-safe flushed all rules after losing the route server.
    std::uint64_t failsafe_flushes = 0;
    // Reconciliation audit outcomes (post-resync convergence observability).
    std::uint64_t reconciliations = 0;
    std::uint64_t orphans_removed = 0;
    std::uint64_t missing_reinstalled = 0;
    // Diff-epoch shape. Every non-empty process() round counts as
    // incremental; the fail-safe flush epochs, the only ones that re-derive
    // every prefix, also count as full.
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
  /// A rule's place in RIB order: its route's (prefix, path-id), then its
  /// index in the signal. Admission keeps the first max_rules_per_port.
  using RuleOrder = std::tuple<net::Prefix4, bgp::PathId, std::size_t>;
  /// One rule a signal path asks for: an admission candidate on its port.
  struct Candidate {
    RuleOrder order;
    ConfigChange change;    ///< The install that admits it.
    bool rejected = false;  ///< Over its port's budget after the last epoch.
  };
  /// The Stellar-carrying paths of one RIB prefix (invalid ones included)
  /// and the candidates derived from them, by change key.
  struct PrefixRecord {
    std::vector<bgp::PathId> paths;  ///< Ascending.
    std::map<std::string, Candidate> rules;
  };
  /// One port's candidates in RIB order; those before `first_rejected` (all
  /// of them when it is unset) are admitted.
  struct PortCandidates {
    std::set<RuleOrder> order;
    std::optional<RuleOrder> first_rejected;  ///< Set while over budget.
  };

  void on_update(const bgp::UpdateMessage& update);
  /// Adds the rules a single RIB route asks for to `out`. Returns false if
  /// the route carries no Stellar community. `first_seen`: the path has no
  /// record yet, so its decode and invalidity count in the stats.
  bool derive_rules(const bgp::RouteView& route, bool first_seen,
                    std::map<std::string, Candidate>& out);
  void init_session(TransportFactory factory, bgp::ReconnectPolicy policy);
  /// Re-derives `prefix` from the RIB into records_ and its candidates into
  /// ports_, adding every port whose candidates it touched.
  void rederive(const net::Prefix4& prefix, std::set<filter::PortId>& touched);
  [[nodiscard]] bool admitted(const Candidate& candidate) const;
  /// Emits the removal/install/modify changes moving `key` to `next`
  /// (nullptr: no longer desired), maintaining desired_. Returns the number
  /// of changes emitted (0, 1, or 2).
  std::size_t emit_transition(const std::string& key, const ConfigChange* next);

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
  /// Every RIB prefix with a Stellar-carrying path, as last derived.
  std::map<net::Prefix4, PrefixRecord> records_;
  /// Admission state per port, over the candidates in records_.
  std::map<filter::PortId, PortCandidates> ports_;
  /// key -> change currently believed installed (or queued to install): the
  /// admitted candidates as of the last epoch.
  std::map<std::string, ConfigChange> desired_;
  /// Prefixes touched by updates since the last process() round: the unit of
  /// the batched diff epoch. All per-prefix deltas within one epoch coalesce
  /// into a single change-set emission.
  std::set<net::Prefix4> dirty_;
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
