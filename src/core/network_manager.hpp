// Network manager (paper §4.4, Fig. 7): dequeues abstract configuration
// changes through a token-bucket rate limiter ("to limit the number of
// configuration changes within any time interval to a rate that is
// manageable by the switch hardware") and compiles them into hardware
// specific operations via a pluggable compiler:
//   - QosConfigCompiler  — vendor ACL/QoS policies on the edge router
//     (the deployed option at L-IXP), or
//   - SdnConfigCompiler  — OpenFlow-style flow mods (the SDX option).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/sdn.hpp"
#include "filter/edge_router.hpp"
#include "filter/token_bucket.hpp"
#include "obs/metrics.hpp"
#include "sim/event_queue.hpp"
#include "util/result.hpp"
#include "util/ring_log.hpp"

namespace stellar::core {

/// Compiles abstract changes into a concrete target. Implementations consult
/// their hardware information base and may reject a change (resource limits).
class ConfigCompiler {
 public:
  virtual ~ConfigCompiler() = default;
  virtual util::Result<void> apply(const ConfigChange& change) = 0;
  /// Applies a coalesced batch (one port, FIFO order) in a single compiler
  /// invocation, returning one result per change. The default loops apply();
  /// hardware backends may override to emit one merged device transaction.
  virtual std::vector<util::Result<void>> apply_batch(const std::vector<ConfigChange>& changes) {
    std::vector<util::Result<void>> results;
    results.reserve(changes.size());
    for (const auto& change : changes) results.push_back(apply(change));
    return results;
  }
  [[nodiscard]] virtual std::string_view name() const = 0;
};

/// Option 1: vendor QoS policies on the IXP edge router.
class QosConfigCompiler final : public ConfigCompiler {
 public:
  explicit QosConfigCompiler(filter::EdgeRouter& router) : router_(router) {}

  util::Result<void> apply(const ConfigChange& change) override;
  [[nodiscard]] std::string_view name() const override { return "qos"; }

  /// Data-plane rule id for an installed change key (telemetry lookups).
  [[nodiscard]] std::optional<filter::RuleId> rule_id(const std::string& key) const;

  /// Change keys with a live data-plane rule — the "installed" side of the
  /// controller's reconciliation audit.
  [[nodiscard]] std::vector<std::string> installed_keys() const {
    std::vector<std::string> keys;
    keys.reserve(installed_.size());
    for (const auto& [key, entry] : installed_) keys.push_back(key);
    return keys;
  }

 private:
  filter::EdgeRouter& router_;
  std::map<std::string, std::pair<filter::PortId, filter::RuleId>> installed_;
};

/// Option 2: SDN switch flow tables.
class SdnConfigCompiler final : public ConfigCompiler {
 public:
  explicit SdnConfigCompiler(FlowTable& table) : table_(table) {}

  util::Result<void> apply(const ConfigChange& change) override;
  [[nodiscard]] std::string_view name() const override { return "sdn"; }

 private:
  FlowTable& table_;
  std::map<std::string, std::uint64_t> cookies_;
  std::uint64_t next_cookie_ = 1;
};

class NetworkManager {
 public:
  /// Decides whether a compiler failure is worth retrying. Transient codes
  /// (device busy, injected chaos) heal on their own; permanent ones
  /// (unknown key, resource limits) never will.
  using TransientClassifier = std::function<bool(const util::Error&)>;

  /// Default taxonomy: codes under the "transient." prefix are retryable,
  /// everything else is permanent.
  static bool DefaultTransientClassifier(const util::Error& error) {
    return error.code.rfind("transient.", 0) == 0;
  }

  struct Config {
    /// Long-term configuration-change rate limit (paper Fig. 10b evaluates
    /// 4/s and 5/s against the measured sustainable 4.33/s).
    double rate_per_s = 4.33;
    /// Maximum Burst Size: changes that may be applied back-to-back.
    double max_burst_size = 5.0;
    /// Total apply attempts per change (first try + retries). Transient
    /// failures re-enter the rate-limited queue after a backoff; once the
    /// budget is exhausted the change is dead-lettered.
    int max_attempts = 4;
    /// Delay before the first retry; each further retry doubles it, up to
    /// 30 s.
    double retry_backoff_s = 2.0;
    /// nullptr selects DefaultTransientClassifier.
    TransientClassifier transient_classifier = nullptr;
    /// Retained-sample cap for waiting_times_s / failure_codes.
    std::size_t stats_retained_samples = util::RingLog<double>::kDefaultCapacity;
    /// Batched apply (L-IXP scale): each token admits one *port-batch* — all
    /// queued changes for the front change's port, in FIFO order, through a
    /// single compiler invocation — and superseded install/remove churn per
    /// change key is coalesced while still queued (before the token bucket).
    /// Off by default: per-change pacing (a port-batch of one, no coalescing)
    /// is the paper's Fig. 10b setup.
    bool batch_apply = false;
  };

  NetworkManager(sim::EventQueue& queue, ConfigCompiler& compiler, Config config);

  /// Enqueues a change; it is applied when the token bucket admits it.
  void enqueue(ConfigChange change);

  /// Failure accounting invariants (each failed attempt lands in exactly one
  /// class, each dead-lettered change in exactly one terminal bucket):
  ///   failed          == transient_failures + permanent_failures
  ///   transient_failures == retries + retry_budget_exhausted
  ///   dead_lettered   == permanent_failures + retry_budget_exhausted
  struct Stats {
    std::uint64_t applied = 0;
    /// Port-batches drained, one token each (size 1 with batch_apply off).
    std::uint64_t batches = 0;
    /// Queued changes (batch_apply mode) and retries (both modes) annihilated
    /// or superseded by a newer change for their key.
    std::uint64_t coalesced = 0;
    std::uint64_t failed = 0;  ///< Failed apply attempts (any class).
    std::uint64_t transient_failures = 0;
    std::uint64_t permanent_failures = 0;
    std::uint64_t retries = 0;        ///< Transient failures given a retry.
    std::uint64_t dead_lettered = 0;  ///< Changes abandoned permanently.
    /// Transient failures dead-lettered because the attempt budget was spent
    /// (the terminal counterpart of retries — never double-counted with
    /// permanent_failures).
    std::uint64_t retry_budget_exhausted = 0;
    /// Queueing delay of every change's first attempt: the "time from
    /// blackholing signal to configuration" of Fig. 10b. Bounded ring log —
    /// total() counts all samples, evicted() the ones aged out of the window.
    util::RingLog<double> waiting_times_s;
    util::RingLog<std::string> failure_codes;
  };

  /// Thin read over this manager's obs registry cells (the ring logs are fed
  /// directly and need no refresh).
  [[nodiscard]] const Stats& stats() const {
    stats_.applied = c_applied_.value();
    stats_.batches = c_batches_.value();
    stats_.coalesced = c_coalesced_.value();
    stats_.failed = c_failed_.value();
    stats_.transient_failures = c_transient_failures_.value();
    stats_.permanent_failures = c_permanent_failures_.value();
    stats_.retries = c_retries_.value();
    stats_.dead_lettered = c_dead_lettered_.value();
    stats_.retry_budget_exhausted = c_retry_budget_exhausted_.value();
    return stats_;
  }
  [[nodiscard]] std::size_t queue_depth() const { return queue_depth_now(); }
  /// Changes not yet applied (in flight through the token bucket or awaiting
  /// a retry backoff) — the projection reconciliation audits against.
  [[nodiscard]] std::vector<ConfigChange> in_flight() const;
  /// Changes abandoned after exhausting their attempt budget or failing with
  /// a permanent error; kept for operator inspection.
  [[nodiscard]] const std::deque<ConfigChange>& dead_letter() const { return dead_letter_; }

 private:
  [[nodiscard]] std::size_t queue_depth_now() const { return pending_.size(); }
  void schedule_drain();
  /// Spends one token on the front change's port-batch.
  void drain(double now_s);
  /// Admission to pending_ for new changes and retries alike. With
  /// batch_apply it coalesces against a queued change for the same key
  /// (latest intent wins; install-then-remove for a rule never installed
  /// annihilates both) instead of appending.
  void push(ConfigChange change);
  /// Applies one change's outcome bookkeeping (journal, counters, believed-
  /// installed tracking, failure handling).
  void settle_apply(ConfigChange change, const util::Result<void>& applied, double now_s);
  void handle_failure(ConfigChange change, const util::Error& error);

  sim::EventQueue& queue_;
  ConfigCompiler& compiler_;
  Config config_;
  filter::TokenBucket bucket_;
  /// FIFO of queued changes. A list so batch-mode coalescing can splice out
  /// superseded entries by key without disturbing iterator stability.
  std::list<ConfigChange> pending_;
  /// Key -> its newest queued change (with batch_apply the only one).
  std::map<std::string, std::list<ConfigChange>::iterator> pending_index_;
  /// Keys whose install the compiler has acknowledged (and no later remove):
  /// install-then-remove churn for keys NOT in here annihilates outright.
  std::set<std::string> believed_installed_;
  std::deque<ConfigChange> dead_letter_;
  /// Changes sitting out a retry backoff: key -> (ticket, change). A newer
  /// enqueue of the key drops the retry; the ticket tells stale timers apart.
  std::map<std::string, std::pair<std::uint64_t, ConfigChange>> backoff_changes_;
  std::uint64_t next_backoff_ticket_ = 0;
  bool drain_scheduled_ = false;
  double last_failed_drain_s_ = -1.0;
  obs::Counter c_applied_ = obs::registry().counter("core.manager.applied");
  obs::Counter c_batches_ = obs::registry().counter("core.manager.batches");
  obs::Counter c_coalesced_ = obs::registry().counter("core.manager.coalesced");
  /// Changes per drained port-batch (always 1 with batch_apply off).
  obs::Histogram h_batch_size_ = obs::registry().histogram(
      "core.manager.batch_size", obs::HistogramOptions{1.0, 2.0, 12});
  obs::Counter c_failed_ = obs::registry().counter("core.manager.failed");
  obs::Counter c_transient_failures_ =
      obs::registry().counter("core.manager.transient_failures");
  obs::Counter c_permanent_failures_ =
      obs::registry().counter("core.manager.permanent_failures");
  obs::Counter c_retries_ = obs::registry().counter("core.manager.retries");
  obs::Counter c_dead_lettered_ = obs::registry().counter("core.manager.dead_lettered");
  obs::Counter c_retry_budget_exhausted_ =
      obs::registry().counter("core.manager.retry_budget_exhausted");
  obs::Histogram wait_hist_ = obs::registry().histogram("core.manager.wait_seconds");
  mutable Stats stats_;
};

}  // namespace stellar::core
