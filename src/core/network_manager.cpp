#include "core/network_manager.hpp"

#include <algorithm>
#include <cassert>

#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace stellar::core {

namespace {

/// Retry backoff growth per attempt, and its ceiling.
constexpr double kRetryBackoffMultiplier = 2.0;
constexpr double kRetryBackoffMaxS = 30.0;

}  // namespace

// ---------------------------------------------------------------------------
// QosConfigCompiler.

util::Result<void> QosConfigCompiler::apply(const ConfigChange& change) {
  if (change.op == ConfigChange::Op::kInstall) {
    auto id = router_.install_rule(change.port, change.rule);
    if (!id.ok()) return id.error();
    // Idempotent upsert: a reinstall for a known key (retry after a partial
    // failure, reconciliation replay) must not leak the old data-plane rule.
    if (const auto it = installed_.find(change.key); it != installed_.end()) {
      router_.remove_rule(it->second.first, it->second.second);
    }
    installed_[change.key] = {change.port, *id};
    return {};
  }
  const auto it = installed_.find(change.key);
  if (it == installed_.end()) {
    return util::MakeError("qos.unknown_rule", "no installed rule for key " + change.key);
  }
  const auto [port, rule_id] = it->second;
  installed_.erase(it);
  if (!router_.remove_rule(port, rule_id)) {
    return util::MakeError("qos.remove_failed", "rule id " + std::to_string(rule_id) +
                                                    " not present on port " +
                                                    std::to_string(port));
  }
  return {};
}

std::optional<filter::RuleId> QosConfigCompiler::rule_id(const std::string& key) const {
  const auto it = installed_.find(key);
  if (it == installed_.end()) return std::nullopt;
  return it->second.second;
}

// ---------------------------------------------------------------------------
// SdnConfigCompiler.

util::Result<void> SdnConfigCompiler::apply(const ConfigChange& change) {
  if (change.op == ConfigChange::Op::kInstall) {
    FlowEntry entry;
    entry.cookie = next_cookie_++;
    // Blackholing rules outrank the default forwarding pipeline; more
    // specific L4 matches outrank coarse protocol matches.
    entry.priority = static_cast<std::uint16_t>(
        100 + change.rule.match.l3l4_criteria_count());
    entry.match = change.rule.match;
    entry.action = change.rule.action;
    entry.meter_rate_mbps = change.rule.shape_rate_mbps;
    auto added = table_.add(std::move(entry));
    if (!added.ok()) return added.error();
    // Idempotent upsert: drop the superseded flow entry for this key.
    if (const auto it = cookies_.find(change.key); it != cookies_.end()) {
      table_.remove(it->second);
    }
    cookies_[change.key] = next_cookie_ - 1;
    return {};
  }
  const auto it = cookies_.find(change.key);
  if (it == cookies_.end()) {
    return util::MakeError("sdn.unknown_rule", "no flow entry for key " + change.key);
  }
  const std::uint64_t cookie = it->second;
  cookies_.erase(it);
  if (!table_.remove(cookie)) {
    return util::MakeError("sdn.remove_failed",
                           "cookie " + std::to_string(cookie) + " not in table");
  }
  return {};
}

// ---------------------------------------------------------------------------
// NetworkManager.

NetworkManager::NetworkManager(sim::EventQueue& queue, ConfigCompiler& compiler, Config config)
    : queue_(queue),
      compiler_(compiler),
      config_(std::move(config)),
      bucket_(config_.rate_per_s, config_.max_burst_size) {
  if (!config_.transient_classifier) {
    config_.transient_classifier = DefaultTransientClassifier;
  }
  stats_.waiting_times_s = util::RingLog<double>(config_.stats_retained_samples);
  stats_.failure_codes = util::RingLog<std::string>(config_.stats_retained_samples);
}

void NetworkManager::enqueue(ConfigChange change) {
  change.enqueued_at_s = queue_.now().count();
  change.attempt = 0;
  if (!change.trace.empty() && change.op == ConfigChange::Op::kInstall) {
    obs::tracer().mark(change.trace, "config_enqueued", change.enqueued_at_s);
  }
  // The newest intent for a key wins: it supersedes a retry of that key still
  // sitting out its backoff.
  if (backoff_changes_.erase(change.key) > 0) c_coalesced_.inc();
  push(std::move(change));
  schedule_drain();
}

void NetworkManager::push(ConfigChange change) {
  const auto idx = pending_index_.find(change.key);
  if (!config_.batch_apply || idx == pending_index_.end()) {
    pending_.push_back(std::move(change));
    pending_index_[pending_.back().key] = std::prev(pending_.end());
    return;
  }
  const auto node = idx->second;
  c_coalesced_.inc();
  if (node->op == ConfigChange::Op::kInstall && change.op == ConfigChange::Op::kRemove &&
      !believed_installed_.contains(change.key)) {
    // install -> remove for a rule the hardware never saw: both evaporate.
    pending_.erase(node);
    pending_index_.erase(idx);
    return;
  }
  // Otherwise the latest intent replaces the queued change in place:
  // remove -> install collapses to the install (compiler installs are
  // idempotent upserts), install -> install and remove -> remove keep the
  // newest payload. Queue position is preserved.
  *node = std::move(change);
}

std::vector<ConfigChange> NetworkManager::in_flight() const {
  std::vector<ConfigChange> out(pending_.begin(), pending_.end());
  for (const auto& [key, backoff] : backoff_changes_) out.push_back(backoff.second);
  return out;
}

void NetworkManager::handle_failure(ConfigChange change, const util::Error& error) {
  // Exactly-one accounting: each failed attempt increments `failed` plus one
  // class counter, and then either `retries` or one terminal counter
  // (`permanent` dead-letters directly, an exhausted transient increments
  // `retry_budget_exhausted`) — never both, so the Stats invariants hold.
  c_failed_.inc();
  stats_.failure_codes.push_back(error.code);
  const bool transient = config_.transient_classifier(error);
  if (transient) {
    c_transient_failures_.inc();
  } else {
    c_permanent_failures_.inc();
  }
  if (!transient || change.attempt >= config_.max_attempts) {
    // Permanent, or the attempt budget is spent: dead-letter the change so
    // operators can inspect what the hardware refused.
    if (transient) c_retry_budget_exhausted_.inc();
    c_dead_lettered_.inc();
    obs::journal().append(queue_.now().count(), obs::EventKind::kRuleDeadLettered, change.key,
                          error.code + " attempt=" + std::to_string(change.attempt));
    dead_letter_.push_back(std::move(change));
    return;
  }
  // Transient: re-enter the rate-limited queue after an exponential backoff.
  double backoff = config_.retry_backoff_s;
  for (int i = 1; i < change.attempt; ++i) backoff *= kRetryBackoffMultiplier;
  backoff = std::min(backoff, kRetryBackoffMaxS);
  c_retries_.inc();
  obs::journal().append(queue_.now().count(), obs::EventKind::kRuleRetry, change.key,
                        error.code + " attempt=" + std::to_string(change.attempt));
  if (pending_index_.contains(change.key)) {
    // A newer change for this key is already queued; it supersedes the retry.
    c_coalesced_.inc();
    return;
  }
  const std::uint64_t ticket = next_backoff_ticket_++;
  std::string key = change.key;
  backoff_changes_.insert_or_assign(key, std::pair(ticket, std::move(change)));
  queue_.schedule_after(sim::Seconds(backoff), [this, key = std::move(key), ticket] {
    // A newer enqueue of the key may have dropped (and a later failure
    // replaced) this retry while its timer was pending.
    const auto it = backoff_changes_.find(key);
    if (it == backoff_changes_.end() || it->second.first != ticket) return;
    ConfigChange retry = std::move(it->second.second);
    backoff_changes_.erase(it);
    push(std::move(retry));
    schedule_drain();
  });
}

void NetworkManager::schedule_drain() {
  if (drain_scheduled_ || pending_.empty()) return;
  drain_scheduled_ = true;
  const double now = queue_.now().count();
  double when = bucket_.time_available(1.0, now);
  // Liveness guard: if a previous drain at this very timestamp could not
  // consume (floating-point refill shortfall), force strictly-later retry.
  if (when <= last_failed_drain_s_) when = last_failed_drain_s_ + 1e-3;
  queue_.schedule_at(sim::Seconds(when), [this] {
    drain_scheduled_ = false;
    if (pending_.empty()) return;
    const double now_s = queue_.now().count();
    if (!bucket_.try_consume(1.0, now_s)) {
      last_failed_drain_s_ = now_s;
      schedule_drain();  // Tokens not there yet; re-arm strictly later.
      return;
    }
    drain(now_s);
    schedule_drain();
  });
}

void NetworkManager::drain(double now_s) {
  // One token admits one port-batch through a single compiler invocation:
  // every queued change of the front change's port, FIFO within the port,
  // or with batch_apply off the front change alone.
  const filter::PortId port = pending_.front().port;
  std::vector<ConfigChange> batch;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->port != port) {
      ++it;
      continue;
    }
    // The index keeps the key's newest queued change, which may be a later one.
    if (const auto idx = pending_index_.find(it->key); idx->second == it) {
      pending_index_.erase(idx);
    }
    batch.push_back(std::move(*it));
    it = pending_.erase(it);
    if (!config_.batch_apply) break;
  }
  for (auto& change : batch) {
    // Waiting time is recorded for the first attempt only: retries would
    // double-count a change and distort the Fig. 10b percentiles.
    if (change.attempt == 0) {
      stats_.waiting_times_s.push_back(now_s - change.enqueued_at_s);
      wait_hist_.observe(now_s - change.enqueued_at_s);
    }
    ++change.attempt;
  }
  c_batches_.inc();
  h_batch_size_.observe(static_cast<double>(batch.size()));
  const auto results = compiler_.apply_batch(batch);
  assert(results.size() == batch.size() && "apply_batch must return one result per change");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    settle_apply(std::move(batch[i]), results[i], now_s);
  }
}

void NetworkManager::settle_apply(ConfigChange change, const util::Result<void>& applied,
                                  double now_s) {
  if (applied.ok()) {
    c_applied_.inc();
    const bool install = change.op == ConfigChange::Op::kInstall;
    if (install) {
      believed_installed_.insert(change.key);
    } else {
      believed_installed_.erase(change.key);
    }
    obs::journal().append(now_s,
                          install ? obs::EventKind::kRuleInstalled
                                  : obs::EventKind::kRuleRemoved,
                          change.key, change.str());
    if (install && !change.trace.empty()) {
      obs::tracer().mark(change.trace, "config_applied", now_s);
    }
  } else {
    handle_failure(std::move(change), applied.error());
  }
}

}  // namespace stellar::core
