#include "core/controller.hpp"

#include <algorithm>

#include "obs/journal.hpp"
#include "obs/trace.hpp"

namespace stellar::core {

namespace {

/// Settle time between a session re-establishment (with its ROUTE-REFRESH
/// resync) and the automatic reconciliation audit.
constexpr double kReconcileDelayS = 5.0;

}  // namespace

std::string ConfigChange::str() const {
  return std::string(op == Op::kInstall ? "install" : "remove") + " port " +
         std::to_string(port) + " " + rule.str();
}

BlackholingController::BlackholingController(sim::EventQueue& queue,
                                             std::shared_ptr<bgp::Endpoint> transport,
                                             Config config, PortDirectory directory,
                                             const RulePortal* portal)
    : queue_(queue),
      config_(config),
      directory_(std::move(directory)),
      portal_(portal) {
  // One-shot transport: hand out the given endpoint on the first dial; a
  // zero-retry policy keeps the classic fail-safe-only behaviour.
  auto handed_out = std::make_shared<std::shared_ptr<bgp::Endpoint>>(std::move(transport));
  bgp::ReconnectPolicy one_shot;
  one_shot.max_retries = 0;
  init_session([handed_out]() { return std::exchange(*handed_out, nullptr); }, one_shot);
}

BlackholingController::BlackholingController(sim::EventQueue& queue, TransportFactory factory,
                                             bgp::ReconnectPolicy policy, Config config,
                                             PortDirectory directory, const RulePortal* portal)
    : queue_(queue),
      config_(config),
      directory_(std::move(directory)),
      portal_(portal) {
  init_session(std::move(factory), policy);
}

BlackholingController::~BlackholingController() { *alive_ = false; }

void BlackholingController::init_session(TransportFactory factory,
                                         bgp::ReconnectPolicy policy) {
  bgp::SessionConfig session_config;
  session_config.local_asn = config_.ixp_asn;  // iBGP with the route server.
  session_config.router_id = net::IPv4Address(10, 99, 0, 2);
  session_config.add_path_rx = config_.use_add_path;  // See all paths, bypass best-path.
  reconnector_ = std::make_unique<bgp::ReconnectingSession>(queue_, std::move(factory),
                                                            session_config, policy);
  reconnector_->set_update_handler([this](const bgp::UpdateMessage& u) { on_update(u); });
  // Fail-safe (paper §4.1.2): if the signaling path dies, fall back to
  // simple forwarding of all traffic — stale filters must not strand a
  // member once it can no longer withdraw them.
  reconnector_->set_state_handler([this](bgp::SessionState state) {
    if (state != bgp::SessionState::kClosed) return;
    c_failsafe_flushes_.inc();
    obs::journal().append(queue_.now().count(), obs::EventKind::kFailsafeFlush, "controller",
                          "desired=" + std::to_string(desired_.size()));
    rib_.clear();       // Bypasses on_update's dirty tracking...
    need_full_ = true;  // ...so the next epoch must be a full rescan.
    process();  // Emits removals for everything previously desired.
  });
  // Each re-establishment resyncs the RIB (the route server replays it and
  // answers our ROUTE-REFRESH), then the reconciliation audit squares the
  // data plane with the recomputed desired set.
  reconnector_->set_established_handler([this](bgp::Session& session) {
    if (reconnector_->stats().reconnects == 0) return;  // First dial: nothing to heal.
    session.request_route_refresh(bgp::kAfiIPv4);
    queue_.schedule_after(sim::Seconds(kReconcileDelayS),
                          [this, alive = alive_] {
                            if (!*alive) return;
                            reconcile();
                          });
  });
  reconnector_->start();
  processor_.arm_after(sim::Seconds(config_.process_interval_s));
}

BlackholingController::ReconcileReport BlackholingController::reconcile() {
  ReconcileReport report;
  process();  // Bring desired_ up to date with the (resynced) RIB first.
  if (!installed_view_) return report;
  c_reconciliations_.inc();
  std::set<std::string> installed;
  for (auto& key : installed_view_()) installed.insert(std::move(key));

  // Orphans: realized in the data plane, no longer desired. The compilers
  // resolve removals by key alone, so no port/rule payload is needed.
  for (const auto& key : installed) {
    if (desired_.contains(key)) continue;
    ConfigChange change;
    change.op = ConfigChange::Op::kRemove;
    change.key = key;
    ++report.orphans_removed;
    c_orphans_removed_.inc();
    c_removals_emitted_.inc();
    if (sink_) sink_(change);
  }

  // Missing: desired but absent from the data plane (lost to a crash or a
  // dead-lettered install) — reissue the install.
  for (const auto& [key, change] : desired_) {
    if (installed.contains(key)) continue;
    ConfigChange install = change;
    install.op = ConfigChange::Op::kInstall;
    ++report.missing_reinstalled;
    c_missing_reinstalled_.inc();
    c_installs_emitted_.inc();
    if (sink_) sink_(install);
  }
  obs::journal().append(queue_.now().count(), obs::EventKind::kReconciliation, "controller",
                        "orphans=" + std::to_string(report.orphans_removed) +
                            " missing=" + std::to_string(report.missing_reinstalled));
  return report;
}

void BlackholingController::on_update(const bgp::UpdateMessage& update) {
  c_updates_processed_.inc();
  // Signal-carrying updates get a trace mark per announced prefix: the
  // moment the signal reached the controller's BGP front-end.
  if (!update.attrs.extended_communities.empty() || !update.attrs.large_communities.empty()) {
    const double now = queue_.now().count();
    for (const auto& nlri : update.announced) {
      obs::tracer().mark(nlri.prefix.str(), "controller_rx", now);
    }
  }
  // The BGP processor stores announced routes in the RIB; peer 0 (the route
  // server session) with ADD-PATH path-ids distinguishing member paths.
  rib_.apply_update(0, update);
  // Every touched prefix joins the current diff epoch: all deltas that land
  // between two process() rounds coalesce into one change-set emission.
  for (const auto& nlri : update.withdrawn) dirty_.insert(nlri.prefix);
  for (const auto& nlri : update.announced) dirty_.insert(nlri.prefix);
}

std::vector<std::pair<std::string, BlackholingController::DesiredRule>>
BlackholingController::derive_rules(const bgp::RouteView& route) {
  std::vector<std::pair<std::string, DesiredRule>> out;
  if (route.attrs.extended_communities.empty() && route.attrs.large_communities.empty()) {
    return out;
  }
  const auto decoded = DecodeRouteSignal(config_.ixp_asn, route.attrs.extended_communities,
                                         route.attrs.large_communities);
  if (decoded.ok() && !decoded->has_value()) return out;

  // Stats are per signaled route, not per processing round — and a route is
  // invalid at most once, no matter how many of its rules fail to translate
  // (counting each bad rule used to double-count invalid_signals).
  const bool first_seen = stats_counted_.insert({route.prefix, route.path_id}).second;
  bool invalid_counted = false;
  const auto count_invalid_once = [&] {
    if (first_seen && !invalid_counted) {
      c_invalid_signals_.inc();
      invalid_counted = true;
    }
  };

  if (!decoded.ok()) {
    count_invalid_once();
    return out;
  }
  const Signal& signal = **decoded;
  if (signal.rules.empty()) {
    count_invalid_once();
    return out;
  }
  if (first_seen) {
    c_signals_decoded_.inc();
    obs::tracer().mark(route.prefix.str(), "controller_decode", queue_.now().count());
  }

  // The signaling member is the path's origin (the route server has already
  // verified the origin matches the announcing session and IRR ownership).
  const auto member = route.attrs.origin_asn();
  if (!member) {
    count_invalid_once();
    return out;
  }
  const auto entry = directory_(*member);
  if (!entry) {
    count_invalid_once();
    return out;
  }

  const bool shaping = signal.is_shaping();
  for (std::size_t i = 0; i < signal.rules.size(); ++i) {
    const SignalRule& sr = signal.rules[i];
    filter::MatchCriteria criteria;
    if (sr.kind == RuleKind::kPredefined) {
      const MatchTemplate* tmpl =
          portal_ != nullptr ? portal_->lookup(sr.value, *member) : nullptr;
      if (tmpl == nullptr) {
        count_invalid_once();
        continue;
      }
      criteria = tmpl->bind(route.prefix);
    } else {
      auto converted = ToMatchCriteria(sr, route.prefix);
      if (!converted.ok()) {
        count_invalid_once();
        continue;
      }
      criteria = *converted;
    }
    DesiredRule desired;
    desired.member = *member;
    desired.port = entry->port;
    desired.rule.match = criteria;
    desired.rule.action = shaping ? filter::FilterAction::kShape : filter::FilterAction::kDrop;
    desired.rule.shape_rate_mbps = shaping ? *signal.shape_rate_mbps : 0.0;
    desired.trace = route.prefix.str();

    const std::string key = route.prefix.str() + "|path" + std::to_string(route.path_id) +
                            "|rule" + std::to_string(i) + "|" + sr.str();
    out.emplace_back(key, std::move(desired));
  }
  return out;
}

void BlackholingController::process() {
  // One diff epoch. Quiet epochs (no RIB churn since the last round) are
  // free; churny epochs coalesce all accumulated per-prefix deltas into one
  // change-set. Admission control is sort-order-sensitive, so whenever it
  // could bind the epoch falls back to the full O(RIB) rescan — the two
  // paths produce the same desired state by construction.
  if (!need_full_ && dirty_.empty()) return;
  if (need_full_) {
    process_full();
  } else {
    process_incremental();
  }
}

std::size_t BlackholingController::emit_transition(const std::string& key,
                                                   const DesiredRule* next) {
  const auto it = desired_.find(key);
  if (next == nullptr) {
    if (it == desired_.end()) return 0;
    ConfigChange change = it->second;
    change.op = ConfigChange::Op::kRemove;
    if (--port_counts_[change.port] <= 0) port_counts_.erase(change.port);
    desired_.erase(it);
    c_removals_emitted_.inc();
    if (sink_) sink_(change);
    return 1;
  }
  if (it != desired_.end() && it->second.rule == next->rule) return 0;
  std::size_t emitted = 0;
  if (it != desired_.end()) {
    // Modified in place (e.g. shape -> drop escalation): remove then install.
    ConfigChange removal = it->second;
    removal.op = ConfigChange::Op::kRemove;
    if (--port_counts_[removal.port] <= 0) port_counts_.erase(removal.port);
    c_removals_emitted_.inc();
    if (sink_) sink_(removal);
    ++emitted;
  }
  ConfigChange change;
  change.op = ConfigChange::Op::kInstall;
  change.member = next->member;
  change.port = next->port;
  change.rule = next->rule;
  change.key = key;
  change.trace = next->trace;
  desired_[key] = change;
  ++port_counts_[change.port];
  c_installs_emitted_.inc();
  if (sink_) sink_(change);
  return emitted + 1;
}

void BlackholingController::process_full() {
  // Recompute the full desired state from the current RIB, then diff against
  // what we previously emitted. Equivalent to the paper's RIB-snapshot
  // differencing, but naturally idempotent.
  c_epochs_full_.inc();
  need_full_ = false;
  dirty_.clear();
  rejected_ports_.clear();
  std::map<std::string, DesiredRule> target;
  std::map<filter::PortId, int> rules_per_port;
  rib_.for_each([&](const bgp::RouteView& route) {
    for (auto& [key, desired] : derive_rules(route)) {
      // Admission control: cap concurrent rules per member port. The first
      // budget-many rules in RIB order win; the rest are rejected.
      int& count = rules_per_port[desired.port];
      if (count >= config_.max_rules_per_port) {
        if (!desired_.contains(key)) c_admission_rejected_.inc();
        rejected_ports_.insert(desired.port);
        continue;
      }
      if (target.emplace(key, std::move(desired)).second) ++count;
    }
  });

  std::size_t changes = 0;
  // Removals: previously desired, no longer signaled.
  std::vector<std::string> stale;
  for (const auto& [key, change] : desired_) {
    if (!target.contains(key)) stale.push_back(key);
  }
  for (const auto& key : stale) changes += emit_transition(key, nullptr);
  // Installs and modifications.
  for (const auto& [key, desired] : target) changes += emit_transition(key, &desired);
  if (changes > 0) h_epoch_changes_.observe(static_cast<double>(changes));
}

void BlackholingController::process_incremental() {
  // Phase 1 (dry): derive the coalesced delta for every dirty prefix without
  // emitting anything, and decide whether admission control could bind.
  struct Delta {
    std::map<std::string, DesiredRule> next;  ///< Desired rules after the epoch.
    std::vector<std::string> old_keys;        ///< Currently desired keys of the prefix.
  };
  std::vector<Delta> deltas;
  deltas.reserve(dirty_.size());
  for (const auto& prefix : dirty_) {
    Delta d;
    rib_.visit_prefix(prefix, [&](const bgp::RouteView& view) {
      for (auto& [key, desired] : derive_rules(view)) {
        d.next.emplace(std::move(key), std::move(desired));
      }
    });
    // Change keys are "<prefix>|path..." and '|' sorts above every prefix
    // character, so the prefix's desired keys form one contiguous map range.
    const std::string range = prefix.str() + "|";
    for (auto it = desired_.lower_bound(range);
         it != desired_.end() && it->first.starts_with(range); ++it) {
      d.old_keys.push_back(it->first);
    }
    deltas.push_back(std::move(d));
  }

  // Safety check: project per-port occupancy after the epoch. The epoch may
  // apply incrementally only if no touched port overflows its budget and no
  // touched port had rejections in the last full pass (a rejected rule could
  // be waiting in the RIB for a freed slot).
  std::map<filter::PortId, int> occupancy = port_counts_;
  std::set<filter::PortId> touched;
  for (const auto& d : deltas) {
    for (const auto& key : d.old_keys) {
      const ConfigChange& cur = desired_.at(key);
      touched.insert(cur.port);
      const auto next = d.next.find(key);
      if (next == d.next.end()) {
        --occupancy[cur.port];
      } else if (next->second.port != cur.port) {
        --occupancy[cur.port];
        ++occupancy[next->second.port];
        touched.insert(next->second.port);
      }
    }
    for (const auto& [key, desired] : d.next) {
      touched.insert(desired.port);
      if (!desired_.contains(key)) ++occupancy[desired.port];
    }
  }
  for (const filter::PortId port : touched) {
    if (rejected_ports_.contains(port) || occupancy[port] > config_.max_rules_per_port) {
      process_full();  // Global admission must decide this epoch.
      return;
    }
  }

  // Phase 2: emit the batched change-set, removals before installs per
  // prefix, superseded add->remove churn already annihilated in the delta.
  c_epochs_incremental_.inc();
  std::size_t changes = 0;
  for (const auto& d : deltas) {
    for (const auto& key : d.old_keys) {
      if (!d.next.contains(key)) changes += emit_transition(key, nullptr);
    }
    for (const auto& [key, desired] : d.next) changes += emit_transition(key, &desired);
  }
  dirty_.clear();
  if (changes > 0) h_epoch_changes_.observe(static_cast<double>(changes));
}

}  // namespace stellar::core
