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
    // Clearing the RIB bypasses on_update's dirty tracking, so every recorded
    // prefix is marked by hand: the epoch re-derives each one to nothing.
    rib_.clear();
    for (const auto& [prefix, record] : records_) dirty_.insert(prefix);
    c_epochs_full_.inc();
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

bool BlackholingController::derive_rules(const bgp::RouteView& route, bool first_seen,
                                         std::map<std::string, Candidate>& out) {
  if (route.attrs.extended_communities.empty() && route.attrs.large_communities.empty()) {
    return false;
  }
  const auto decoded = DecodeRouteSignal(config_.ixp_asn, route.attrs.extended_communities,
                                         route.attrs.large_communities);
  if (decoded.ok() && !decoded->has_value()) return false;

  // Stats are per signaled route, not per processing round — and a route is
  // invalid at most once, no matter how many of its rules fail to translate
  // (counting each bad rule used to double-count invalid_signals).
  bool invalid_counted = false;
  const auto count_invalid_once = [&] {
    if (first_seen && !invalid_counted) {
      c_invalid_signals_.inc();
      invalid_counted = true;
    }
  };

  if (!decoded.ok()) {
    count_invalid_once();
    return true;
  }
  const Signal& signal = **decoded;
  if (signal.rules.empty()) {
    count_invalid_once();
    return true;
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
    return true;
  }
  const auto entry = directory_(*member);
  if (!entry) {
    count_invalid_once();
    return true;
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
    Candidate candidate;
    candidate.order = {route.prefix, route.path_id, i};
    ConfigChange& change = candidate.change;
    change.member = *member;
    change.port = entry->port;
    change.rule.match = criteria;
    change.rule.action = shaping ? filter::FilterAction::kShape : filter::FilterAction::kDrop;
    change.rule.shape_rate_mbps = shaping ? *signal.shape_rate_mbps : 0.0;
    change.key = route.prefix.str() + "|path" + std::to_string(route.path_id) + "|rule" +
                 std::to_string(i) + "|" + sr.str();
    change.trace = route.prefix.str();
    out.emplace(change.key, std::move(candidate));
  }
  return true;
}

void BlackholingController::rederive(const net::Prefix4& prefix,
                                     std::set<filter::PortId>& touched) {
  const auto it = records_.find(prefix);
  PrefixRecord next;
  rib_.visit_prefix(prefix, [&](const bgp::RouteView& view) {
    const bool first_seen =
        it == records_.end() || !std::ranges::binary_search(it->second.paths, view.path_id);
    if (derive_rules(view, first_seen, next.rules)) next.paths.push_back(view.path_id);
  });
  if (it != records_.end()) {
    for (const auto& [key, old] : it->second.rules) {
      ports_[old.change.port].order.erase(old.order);
      touched.insert(old.change.port);
      // A candidate that stays keeps its admission history.
      const auto kept = next.rules.find(key);
      if (kept != next.rules.end()) kept->second.rejected = old.rejected;
    }
    records_.erase(it);
  }
  for (const auto& [key, candidate] : next.rules) {
    ports_[candidate.change.port].order.insert(candidate.order);
    touched.insert(candidate.change.port);
  }
  if (!next.paths.empty()) records_.emplace(prefix, std::move(next));
}

bool BlackholingController::admitted(const Candidate& candidate) const {
  const auto& first_rejected = ports_.at(candidate.change.port).first_rejected;
  return !first_rejected || candidate.order < *first_rejected;
}

void BlackholingController::process() {
  // One diff epoch. Quiet epochs (no RIB churn since the last round) are
  // free; churny epochs coalesce all accumulated per-prefix deltas into one
  // change-set.
  if (dirty_.empty()) return;
  c_epochs_incremental_.inc();
  std::set<net::Prefix4> visit = std::exchange(dirty_, {});
  std::set<filter::PortId> touched;
  for (const auto& prefix : visit) rederive(prefix, touched);

  // Admission control: each port admits the first max_rules_per_port of its
  // candidates in RIB order, exactly as a full rescan would. Only a touched
  // port's boundary can move; the candidates it passes over change
  // admission, so their prefixes join the epoch.
  const auto budget = static_cast<std::size_t>(std::max(config_.max_rules_per_port, 0));
  bool evicting = false;
  for (const filter::PortId port : touched) {
    const auto it = ports_.find(port);
    PortCandidates& candidates = it->second;
    const std::optional<RuleOrder> was = candidates.first_rejected;
    candidates.first_rejected.reset();
    if (candidates.order.size() > budget) {
      candidates.first_rejected =
          *std::next(candidates.order.begin(), static_cast<std::ptrdiff_t>(budget));
    }
    const std::optional<RuleOrder>& now = candidates.first_rejected;
    if (was != now) {
      // Unset is past the end: the candidates in [min, max) flipped.
      const bool shrank = now && (!was || *now < *was);
      evicting = evicting || shrank;
      const std::optional<RuleOrder>& lo = shrank ? now : was;
      const std::optional<RuleOrder>& hi = shrank ? was : now;
      for (auto c = candidates.order.lower_bound(*lo);
           c != candidates.order.end() && (!hi || *c < *hi); ++c) {
        visit.insert(std::get<net::Prefix4>(*c));
      }
    }
    if (candidates.order.empty()) ports_.erase(it);
  }

  std::size_t changes = 0;
  // Evictions go first, so that no port passes its budget on their account.
  if (evicting) {
    for (const auto& prefix : visit) {
      const auto record = records_.find(prefix);
      if (record == records_.end()) continue;
      for (const auto& [key, candidate] : record->second.rules) {
        if (!admitted(candidate)) changes += emit_transition(key, nullptr);
      }
    }
  }
  // Per prefix, removals before installs, each in key order.
  std::vector<std::string> stale;
  for (const auto& prefix : visit) {
    const auto record = records_.find(prefix);
    const auto wanted = [&](const std::string& key) {
      if (record == records_.end()) return false;
      const auto candidate = record->second.rules.find(key);
      return candidate != record->second.rules.end() && admitted(candidate->second);
    };
    // Change keys are "<prefix>|path..." and '|' sorts above every prefix
    // character, so the prefix's desired keys form one contiguous map range.
    const std::string range = prefix.str() + "|";
    stale.clear();
    for (auto it = desired_.lower_bound(range);
         it != desired_.end() && it->first.starts_with(range); ++it) {
      if (!wanted(it->first)) stale.push_back(it->first);
    }
    for (const auto& key : stale) changes += emit_transition(key, nullptr);
    if (record == records_.end()) continue;
    for (auto& [key, candidate] : record->second.rules) {
      const bool admit = admitted(candidate);
      if (!admit && !candidate.rejected) c_admission_rejected_.inc();
      candidate.rejected = !admit;
      if (admit) changes += emit_transition(key, &candidate.change);
    }
  }
  if (changes > 0) h_epoch_changes_.observe(static_cast<double>(changes));
}

std::size_t BlackholingController::emit_transition(const std::string& key,
                                                   const ConfigChange* next) {
  const auto it = desired_.find(key);
  if (next == nullptr) {
    if (it == desired_.end()) return 0;
    ConfigChange change = it->second;
    change.op = ConfigChange::Op::kRemove;
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
    c_removals_emitted_.inc();
    if (sink_) sink_(removal);
    ++emitted;
  }
  desired_[key] = *next;
  c_installs_emitted_.inc();
  if (sink_) sink_(*next);
  return emitted + 1;
}

}  // namespace stellar::core
