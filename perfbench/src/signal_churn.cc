// signal_churn: Fig 10b at L-IXP scale.
//
// Open loop on the sim clock: ~400 signaling members send a trace of Advanced
// Blackholing ops — announce (a fresh /32 per announce, so each obs trace id
// is one signal), modify (drop <-> shape re-announce) and withdraw — through
// their real BGP sessions. Arrivals are Poisson background plus bursts of a
// few hundred ops, the shape of the RTBH configuration-change trace of
// bench/bench_common.hpp. The NetworkManager keeps its default pacing (the
// paper's 4.33 changes/s), so the backlog may grow; ops are issued when due
// whether or not earlier ones have been installed.
//
// Install time of an op is sim seconds from its scheduled time to the
// compiler apply of its last change, read from the obs tracer's
// config_applied marks (the manager is FIFO, so an op's installs are the next
// `rules` marks of its prefix). After the trace, the queue drains and every
// op's final intent is checked against controller desired vs compiler
// installed, and against the dead-letter queue.
#include <algorithm>
#include <cmath>
#include <deque>
#include <set>

#include "core/signal.hpp"
#include "net/ports.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Signal ops per second of --seconds (calibrated on a 4-core x86 VM).
constexpr double kOpsPerSecond = 1500.0;
constexpr int kSignalers = 400;
constexpr int kMaxLivePerMember = 2;
/// A signal is withdrawn after at most this many modifies, which keeps each
/// trace under the tracer's 64-events-per-trace cap.
constexpr int kMaxModifies = 3;
/// Ops on one prefix are at least this far apart, so two of them never fall
/// into one controller diff epoch (0.5 s) and each op's installs stay distinct.
constexpr double kMinPrefixGapS = 2.0;
constexpr double kBackgroundRate = 0.5;  ///< Ops per sim second between bursts.
constexpr int kBurstOps = 240;
constexpr double kBurstWindowS = 30.0;
constexpr double kBurstEveryS = 600.0;

const std::vector<std::string> kStages = {"route_server_accept", "controller_rx",
                                          "controller_decode", "config_enqueued",
                                          "config_applied"};

struct SignalOp {
  enum class Kind { kAnnounce, kModify, kWithdraw } kind = Kind::kAnnounce;
  double at_s = 0.0;  ///< Scheduled time, relative to the trace start.
  int member = 0;     ///< Index into Ixp::members().
  net::Prefix4 prefix;
  core::Signal signal;  ///< Intent after this op (empty for withdraw).
  /// Cumulative config_applied marks on `prefix` once this op is installed.
  int marks_done = 0;
};

core::Signal MakeSignal(util::Rng& rng, bool shape) {
  static const std::uint16_t kPorts[] = {net::kPortNtp, net::kPortDns, net::kPortChargen,
                                         net::kPortMemcached, net::kPortLdap};
  core::Signal signal;
  const int rules = static_cast<int>(rng.uniform_int(2, 4));
  const auto first = static_cast<int>(rng.uniform_int(0, 4));
  for (int r = 0; r < rules - 1; ++r) {
    signal.rules.push_back({core::RuleKind::kUdpSrcPort, kPorts[(first + r) % 5]});
  }
  signal.rules.push_back({core::RuleKind::kProtocol, 17});
  if (shape) signal.shape_rate_mbps = static_cast<double>(100 * rng.uniform_int(1, 8));
  return signal;
}

struct Live {
  std::size_t op = 0;  ///< Index of the op that set the current intent.
  double last_at_s = 0.0;
  int modifies = 0;
};

std::vector<SignalOp> MakeTrace(const std::vector<int>& signalers,
                                const std::vector<std::unique_ptr<ixp::MemberRouter>>& members,
                                std::uint64_t seed, std::size_t count) {
  util::Rng rng(seed * 0xD1B54A32D192ED03ull + 5);
  // Arrival times: Poisson background with a burst every kBurstEveryS.
  std::vector<double> arrivals;
  double t = 1.0;
  double next_burst = kBurstEveryS / 2;
  while (arrivals.size() < count) {
    t += rng.exponential(kBackgroundRate);
    if (t >= next_burst) {
      for (int i = 0; i < kBurstOps; ++i) arrivals.push_back(next_burst + rng.uniform(0.0, kBurstWindowS));
      next_burst += kBurstEveryS;
    }
    arrivals.push_back(t);
  }
  std::sort(arrivals.begin(), arrivals.end());
  arrivals.resize(count);

  std::vector<SignalOp> ops;
  std::map<int, std::vector<Live>> live;  // member -> live signals
  std::map<net::Prefix4, int> marks;
  std::set<net::Prefix4> used;
  for (const double at : arrivals) {
    SignalOp op;
    op.at_s = at;
    op.member = signalers[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(signalers.size()) - 1))];
    auto& mine = live[op.member];
    // Live signals of this member that may take another op now.
    std::vector<std::size_t> ready;
    for (std::size_t i = 0; i < mine.size(); ++i) {
      if (at - mine[i].last_at_s >= kMinPrefixGapS) ready.push_back(i);
    }
    const double draw = rng.uniform();
    const bool can_announce = static_cast<int>(mine.size()) < kMaxLivePerMember;
    if (ready.empty() || (draw < 0.45 && can_announce)) {
      if (!can_announce) continue;  // Nothing this member can do right now.
      op.kind = SignalOp::Kind::kAnnounce;
      const net::Prefix4& space =
          members[static_cast<std::size_t>(op.member)]->info().address_space;
      do {
        const auto host = static_cast<std::uint32_t>(rng.uniform_int(1, 4094));
        op.prefix = net::Prefix4(net::IPv4Address(space.address().value() + host), 32);
      } while (!used.insert(op.prefix).second);
      op.signal = MakeSignal(rng, rng.chance(0.3));
      mine.push_back({ops.size(), at, 0});
    } else {
      const std::size_t pick = ready[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ready.size()) - 1))];
      const SignalOp& current = ops[mine[pick].op];
      op.prefix = current.prefix;
      if (draw < 0.75 && mine[pick].modifies < kMaxModifies) {
        op.kind = SignalOp::Kind::kModify;
        op.signal = current.signal;
        if (op.signal.is_shaping()) {
          op.signal.shape_rate_mbps.reset();
        } else {
          op.signal.shape_rate_mbps = static_cast<double>(100 * rng.uniform_int(1, 8));
        }
        mine[pick] = {ops.size(), at, mine[pick].modifies + 1};
      } else {
        op.kind = SignalOp::Kind::kWithdraw;
        mine[pick] = mine.back();
        mine.pop_back();
      }
    }
    if (op.kind != SignalOp::Kind::kWithdraw) {
      marks[op.prefix] += static_cast<int>(op.signal.rules.size());
    }
    op.marks_done = marks[op.prefix];
    ops.push_back(std::move(op));
  }
  return ops;
}

/// Times of the config_applied marks on one trace, in order.
std::vector<double> AppliedMarks(const std::string& trace) {
  std::vector<double> out;
  for (const auto& event : obs::tracer().events(trace)) {
    if (event.stage == "config_applied") out.push_back(event.start_s);
  }
  return out;
}

}  // namespace

Outcome RunSignalChurn(Rig& rig, const RunParams& params) {
  Outcome out;
  ixp::Ixp& ixp = *rig.ixp;
  core::StellarSystem& stellar = *rig.stellar;
  const auto& members = ixp.members();

  util::Rng pick(params.seed * 0x2545F4914F6CDD1Dull + 11);
  std::vector<int> all(members.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  pick.shuffle(all);
  const std::vector<int> signalers(all.begin(), all.begin() + kSignalers);
  const auto ops =
      MakeTrace(signalers, members, params.seed,
                static_cast<std::size_t>(kOpsPerSecond * params.seconds));

  // The trace's clock starts on a whole 10 s boundary, so controller epochs
  // fall at the same offsets for every seed.
  const double t0 = std::ceil(rig.queue.now().count() / 10.0) * 10.0 + 10.0;
  std::vector<SignalOp> timed(ops);
  for (auto& op : timed) op.at_s += t0;

  // Each op's install time is harvested from the tracer while its trace is
  // still retained (the tracer keeps the newest 4096 traces).
  std::deque<std::size_t> pending;
  std::vector<double> install_s(ops.size(), -1.0);
  std::map<std::string, std::vector<double>> stage_deltas;
  auto harvest = [&](bool final) {
    while (!pending.empty()) {
      const std::size_t i = pending.front();
      const SignalOp& op = timed[i];
      const std::string trace = op.prefix.str();
      const std::vector<double> marks = AppliedMarks(trace);
      if (static_cast<int>(marks.size()) < op.marks_done) {
        if (!final) break;  // FIFO manager: later ops are not done either.
        pending.pop_front();
        continue;
      }
      install_s[i] = marks[static_cast<std::size_t>(op.marks_done - 1)] - op.at_s;
      if (op.kind == SignalOp::Kind::kAnnounce) {
        for (const auto& stage : obs::tracer().breakdown(trace)) {
          stage_deltas[stage.stage].push_back(stage.delta_s);
        }
      }
      pending.pop_front();
    }
  };

  std::vector<double> op_ms;
  op_ms.reserve(ops.size());
  double signal_us = 0.0;
  std::size_t depth_max = 0;
  for (std::size_t i = 0; i < timed.size(); ++i) {
    const SignalOp& op = timed[i];
    ixp::MemberRouter& member = *members[static_cast<std::size_t>(op.member)];
    const auto start = Clock::now();
    {
      ScopedSpan run("sim.run", i);
      rig.queue.run_until(sim::Seconds(op.at_s));
    }
    {
      ScopedSpan call("ixp.member.signal", i);
      const auto c0 = Clock::now();
      if (op.kind == SignalOp::Kind::kWithdraw) {
        core::WithdrawAdvancedBlackholing(member, op.prefix);
      } else {
        core::SignalAdvancedBlackholing(member, ixp.route_server(), op.prefix, op.signal);
      }
      signal_us += MsSince(c0) * 1e3;
    }
    op_ms.push_back(MsSince(start));
    depth_max = std::max(depth_max, stellar.manager().queue_depth());
    ++out.attempted;
    if (op.kind != SignalOp::Kind::kWithdraw) pending.push_back(i);
    if (i % 64 == 63) harvest(false);
  }
  // Drain (untimed): run until the manager's queue is empty.
  for (int step = 0; step < 10'000 && !stellar.manager().in_flight().empty(); ++step) {
    rig.queue.run_until(rig.queue.now() + sim::Seconds(60.0));
  }
  rig.queue.run_until(rig.queue.now() + sim::Seconds(5.0));
  harvest(/*final=*/true);

  // -- Check: every op's final intent is realized ---------------------------
  std::map<net::Prefix4, std::size_t> final_op;  // prefix -> last op index
  for (std::size_t i = 0; i < ops.size(); ++i) final_op[ops[i].prefix] = i;
  std::map<std::string, std::vector<const core::ConfigChange*>> desired_by_prefix;
  for (const auto& [key, change] : stellar.controller().desired()) {
    desired_by_prefix[change.trace].push_back(&change);
  }
  const std::vector<std::string> installed_keys = stellar.compiler().installed_keys();
  const std::set<std::string> installed(installed_keys.begin(), installed_keys.end());
  std::set<std::string> dead;
  for (const auto& change : stellar.manager().dead_letter()) dead.insert(change.trace);
  std::map<net::Prefix4, bool> realized;
  for (const auto& [prefix, last] : final_op) {
    const SignalOp& op = ops[last];
    const std::string trace = prefix.str();
    const auto it = desired_by_prefix.find(trace);
    const std::size_t want = op.kind == SignalOp::Kind::kWithdraw ? 0 : op.signal.rules.size();
    bool ok = !dead.contains(trace);
    const std::size_t have = it == desired_by_prefix.end() ? 0 : it->second.size();
    ok = ok && have == want;
    if (ok && it != desired_by_prefix.end()) {
      for (const core::ConfigChange* change : it->second) {
        const bool shaping = change->rule.action == filter::FilterAction::kShape;
        ok = ok && installed.contains(change->key) && shaping == op.signal.is_shaping();
      }
    }
    realized[prefix] = ok;
  }
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!realized[ops[i].prefix]) {
      out.fail("op " + std::to_string(i) + " on " + ops[i].prefix.str() +
               ": final intent not realized");
    } else if (ops[i].kind != SignalOp::Kind::kWithdraw && install_s[i] < 0.0) {
      out.fail("op " + std::to_string(i) + " on " + ops[i].prefix.str() +
               ": installs never applied");
    }
  }
  std::string why;
  if (!rig.converged(why)) out.fail("control plane not converged: " + why);
  out.dump = rig.rule_dump();

  if (params.trace) {
    // Session upkeep baseline: the same platform idling (keepalives, hold
    // timers, empty controller epochs) for a quarter of the trace's sim span,
    // scaled up. sim.run_ms minus this is the signal path's own work.
    const double span_s = timed.empty() ? 0.0 : timed.back().at_s - timed.front().at_s;
    const auto i0 = Clock::now();
    rig.queue.run_until(rig.queue.now() + sim::Seconds(span_s / 4.0));
    out.per_layer["sim.idle_ms"] = {MsSince(i0) * 4.0, "ms"};
  }

  std::vector<double> installs;
  for (const double s : install_s) {
    if (s >= 0.0) installs.push_back(s);
  }
  ReportHostTimes(op_ms, std::vector<double>(op_ms.size(), 1.0), out);

  auto& m = out.per_layer;
  m["sim.install_s_p50"] = {Quantile(installs, 0.50), "s"};
  m["sim.install_s_p99"] = {Quantile(installs, 0.99), "s"};
  out.sim_clock["install_s_p50"] = m["sim.install_s_p50"].value;
  out.sim_clock["install_s_p99"] = m["sim.install_s_p99"].value;
  out.sim_clock["installs"] = static_cast<double>(installs.size());
  for (const auto& stage : kStages) {
    m["stage." + stage + "_s_p50"] = {Quantile(stage_deltas[stage], 0.50), "s"};
    out.sim_clock["stage." + stage] = m["stage." + stage + "_s_p50"].value;
  }
  m["ixp.member.signal_us"] = {signal_us / static_cast<double>(std::max<std::size_t>(ops.size(), 1)),
                               "us"};
  m["core.manager.queue_depth_max"] = {static_cast<double>(depth_max), "count"};
  ReportControlPlane(rig, ops.size(), out);
  ReportSpans(out, {"sim.run"});
  return out;
}

}  // namespace perfbench
