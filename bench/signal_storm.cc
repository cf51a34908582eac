// Signal-storm scaling bench: L-IXP member-scale control-plane batching.
//
// The paper's IXP has >800 members (§2); an attack onset or a route-server
// reset can make hundreds of them (re)announce fine-grained blackholing
// signals within seconds. This bench drives the controller → network-manager
// → compiler pipeline twice with the identical storm:
//
//   per-signal — one RIB-diff process() round per BGP update, classic
//                per-change token-bucket queue (the paper's Fig. 10b setup);
//   batched    — the whole storm coalesces into ONE diff epoch, and the
//                manager's batched queue (Config::batch_apply) drains one
//                port-batch per token with key-level churn coalescing.
//
// Observables: wall-clock from storm start to the last hardware apply (the
// "time from blackholing signal to configuration" of Fig. 10b, on the sim
// clock), plus host CPU time for flavor (on stderr). Exit status enforces the two
// acceptance gates:
//   1. batched converges >= 5x faster than per-signal at 256+ concurrent
//      signals, and
//   2. both paths realize byte-identical installed rule sets (differential
//      assert over every change key and every per-port data-plane rule).
//
// `--smoke` runs a reduced storm (CI gate, tools/ci_release.sh).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/network_manager.hpp"
#include "core/signal.hpp"
#include "filter/edge_router.hpp"
#include "net/ports.hpp"
#include "util/ascii.hpp"

namespace {

using namespace stellar;

constexpr bgp::Asn kIxpAsn = 64500;
constexpr bgp::Asn kMemberBase = 65000;
constexpr filter::PortId kPortBase = 100;

/// Wraps the QoS compiler to timestamp hardware touches on the sim clock:
/// the last apply is the storm's convergence instant.
class TimedCompiler final : public core::ConfigCompiler {
 public:
  TimedCompiler(sim::EventQueue& queue, core::QosConfigCompiler& inner)
      : queue_(queue), inner_(inner) {}

  util::Result<void> apply(const core::ConfigChange& change) override {
    ++invocations_;
    last_apply_s_ = queue_.now().count();
    return inner_.apply(change);
  }
  std::vector<util::Result<void>> apply_batch(
      const std::vector<core::ConfigChange>& changes) override {
    ++invocations_;
    last_apply_s_ = queue_.now().count();
    return inner_.apply_batch(changes);
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  [[nodiscard]] double last_apply_s() const { return last_apply_s_; }
  [[nodiscard]] std::uint64_t invocations() const { return invocations_; }

 private:
  sim::EventQueue& queue_;
  core::QosConfigCompiler& inner_;
  double last_apply_s_ = 0.0;
  std::uint64_t invocations_ = 0;
};

/// The controller → manager → compiler pipeline behind a fake route-server
/// ADD-PATH session, with the periodic processor disabled so the bench
/// controls epoch boundaries (tests/property/epoch_batching_test idiom).
struct StormRig {
  sim::EventQueue queue;
  core::RulePortal portal;
  filter::EdgeRouter router;
  core::QosConfigCompiler qos;
  TimedCompiler compiler;
  std::unique_ptr<bgp::Session> server;
  std::unique_ptr<core::BlackholingController> controller;
  std::unique_ptr<core::NetworkManager> manager;

  StormRig(int member_ports, bool batch_apply)
      : router("er-lixp", filter::TcamLimits{1'000'000, 1'000'000, 0, 0}),
        qos(router),
        compiler(queue, qos) {
    for (int i = 0; i < member_ports; ++i) {
      router.add_port(kPortBase + static_cast<filter::PortId>(i), 10'000.0);
    }
    auto [server_side, controller_side] = bgp::MakeLink(queue);
    bgp::SessionConfig server_config;
    server_config.local_asn = kIxpAsn;
    server_config.router_id = net::IPv4Address(10, 99, 0, 1);
    server_config.add_path_tx = true;
    server = std::make_unique<bgp::Session>(queue, server_side, server_config);
    server->start();

    core::BlackholingController::Config config;
    config.ixp_asn = kIxpAsn;
    config.process_interval_s = 1e9;  // Epochs are driven by the bench.
    controller = std::make_unique<core::BlackholingController>(
        queue, controller_side, config,
        [member_ports](bgp::Asn asn)
            -> std::optional<core::BlackholingController::PortDirectoryEntry> {
          if (asn < kMemberBase || asn >= kMemberBase + static_cast<bgp::Asn>(member_ports)) {
            return std::nullopt;
          }
          return core::BlackholingController::PortDirectoryEntry{
              kPortBase + static_cast<filter::PortId>(asn - kMemberBase), 10'000.0};
        },
        &portal);

    core::NetworkManager::Config nm_config;  // Paper pacing: 4.33/s, MBS 5.
    nm_config.batch_apply = batch_apply;
    manager = std::make_unique<core::NetworkManager>(queue, compiler, nm_config);
    controller->set_change_sink(
        [this](core::ConfigChange change) { manager->enqueue(std::move(change)); });
    queue.run_until(sim::Seconds(1.0));
  }

  /// Byte-exact dump of the realized data plane: every installed change key
  /// plus every per-port rule payload, in sorted order.
  [[nodiscard]] std::string dump() const {
    std::string out;
    std::vector<std::string> keys = qos.installed_keys();
    std::sort(keys.begin(), keys.end());
    for (const auto& key : keys) out += key + "\n";
    std::vector<filter::PortId> ports = router.ports();
    std::sort(ports.begin(), ports.end());
    for (const filter::PortId port : ports) {
      std::vector<std::string> rules;
      for (const auto& installed : router.policy(port).rules()) {
        rules.push_back(installed.rule.str());
      }
      std::sort(rules.begin(), rules.end());
      for (const auto& rule : rules) {
        out += "port" + std::to_string(port) + " " + rule + "\n";
      }
    }
    return out;
  }
};

/// One storm operation against member `index`: the initial signal, a modify
/// (re-announce with a shaping action), or the flap's withdraw.
struct StormOp {
  enum class Kind { kAnnounce, kModify, kWithdraw } kind = Kind::kAnnounce;
  int index = 0;
};

net::Prefix4 VictimPrefix(int index) {
  return net::Prefix4::Parse("100." + std::to_string(64 + index / 256) + "." +
                             std::to_string(index % 256) + ".1/32")
      .value();
}

/// Four fine-grained match rules per signal — the paper's §5.3 idiom
/// (amplification service ports plus a protocol match), so one signaling
/// route expands into four data-plane changes on the victim's port.
core::Signal StormSignal(int index, bool modified) {
  core::Signal signal;
  signal.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortNtp});
  signal.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortDns});
  signal.rules.push_back({core::RuleKind::kUdpSrcPort, 19});  // chargen
  signal.rules.push_back({core::RuleKind::kProtocol, 17});
  if (modified) {
    // The modify flips drop -> shape (telemetry mode): every derived rule's
    // payload changes, so the per-signal path pays remove+install for each.
    signal.shape_rate_mbps = static_cast<double>(100 + (index % 8) * 100);
  }
  return signal;
}

void Announce(StormRig& rig, const StormOp& op) {
  bgp::UpdateMessage update;
  if (op.kind == StormOp::Kind::kWithdraw) {
    update.withdrawn = {{1, VictimPrefix(op.index)}};
  } else {
    update.attrs.origin = bgp::Origin::kIgp;
    update.attrs.as_path = {
        {bgp::AsPathSegment::Type::kSequence, {kMemberBase + static_cast<bgp::Asn>(op.index)}}};
    update.attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
    update.attrs.extended_communities =
        EncodeSignal(kIxpAsn, StormSignal(op.index, op.kind == StormOp::Kind::kModify)).value();
    update.announced = {{1, VictimPrefix(op.index)}};
  }
  rig.server->announce(update);
}

/// Storm composition per 8 signaling members: 5 stay up unchanged, 2 modify
/// their signal within the epoch, 1 flaps (announce then withdraw) — the
/// churn mix of an attack onset overlapping a member session reset.
std::vector<StormOp> MakeStorm(int signals) {
  std::vector<StormOp> ops;
  for (int i = 0; i < signals; ++i) ops.push_back({StormOp::Kind::kAnnounce, i});
  for (int i = 0; i < signals; ++i) {
    if (i % 8 == 1 || i % 8 == 3) ops.push_back({StormOp::Kind::kModify, i});
  }
  for (int i = 0; i < signals; ++i) {
    if (i % 8 == 7) ops.push_back({StormOp::Kind::kWithdraw, i});
  }
  return ops;
}

struct RunResult {
  double convergence_s = 0.0;  ///< Sim wall-clock, storm start -> last apply.
  double host_ms = 0.0;        ///< Host CPU flavor (not asserted on).
  std::string dump;
  std::uint64_t applied = 0;
  std::uint64_t compiler_invocations = 0;
  std::uint64_t coalesced = 0;
  std::uint64_t epochs = 0;
};

RunResult RunStorm(int members, int signals, bool batched) {
  const auto host_start = std::chrono::steady_clock::now();
  StormRig rig(members, /*batch_apply=*/batched);
  const auto storm = MakeStorm(signals);
  const double t0 = rig.queue.now().count();

  if (batched) {
    // The whole storm lands in the RIB, then ONE diff epoch coalesces every
    // per-prefix delta into a single change-set emission.
    for (const auto& op : storm) Announce(rig, op);
    rig.queue.run_until(rig.queue.now() + sim::Seconds(0.5));
    rig.controller->process();
  } else {
    // Per-signal: a process() round after every single update, exactly as a
    // naive per-update RIB diff would run.
    for (const auto& op : storm) {
      Announce(rig, op);
      rig.queue.run_until(rig.queue.now() + sim::Seconds(0.05));
      rig.controller->process();
    }
  }
  rig.queue.run_until(sim::Seconds(t0 + 100'000.0));

  RunResult result;
  result.convergence_s = rig.compiler.last_apply_s() - t0;
  result.host_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - host_start)
                       .count();
  result.dump = rig.dump();
  result.applied = rig.manager->stats().applied;
  result.compiler_invocations = rig.compiler.invocations();
  result.coalesced = rig.manager->stats().coalesced;
  result.epochs = rig.controller->stats().epochs_full +
                  rig.controller->stats().epochs_incremental;
  const bool drained = rig.manager->in_flight().empty() &&
                       rig.manager->dead_letter().empty() &&
                       rig.router.tcam_release_errors() == 0;
  if (!drained) {
    std::printf("ERROR: %s path did not drain cleanly (in-flight %zu, dead-letter %zu, "
                "tcam release errors %llu)\n",
                batched ? "batched" : "per-signal", rig.manager->in_flight().size(),
                rig.manager->dead_letter().size(),
                static_cast<unsigned long long>(rig.router.tcam_release_errors()));
    std::exit(1);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int members = smoke ? 100 : 800;
  const int signals = smoke ? 32 : 256;

  std::printf("==============================================================\n");
  std::printf("Signal storm — batched vs per-signal control-plane convergence\n");
  std::printf("extends: CoNEXT'18 Stellar paper §4.4/Fig. 10b to L-IXP scale\n");
  std::printf("==============================================================\n");
  std::printf("members: %d  concurrent signals: %d (4 rules each; per 8 members:\n"
              "5 steady / 2 modify / 1 flap within the storm epoch)%s\n\n",
              members, signals, smoke ? "  [smoke]" : "");

  const RunResult serial = RunStorm(members, signals, /*batched=*/false);
  const RunResult batched = RunStorm(members, signals, /*batched=*/true);

  std::printf("%-34s %14s %14s\n", "", "per-signal", "batched");
  std::printf("%-34s %14s %14s\n", "diff epochs (process rounds)",
              std::to_string(serial.epochs).c_str(), std::to_string(batched.epochs).c_str());
  std::printf("%-34s %14s %14s\n", "changes applied",
              std::to_string(serial.applied).c_str(), std::to_string(batched.applied).c_str());
  std::printf("%-34s %14s %14s\n", "compiler invocations (tokens)",
              std::to_string(serial.compiler_invocations).c_str(),
              std::to_string(batched.compiler_invocations).c_str());
  std::printf("%-34s %14s %14s\n", "queue-level coalesced changes",
              std::to_string(serial.coalesced).c_str(),
              std::to_string(batched.coalesced).c_str());
  std::printf("%-34s %14s %14s\n", "convergence wall-clock [s, sim]",
              util::FormatDouble(serial.convergence_s, 1).c_str(),
              util::FormatDouble(batched.convergence_s, 1).c_str());
  // Host time differs from run to run, so it goes to stderr: stdout is
  // deterministic and compared with a golden file.
  std::fprintf(stderr, "%-34s %14s %14s\n", "host CPU [ms]",
               util::FormatDouble(serial.host_ms, 0).c_str(),
               util::FormatDouble(batched.host_ms, 0).c_str());

  const double speedup = serial.convergence_s / batched.convergence_s;
  const bool identical = serial.dump == batched.dump;
  std::printf("\nspeedup (per-signal / batched): %sx\n",
              util::FormatDouble(speedup, 1).c_str());
  std::printf("final installed rule sets byte-identical: %s (%zu bytes)\n",
              identical ? "YES" : "NO", serial.dump.size());

  bool ok = true;
  if (!identical) {
    std::printf("FAIL: differential assert — batched and per-signal rule sets diverge\n"
                "      (per-signal %zu bytes, batched %zu bytes)\n",
                serial.dump.size(), batched.dump.size());
    ok = false;
  }
  if (speedup < 5.0) {
    std::printf("FAIL: batched apply must be >=5x faster than per-signal, got %sx\n",
                util::FormatDouble(speedup, 2).c_str());
    ok = false;
  }
  if (ok) {
    std::printf("\ngates: batched >=5x faster AND byte-identical rule sets: PASS\n");
  }
  return ok ? 0 : 1;
}
