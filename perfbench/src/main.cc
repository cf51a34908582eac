// stellar_perfbench: the L-IXP benchmark program.
//
//   stellar_perfbench --workload flood|signal_churn|route_churn --seed N
//                     --seconds S --trace 0|1 [--setups K] [--hooks 0|1]
//                     [--span-dump FILE]
//
// Sets the platform up K times (800-member MakeLargeIxp + StellarSystem +
// settle) and reports the median as setup_s, then runs the workload on the
// last set-up. The last stdout line is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1. A `digest` line before it carries the final-state hash and the
// sim-clock results, which must reproduce exactly per seed and must not
// depend on --hooks. Exits 1 if any correctness check failed.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

// Every metric a run reports, by name and unit (mirrors BENCHMARK.json).
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"}, {"ops_per_s", "1/s"}, {"op_ms_p50", "ms"}, {"op_ms_p90", "ms"},
};

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"sim.run_ms", "ms"},
    {"sim.idle_ms", "ms"},
    {"traffic.gen_ms", "ms"},
    {"ixp.deliver_ms", "ms"},
    {"detect.observe_ms", "ms"},
    {"ixp.fabric.lookup_ns", "ns"},
    {"filter.edge_router.deliver_ms", "ms"},
    {"filter.qos.classify_ns", "ns"},
    {"ixp.member.signal_us", "us"},
    {"ixp.member.announce_us", "us"},
    {"ixp.route_server.refresh_ms", "ms"},
    {"ixp.route_server.rejects", "count"},
    {"ixp.member.rib_routes", "count"},
    {"core.compiler.apply_us", "us"},
    {"core.compiler.calls", "count"},
    {"core.controller.epochs_full", "count"},
    {"core.controller.epochs_incremental", "count"},
    {"core.controller.incremental_share", "ratio"},
    {"core.controller.updates_processed", "count"},
    {"core.controller.installs_emitted", "count"},
    {"core.controller.removals_emitted", "count"},
    {"core.controller.admission_rejected", "count"},
    {"core.controller.invalid_signals", "count"},
    {"core.manager.applied", "count"},
    {"core.manager.coalesced", "count"},
    {"core.manager.dead_lettered", "count"},
    {"core.manager.queue_depth_max", "count"},
    {"core.manager.wait_s_p50", "s"},
    {"core.manager.wait_s_p99", "s"},
    {"bgp.link.msgs_per_op", "count"},
    {"bgp.link.bytes_per_op", "B"},
    {"bgp.link.msgs_setup", "count"},
    {"bgp.intern.hit_ratio", "ratio"},
    {"bgp.intern.lookups", "count"},
    {"stage.route_server_accept_s_p50", "s"},
    {"stage.controller_rx_s_p50", "s"},
    {"stage.controller_decode_s_p50", "s"},
    {"stage.config_enqueued_s_p50", "s"},
    {"stage.config_applied_s_p50", "s"},
    {"setup.make_ixp_s", "s"},
    {"setup.stellar_s", "s"},
    {"process.peak_rss_mb", "MB"},
    {"detect.detections", "count"},
    {"detect.signals_sent", "count"},
    {"detect.escalations", "count"},
    {"detect.withdrawals", "count"},
    {"filter.rules_installed_max", "count"},
    {"flood.flows_offered", "count"},
    {"flood.flows_delivered", "count"},
    {"sim.mitigate_s_p50", "s"},
    {"sim.mitigate_s_p80", "s"},
    {"sim.install_s_p50", "s"},
    {"sim.install_s_p99", "s"},
    {"fail_share", "ratio"},
    {"traced.ops_per_s", "1/s"},
    {"trace.spans", "count"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "stellar_perfbench: %s\nusage: stellar_perfbench --workload "
               "flood|signal_churn|route_churn --seed N --seconds S --trace 0|1 "
               "[--setups K] [--hooks 0|1] [--span-dump FILE]\n",
               why);
  std::exit(2);
}

std::string JsonMetrics(const std::vector<std::pair<std::string, std::string>>& spec,
                        const std::map<std::string, Metric>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < spec.size(); ++i) {
    const auto& [name, unit] = spec[i];
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", values.at(name).value);
    out += (i ? ", \"" : "\"") + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

/// Checks a workload's metric map against the declared set: every name is
/// declared with the same unit; missing per-layer names default to 0.
bool Conform(const std::vector<std::pair<std::string, std::string>>& spec,
             std::map<std::string, Metric>& values, bool fill_missing) {
  std::map<std::string, std::string> units(spec.begin(), spec.end());
  bool ok = true;
  for (const auto& [name, metric] : values) {
    const auto it = units.find(name);
    if (it == units.end() || it->second != metric.unit) {
      std::fprintf(stderr, "undeclared metric %s [%s]\n", name.c_str(), metric.unit.c_str());
      ok = false;
    }
  }
  for (const auto& [name, unit] : spec) {
    if (values.contains(name)) continue;
    if (!fill_missing) {
      std::fprintf(stderr, "missing metric %s\n", name.c_str());
      ok = false;
    }
    values[name] = {0.0, unit};
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunParams params;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  int setups = 3;
  int hooks = -1;  // Default: hooks follow --trace.
  std::string span_dump;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      params.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      params.seconds = std::strtod(value, nullptr);
      have_seconds = params.seconds > 0;
    } else if (arg == "--trace") {
      params.trace = std::strcmp(value, "1") == 0;
      have_trace = params.trace || std::strcmp(value, "0") == 0;
    } else if (arg == "--setups") {
      setups = std::atoi(value);
    } else if (arg == "--hooks") {
      hooks = std::atoi(value);
    } else if (arg == "--span-dump") {
      span_dump = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || setups < 1) {
    Usage("--seed, --seconds > 0, --trace 0|1 are required");
  }
  Outcome (*run)(Rig&, const RunParams&) = nullptr;
  if (workload == "flood") {
    run = RunFlood;
  } else if (workload == "signal_churn") {
    run = RunSignalChurn;
  } else if (workload == "route_churn") {
    run = RunRouteChurn;
  } else {
    Usage("--workload must be flood, signal_churn or route_churn");
  }
  const bool use_hooks = hooks < 0 ? params.trace : hooks != 0;

  // Set-up, repeated. The workload runs on the first platform, on a fresh
  // heap; the later set-ups only add setup_s samples.
  std::vector<double> setup_samples;
  auto setup = [&] {
    const auto t0 = Clock::now();
    auto rig = std::make_unique<Rig>(Rig::Options{params.seed, use_hooks});
    setup_samples.push_back(MsSince(t0) / 1e3);
    return rig;
  };
  Outcome out;
  {
    std::unique_ptr<Rig> rig = setup();
    if (params.trace) Spans::global().enable();
    out = run(*rig, params);
  }
  // Peak RSS of the platform and its workload, before the extra set-ups.
  const double peak_rss_mb = PeakRssMb();
  for (int i = 1; i < setups; ++i) setup();
  std::printf("setup: %d x 800 members, median %.3f s\n", setups, Quantile(setup_samples, 0.5));

  out.end_to_end["setup_s"] = {Quantile(setup_samples, 0.5), "s"};
  out.per_layer["process.peak_rss_mb"] = {peak_rss_mb, "MB"};
  out.per_layer["fail_share"] = {
      out.attempted ? static_cast<double>(out.failed) / static_cast<double>(out.attempted) : 1.0,
      "ratio"};
  out.per_layer["trace.spans"] = {static_cast<double>(Spans::global().size()), "count"};
  if (params.trace) {
    out.per_layer["traced.ops_per_s"] = {out.end_to_end.at("ops_per_s").value, "1/s"};
  }
  bool declared = Conform(kEndToEnd, out.end_to_end, /*fill_missing=*/false);
  declared = Conform(kPerLayer, out.per_layer, /*fill_missing=*/true) && declared;
  if (!declared) return 3;

  for (const auto& why : out.failures) std::printf("FAIL: %s\n", why.c_str());
  std::printf("%s: attempted %" PRIu64 ", failed %" PRIu64 "\n", workload.c_str(), out.attempted,
              out.failed);
  for (const auto& [name, metric] : out.end_to_end) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  for (const auto& [name, metric] : out.per_layer) {
    std::printf("  %-34s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::string sim;
  for (const auto& [name, value] : out.sim_clock) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %s=%.17g", name.c_str(), value);
    sim += buf;
  }
  std::printf("digest %s seed=%" PRIu64 " dump=%016" PRIx64 "%s\n", workload.c_str(), params.seed,
              Fnv1a(out.dump), sim.c_str());
  if (!span_dump.empty() && params.trace && !Spans::global().dump_csv(span_dump)) {
    std::fprintf(stderr, "cannot write span dump %s\n", span_dump.c_str());
    return 3;
  }

  const bool correct = out.failed == 0 && out.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", out.attempted, out.failed,
              params.trace ? JsonMetrics(kPerLayer, out.per_layer).c_str()
                           : JsonMetrics(kEndToEnd, out.end_to_end).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
