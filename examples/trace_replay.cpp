// Replaying recorded flow data through the platform: instead of the synthetic
// generators, feed a CSV flow trace (the dialect of traffic/trace_io.hpp,
// trivially produced from an IPFIX/NetFlow export) through the IXP with a
// Stellar rule installed, and write the surviving traffic back out.
//
// Usage:
//   ./trace_replay                # generates a demo trace, replays it,
//                                 # writes ./stellar_replay_out.csv
//   ./trace_replay in.csv out.csv # replays your own capture
#include <cstdio>

#include "core/stellar.hpp"
#include "net/ports.hpp"
#include "traffic/generators.hpp"
#include "traffic/trace_io.hpp"

using namespace stellar;

namespace {

/// Builds a demo capture: one minute of web + NTP-reflection traffic.
std::vector<net::FlowSample> MakeDemoTrace(const std::vector<traffic::SourceMember>& sources,
                                           net::IPv4Address target) {
  traffic::WebTrafficGenerator::Config web_config;
  web_config.target = target;
  web_config.rate_mbps = 300.0;
  traffic::WebTrafficGenerator web(web_config, sources, 21);
  traffic::AmplificationAttackGenerator::Config attack_config;
  attack_config.target = target;
  attack_config.peak_mbps = 900.0;
  attack_config.start_s = 20.0;
  attack_config.end_s = 60.0;
  attack_config.ramp_s = 5.0;
  traffic::AmplificationAttackGenerator attack(attack_config, sources, 22);

  std::vector<net::FlowSample> trace;
  for (double t = 0.0; t < 60.0; t += 10.0) {
    for (auto& s : web.bin(t, 10.0)) trace.push_back(s);
    for (auto& s : attack.bin(t, 10.0)) trace.push_back(s);
  }
  return trace;
}

}  // namespace

int main(int argc, char** argv) {
  sim::EventQueue clock;
  ixp::Ixp exchange(clock);
  ixp::MemberSpec victim_spec;
  victim_spec.asn = 65001;
  victim_spec.port_capacity_mbps = 1'000.0;
  victim_spec.address_space = net::Prefix4::Parse("100.10.10.0/24").value();
  auto& victim = exchange.add_member(victim_spec);
  ixp::MemberSpec src_spec;
  src_spec.asn = 65002;
  src_spec.port_capacity_mbps = 100'000.0;
  src_spec.address_space = net::Prefix4::Parse("60.2.0.0/20").value();
  exchange.add_member(src_spec);
  core::StellarSystem stellar(exchange);
  exchange.settle(30.0);
  const net::IPv4Address target(100, 10, 10, 10);

  // 1. Load (or synthesize) the capture.
  std::vector<net::FlowSample> trace;
  if (argc >= 2) {
    auto loaded = traffic::ReadFlowCsvFile(argv[1]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot read %s: %s\n", argv[1], loaded.error().message.c_str());
      return 1;
    }
    trace = std::move(*loaded);
    std::printf("loaded %zu flow samples from %s\n", trace.size(), argv[1]);
  } else {
    trace = MakeDemoTrace(exchange.source_members(65001), target);
    std::printf("synthesized a demo capture: %zu flow samples over 60 s\n", trace.size());
  }

  // 2. Install the mitigation.
  core::Signal signal;
  signal.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortNtp});
  core::SignalAdvancedBlackholing(victim, exchange.route_server(),
                                  net::Prefix4::HostRoute(target), signal);
  exchange.settle(10.0);

  // 3. Replay bin by bin (the trace's time_s field selects the bin).
  constexpr double kBin = 10.0;
  std::map<std::int64_t, std::vector<net::FlowSample>> bins;
  for (const auto& s : trace) bins[static_cast<std::int64_t>(s.time_s / kBin)].push_back(s);
  std::vector<net::FlowSample> survivors;
  double offered = 0.0;
  double dropped = 0.0;
  for (const auto& [index, flows] : bins) {
    const auto report = exchange.deliver_bin(flows, kBin);
    offered += report.offered_mbps;
    dropped += report.rule_dropped_mbps;
    for (auto s : report.delivered) {
      s.time_s = static_cast<double>(index) * kBin;
      survivors.push_back(std::move(s));
    }
  }
  std::printf("replayed %zu bins: offered %.0f Mbps-bins, dropped %.0f by the rule,\n"
              "%zu samples survived\n",
              bins.size(), offered, dropped, survivors.size());

  // 4. Write the post-mitigation trace.
  const std::string out_path = argc >= 3 ? argv[2] : "stellar_replay_out.csv";
  if (auto written = traffic::WriteFlowCsvFile(out_path, survivors); !written.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                 written.error().message.c_str());
    return 1;
  }
  std::printf("surviving traffic written to %s\n", out_path.c_str());
  return 0;
}
