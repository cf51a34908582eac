// flood: closed-loop §6 mitigation at L-IXP scale.
//
// 64 victim members (10G+ ports) each protect one /32 carrying a 60 Mbps web
// baseline; after a benign warm-up every victim is hit by an amplification
// flood (NTP / DNS / memcached / chargen mix) with a staggered onset. Each
// victim runs detect::EnableAutoMitigation, so detection, rule synthesis and
// signaling are automatic. Background traffic flows toward a quarter of all
// members. Traffic bins arrive on the sim-clock schedule whether or not a
// mitigation has landed (open loop); the host processes them back to back.
//
// A timed bin is run_until + Ixp::deliver_bin + StellarSystem::observe_bin;
// traffic generation happens before each bin and is not timed.
//
// Checks per victim: mitigated (delivered attack < 5% of peak) within its
// attack window, benign web during the attack >= 80% of pre-attack; and at
// the end installed == desired with no TCAM release errors.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "detect/engine.hpp"
#include "filter/qos.hpp"
#include "traffic/generators.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr int kVictims = 64;
constexpr double kBinS = 10.0;
/// Traffic bins per second of --seconds (calibrated on a 4-core x86 VM).
constexpr double kBinsPerSecond = 40.0;
constexpr int kWarmupBins = 12;
constexpr int kAttackBins = 30;
constexpr int kTailBins = 20;
constexpr double kAttackPeakMbps = 5000.0;
constexpr double kWebMbps = 60.0;
constexpr double kMitigatedShare = 0.05;

struct Victim {
  bgp::Asn asn = 0;
  filter::PortId port = 0;
  net::IPv4Address target;
  std::uint16_t service_port = 0;
  double onset_s = 0.0;
  double end_s = 0.0;
  double ramp_s = 0.0;
  std::unique_ptr<traffic::WebTrafficGenerator> web;
  std::unique_ptr<traffic::AmplificationAttackGenerator> attack;
  detect::AutoMitigator* mitigator = nullptr;

  double pre_benign_mbps = 0.0;
  int pre_bins = 0;
  double during_benign_mbps = 0.0;
  int during_bins = 0;
  double mitigate_s = -1.0;
};

}  // namespace

Outcome RunFlood(Rig& rig, const RunParams& params) {
  Outcome out;
  ixp::Ixp& ixp = *rig.ixp;
  core::StellarSystem& stellar = *rig.stellar;
  const auto& members = ixp.members();
  util::Rng rng(params.seed * 0xA24BAED4963EE407ull + 29);

  const int bins = std::max(kWarmupBins + kAttackBins + kTailBins + 10,
                            static_cast<int>(kBinsPerSecond * params.seconds));
  const int stagger_bins = bins - kWarmupBins - kAttackBins - kTailBins;

  // -- Inputs ---------------------------------------------------------------
  std::vector<int> order(members.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  rng.shuffle(order);
  static const std::uint16_t kServices[] = {net::kPortNtp, net::kPortDns, net::kPortMemcached,
                                            net::kPortChargen};
  std::vector<Victim> victims;
  std::unordered_map<std::uint32_t, std::size_t> by_target;
  for (const int index : order) {
    if (static_cast<int>(victims.size()) == kVictims) break;
    const ixp::MemberRouter& member = *members[static_cast<std::size_t>(index)];
    if (member.info().port_capacity_mbps < 10'000.0) continue;
    Victim v;
    v.asn = member.info().asn;
    v.port = member.info().port;
    v.target = traffic::RandomHostIn(member.info().address_space, rng);
    v.onset_s = kWarmupBins * kBinS + rng.uniform(0.0, stagger_bins * kBinS);
    v.end_s = v.onset_s + kAttackBins * kBinS;

    auto sources = ixp.source_members(v.asn);
    auto config = traffic::BooterNtpAttack(v.target, kAttackPeakMbps, v.onset_s, v.end_s);
    const std::uint16_t service = kServices[victims.size() % 4];
    for (const auto& candidate : net::kAmplificationServices) {
      if (candidate.udp_port == service) config.service = candidate;
    }
    config.reflectors = 300;
    v.service_port = service;
    v.ramp_s = config.ramp_s;
    v.attack = std::make_unique<traffic::AmplificationAttackGenerator>(
        config, sources, static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30)));
    traffic::WebTrafficGenerator::Config web;
    web.target = v.target;
    web.rate_mbps = kWebMbps;
    rng.shuffle(sources);
    sources.resize(12);
    v.web = std::make_unique<traffic::WebTrafficGenerator>(
        web, sources, static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30)));
    by_target[v.target.value()] = victims.size();
    victims.push_back(std::move(v));
  }
  std::vector<std::unique_ptr<traffic::BackgroundTrafficGenerator>> background;
  for (std::size_t i = 0; i < members.size() / 4; ++i) {
    const ixp::MemberRouter& dst = *members[static_cast<std::size_t>(order[members.size() - 1 - i])];
    traffic::BackgroundTrafficGenerator::Config config;
    config.dst_space = dst.info().address_space;
    config.rate_mbps = 200.0;
    config.flows_per_bin = 32;
    auto sources = ixp.source_members(dst.info().asn);
    rng.shuffle(sources);
    sources.resize(24);
    background.push_back(std::make_unique<traffic::BackgroundTrafficGenerator>(
        config, sources, static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 30))));
  }
  for (Victim& v : victims) v.mitigator = &detect::EnableAutoMitigation(stellar, v.asn);

  // -- Bins -----------------------------------------------------------------
  // Bin 0 starts on a whole bin boundary of the sim clock.
  const double epoch = std::ceil(rig.queue.now().count() / kBinS) * kBinS + kBinS;
  std::vector<double> bin_ms;
  std::vector<double> bin_flows;
  std::uint64_t flows_offered = 0;
  std::uint64_t flows_delivered = 0;
  std::size_t rules_max = 0;
  double gen_ms = 0.0;
  double lookup_ns = 0.0;
  std::uint64_t lookup_flows = 0;
  double classify_ns = 0.0;
  std::uint64_t classify_flows = 0;
  double edge_deliver_ms = 0.0;
  for (int b = 0; b < bins; ++b) {
    const double t = b * kBinS;
    std::vector<net::FlowSample> offered;
    {
      ScopedSpan span("traffic.gen", static_cast<std::uint64_t>(b));
      const auto g0 = Clock::now();
      for (Victim& v : victims) {
        for (auto& s : v.web->bin(t, kBinS)) offered.push_back(s);
        for (auto& s : v.attack->bin(t, kBinS)) offered.push_back(s);
      }
      for (auto& generator : background) {
        for (auto& s : generator->bin(t, kBinS)) offered.push_back(s);
      }
      gen_ms += MsSince(g0);
    }

    const auto start = Clock::now();
    ixp::Fabric::BinReport report;
    {
      ScopedSpan span("sim.run", static_cast<std::uint64_t>(b));
      rig.queue.run_until(sim::Seconds(epoch + t));
    }
    {
      ScopedSpan span("ixp.deliver", static_cast<std::uint64_t>(b));
      report = ixp.deliver_bin(offered, kBinS);
    }
    {
      ScopedSpan span("detect.observe", static_cast<std::uint64_t>(b));
      stellar.observe_bin(report.delivered, t, kBinS);
    }
    bin_ms.push_back(MsSince(start));
    bin_flows.push_back(static_cast<double>(offered.size()));
    flows_offered += offered.size();
    flows_delivered += report.delivered.size();

    // -- Accounting (untimed) ---------------------------------------------
    std::vector<double> attack_mbps(victims.size(), 0.0);
    std::vector<double> benign_mbps(victims.size(), 0.0);
    for (const auto& flow : report.delivered) {
      const auto it = by_target.find(flow.key.dst_ip.value());
      if (it == by_target.end()) continue;
      const Victim& v = victims[it->second];
      if (flow.key.proto == net::IpProto::kUdp && flow.key.src_port == v.service_port) {
        attack_mbps[it->second] += flow.mbps(kBinS);
      } else {
        benign_mbps[it->second] += flow.mbps(kBinS);
      }
    }
    for (std::size_t i = 0; i < victims.size(); ++i) {
      Victim& v = victims[i];
      if (t + kBinS <= v.onset_s && b >= 3) {
        v.pre_benign_mbps += benign_mbps[i];
        ++v.pre_bins;
      } else if (t >= v.onset_s && t + kBinS <= v.end_s) {
        v.during_benign_mbps += benign_mbps[i];
        ++v.during_bins;
        if (v.mitigate_s < 0.0 && t >= v.onset_s + v.ramp_s &&
            attack_mbps[i] < kMitigatedShare * kAttackPeakMbps) {
          v.mitigate_s = t - v.onset_s;
        }
      }
    }
    rules_max = std::max(rules_max, stellar.compiler().installed_keys().size());

    if (params.trace) {
      // Probes of the per-flow data-plane layers, replayed on this bin's
      // offered traffic outside the bin's own timing: LPM egress lookup,
      // then QoS classification and egress QoS on every victim port. The
      // replay uses the pure ApplyEgressQos, so no rule counter moves.
      // The lookup pass only records egress ports, so the per-flow figure
      // is the LPM alone; flows are grouped per port afterwards, untimed.
      std::vector<filter::PortId> egress(offered.size(), 0);
      std::vector<char> routed(offered.size(), 0);
      const auto l0 = Clock::now();
      for (std::size_t f = 0; f < offered.size(); ++f) {
        routed[f] = ixp.fabric().lookup_egress(offered[f].key.dst_ip, egress[f]) ? 1 : 0;
      }
      lookup_ns += MsSince(l0) * 1e6;
      lookup_flows += offered.size();
      std::map<filter::PortId, std::vector<net::FlowSample>> demands;
      for (std::size_t f = 0; f < offered.size(); ++f) {
        if (routed[f]) demands[egress[f]].push_back(offered[f]);
      }
      for (const Victim& v : victims) {
        const auto& demand = demands[v.port];
        std::vector<net::FlowKey> keys;
        keys.reserve(demand.size());
        for (const auto& flow : demand) keys.push_back(flow.key);
        const filter::QosPolicy& policy = ixp.edge_router().policy(v.port);
        const auto c0 = Clock::now();
        const auto classified = policy.classify_batch(keys);
        classify_ns += MsSince(c0) * 1e6;
        classify_flows += classified.size();
        const auto e0 = Clock::now();
        const auto result = filter::ApplyEgressQos(
            demand, policy, ixp.edge_router().port_capacity_mbps(v.port), kBinS);
        edge_deliver_ms += MsSince(e0);
        (void)result;
      }
    }
  }

  // Drain (untimed) so in-flight changes land before the final audit.
  for (int step = 0; step < 100 && !stellar.manager().in_flight().empty(); ++step) {
    rig.queue.run_until(rig.queue.now() + sim::Seconds(10.0));
  }

  // -- Checks: victims are the unit of correctness -----------------------------
  std::vector<double> mitigate;
  for (const Victim& v : victims) {
    ++out.attempted;
    const std::string who = "victim AS" + std::to_string(v.asn);
    if (v.mitigate_s < 0.0) {
      out.fail(who + ": not mitigated within its attack window");
      continue;
    }
    mitigate.push_back(v.mitigate_s);
    const double pre = v.pre_bins ? v.pre_benign_mbps / v.pre_bins : 0.0;
    const double during = v.during_bins ? v.during_benign_mbps / v.during_bins : 0.0;
    if (pre <= 0.0 || during < 0.8 * pre) {
      out.fail(who + ": benign web fell to " + std::to_string(during) + " Mbps from " +
               std::to_string(pre));
    }
  }
  std::string why;
  if (!rig.converged(why)) out.fail("control plane not converged: " + why);

  detect::AutoMitigator::Stats detect_totals;
  for (const Victim& v : victims) {
    const auto& s = v.mitigator->stats();
    detect_totals.detections += s.detections;
    detect_totals.signals_sent += s.signals_sent;
    detect_totals.escalations += s.escalations;
    detect_totals.withdrawals += s.withdrawals;
  }

  ReportHostTimes(bin_ms, bin_flows, out);

  auto& m = out.per_layer;
  m["sim.mitigate_s_p50"] = {Quantile(mitigate, 0.50), "s"};
  m["sim.mitigate_s_p80"] = {Quantile(mitigate, 0.80), "s"};
  out.sim_clock["mitigate_s_p50"] = m["sim.mitigate_s_p50"].value;
  out.sim_clock["mitigate_s_p80"] = m["sim.mitigate_s_p80"].value;
  out.sim_clock["mitigated"] = static_cast<double>(mitigate.size());
  out.sim_clock["signals_sent"] = static_cast<double>(detect_totals.signals_sent);
  out.sim_clock["flows_delivered"] = static_cast<double>(flows_delivered);
  m["detect.detections"] = {static_cast<double>(detect_totals.detections), "count"};
  m["detect.signals_sent"] = {static_cast<double>(detect_totals.signals_sent), "count"};
  m["detect.escalations"] = {static_cast<double>(detect_totals.escalations), "count"};
  m["detect.withdrawals"] = {static_cast<double>(detect_totals.withdrawals), "count"};
  m["filter.rules_installed_max"] = {static_cast<double>(rules_max), "count"};
  m["flood.flows_offered"] = {static_cast<double>(flows_offered), "count"};
  m["flood.flows_delivered"] = {static_cast<double>(flows_delivered), "count"};
  m["traffic.gen_ms"] = {gen_ms, "ms"};
  if (params.trace) {
    m["ixp.fabric.lookup_ns"] = {lookup_ns / static_cast<double>(std::max<std::uint64_t>(
                                                 lookup_flows, 1)),
                                 "ns"};
    m["filter.qos.classify_ns"] = {
        classify_ns / static_cast<double>(std::max<std::uint64_t>(classify_flows, 1)), "ns"};
    m["filter.edge_router.deliver_ms"] = {edge_deliver_ms, "ms"};
  }
  ReportControlPlane(rig, static_cast<std::uint64_t>(bins), out);
  ReportSpans(out, {"sim.run", "ixp.deliver", "detect.observe"});

  out.dump = rig.rule_dump();
  for (const Victim& v : victims) {
    char line[96];
    std::snprintf(line, sizeof(line), "AS%u mitigate %.17g\n", static_cast<unsigned>(v.asn),
                  v.mitigate_s);
    out.dump += line;
  }
  return out;
}

}  // namespace perfbench
