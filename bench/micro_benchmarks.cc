// Microbenchmarks (google-benchmark) for the hot paths of the system:
// BGP wire codec, Flowspec NLRI codec, signal codec, RIB operations and
// diffing, QoS classification, TCAM allocation, and fabric LPM. These bound
// the control-plane throughput claims: the blackholing controller must parse
// the route server's full update stream, and the data-plane model must keep
// large experiment sweeps cheap.
#include <benchmark/benchmark.h>

#include "bgp/flowspec.hpp"
#include "detect/sketch.hpp"
#include "bgp/message.hpp"
#include "bgp/rib.hpp"
#include "core/signal.hpp"
#include "filter/qos.hpp"
#include "filter/tcam.hpp"
#include "bgp/session.hpp"
#include "ixp/fabric.hpp"
#include "net/ports.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "traffic/collector.hpp"
#include "util/rng.hpp"

namespace {

using namespace stellar;

bgp::UpdateMessage MakeUpdate() {
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65001, 3320, 174}}};
  u.attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
  u.attrs.communities = {bgp::kBlackhole, bgp::Community(64500, 1)};
  core::Signal signal;
  signal.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortNtp});
  signal.shape_rate_mbps = 200.0;
  u.attrs.extended_communities = core::EncodeSignal(64500, signal).value();
  for (std::uint32_t i = 0; i < 8; ++i) {
    u.announced.push_back(
        {0, net::Prefix4(net::IPv4Address((60u << 24) | (i << 12)), 20)});
  }
  return u;
}

void BM_BgpEncodeUpdate(benchmark::State& state) {
  const bgp::UpdateMessage u = MakeUpdate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgp::Encode(u));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BgpEncodeUpdate);

void BM_BgpDecodeUpdate(benchmark::State& state) {
  const auto bytes = bgp::Encode(MakeUpdate());
  for (auto _ : state) {
    auto decoded = bgp::Decode(bytes);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes.size()));
}
BENCHMARK(BM_BgpDecodeUpdate);

void BM_FlowspecRoundTrip(benchmark::State& state) {
  bgp::flowspec::Rule rule;
  rule.components.push_back({bgp::flowspec::ComponentType::kDstPrefix,
                             net::Prefix4::Parse("100.10.10.10/32").value(),
                             {}});
  rule.components.push_back(
      {bgp::flowspec::ComponentType::kIpProtocol, {}, {bgp::flowspec::Eq(17)}});
  rule.components.push_back(
      {bgp::flowspec::ComponentType::kSrcPort, {}, bgp::flowspec::Range(0, 1023)});
  for (auto _ : state) {
    auto encoded = bgp::flowspec::EncodeNlri(rule);
    auto decoded = bgp::flowspec::DecodeNlri(*encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlowspecRoundTrip);

void BM_SignalDecode(benchmark::State& state) {
  core::Signal signal;
  signal.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortNtp});
  signal.rules.push_back({core::RuleKind::kUdpSrcPort, net::kPortDns});
  signal.shape_rate_mbps = 200.0;
  const auto ecs = core::EncodeSignal(64500, signal).value();
  for (auto _ : state) {
    auto decoded = core::DecodeSignal(64500, ecs);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignalDecode);

void BM_RibInsertWithdraw(benchmark::State& state) {
  const auto routes = static_cast<std::uint32_t>(state.range(0));
  bgp::Rib rib;
  bgp::PathAttributes attrs;
  attrs.origin = bgp::Origin::kIgp;
  attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
  std::uint32_t i = 0;
  for (auto _ : state) {
    const net::Prefix4 prefix(net::IPv4Address((60u << 24) | ((i % routes) << 8)), 24);
    rib.insert(bgp::Route{prefix, 1, 0, attrs});
    if (i % 2 == 1) rib.withdraw(prefix, 1, 0);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RibInsertWithdraw)->Arg(1'000)->Arg(100'000);

// Rule-count sweep shared by the linear/indexed classify benchmarks: rules
// bucketed by proto + single src port (the dominant Stellar rule shape), the
// probe flow matching nothing — worst case for the linear scan.
filter::QosPolicy MakeSweepPolicy(std::int64_t rules) {
  filter::QosPolicy policy;
  for (std::uint64_t r = 0; r < static_cast<std::uint64_t>(rules); ++r) {
    filter::FilterRule rule;
    rule.match.proto = net::IpProto::kUdp;
    rule.match.src_port = filter::PortRange::Single(static_cast<std::uint16_t>(r + 1));
    rule.action = filter::FilterAction::kDrop;
    policy.add_rule(r + 1, rule);
  }
  return policy;
}

net::FlowKey SweepFlow() {
  net::FlowKey flow;
  flow.proto = net::IpProto::kUdp;
  flow.src_port = 65'000;  // Matches nothing.
  return flow;
}

void BM_QosClassify(benchmark::State& state) {
  const filter::QosPolicy policy = MakeSweepPolicy(state.range(0));
  const net::FlowKey flow = SweepFlow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.classify(flow));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QosClassify)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_QosClassifyLinear(benchmark::State& state) {
  const filter::QosPolicy policy = MakeSweepPolicy(state.range(0));
  const net::FlowKey flow = SweepFlow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.classify_linear(flow));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QosClassifyLinear)->Arg(8)->Arg(64)->Arg(256)->Arg(1024);

void BM_QosClassifyBatch(benchmark::State& state) {
  const filter::QosPolicy policy = MakeSweepPolicy(state.range(0));
  util::Rng rng(7);
  std::vector<net::FlowKey> flows(1024, SweepFlow());
  for (auto& f : flows) {
    // Half the batch hits a rule, half misses: a realistic attack-time mix.
    f.src_port = static_cast<std::uint16_t>(
        rng.chance(0.5) ? rng.uniform_int(1, state.range(0)) : 65'000);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.classify_batch(flows));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(flows.size()));
}
BENCHMARK(BM_QosClassifyBatch)->Arg(64)->Arg(256);

void BM_TcamAllocateRelease(benchmark::State& state) {
  filter::Tcam tcam({.l3l4_criteria_pool = 1'000'000, .mac_filter_pool = 1'000'000});
  filter::MatchCriteria match;
  match.dst_prefix = net::Prefix4::Parse("100.10.10.10/32").value();
  match.proto = net::IpProto::kUdp;
  match.src_port = filter::PortRange::Single(123);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcam.allocate(1, match));
    if (!tcam.release(1, match)) {
      state.SkipWithError("Tcam::release failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TcamAllocateRelease);

// Owner-table LPM. Flat: N member /20s (the L-IXP plan), every lookup a
// hit. Nested: N /20s, a /24 more-specific inside each on another port and
// a /0 default, with lookups half inside a /24 and half only under its /20.
void BM_FabricLpm(benchmark::State& state, bool nested) {
  filter::EdgeRouter er("er1", filter::TcamLimits{});
  ixp::Fabric fabric(er);
  const auto owners = static_cast<std::uint32_t>(state.range(0));
  for (std::uint32_t i = 0; i < owners; ++i) {
    er.add_port(i + 1, 10'000.0);
    fabric.register_owner(net::Prefix4(net::IPv4Address((60u << 24) | (i << 12)), 20), i + 1);
  }
  if (nested) {
    er.add_port(owners + 1, 10'000.0);
    fabric.register_owner(net::Prefix4(), owners + 1);
    for (std::uint32_t i = 0; i < owners; ++i) {
      fabric.register_owner(net::Prefix4(net::IPv4Address((60u << 24) | (i << 12)), 24),
                            (i + 1) % owners + 1);
    }
  }
  util::Rng rng(1);
  std::vector<net::IPv4Address> lookups;
  for (int i = 0; i < 1024; ++i) {
    // Host .5 of the /20's first /24 (inside the /24 when nested), or of
    // its second /24 (a /24 miss that falls back to the /20).
    const std::uint32_t slash24 = nested && rng.chance(0.5) ? 1u : 0u;
    lookups.push_back(net::IPv4Address(
        (60u << 24) | (static_cast<std::uint32_t>(rng.uniform_int(0, owners - 1)) << 12) |
        (slash24 << 8) | 5u));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    filter::PortId port = 0;
    benchmark::DoNotOptimize(fabric.lookup_egress(lookups[i++ % lookups.size()], port));
    benchmark::DoNotOptimize(port);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_FabricLpm, flat, false)->Name("BM_FabricLpm")->Arg(100)->Arg(800);
BENCHMARK_CAPTURE(BM_FabricLpm, nested, true)->Arg(800);

void BM_FlowCollectorIngest(benchmark::State& state) {
  // Per-sample ingest over a realistic mix (many peers, amplification-heavy
  // port distribution). Dominated by the per-bin peer-set insertion — the
  // collector sits on the IPFIX path, so this bounds flow-stream throughput.
  util::Rng rng(42);
  const auto peer_count = static_cast<std::uint32_t>(state.range(0));
  std::vector<net::FlowSample> samples;
  samples.reserve(4'096);
  for (int i = 0; i < 4'096; ++i) {
    net::FlowSample s;
    s.time_s = rng.uniform(0.0, 600.0);
    s.key.src_mac = net::MacAddress::ForRouter(
        65'001 + static_cast<std::uint32_t>(rng.uniform_int(0, peer_count - 1)));
    s.key.src_ip = net::IPv4Address(static_cast<std::uint32_t>(rng.uniform_int(1, 1 << 30)));
    s.key.dst_ip = net::IPv4Address(100, 10, 10, 10);
    s.key.proto = rng.chance(0.8) ? net::IpProto::kUdp : net::IpProto::kTcp;
    s.key.src_port = rng.chance(0.7) ? net::kPortNtp
                                     : static_cast<std::uint16_t>(rng.uniform_int(1024, 65'535));
    s.key.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65'535));
    s.bytes = 1'000;
    s.packets = 1;
    samples.push_back(s);
  }
  traffic::FlowCollector collector(60.0);
  for (auto _ : state) {
    collector.ingest(samples);
    benchmark::DoNotOptimize(collector.bins().size());
    collector.clear();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(samples.size()));
}
BENCHMARK(BM_FlowCollectorIngest)->Arg(16)->Arg(650);

void BM_CountMinSketchAdd(benchmark::State& state) {
  // The detection engine's per-sample cost: conservative-update add.
  util::Rng rng(43);
  std::vector<std::uint64_t> keys(4'096);
  for (auto& k : keys) {
    k = detect::FlowAggregateKey(static_cast<std::uint32_t>(rng.uniform_int(0, 1 << 24)), 17,
                                 static_cast<std::uint16_t>(rng.uniform_int(0, 65'535)));
  }
  detect::CountMinSketch cms(1'024, 4);
  std::size_t i = 0;
  for (auto _ : state) {
    cms.add(keys[i++ & 4'095], 1'000);
    benchmark::DoNotOptimize(cms.total());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CountMinSketchAdd);

void BM_FaultyLinkOverhead(benchmark::State& state) {
  // Cost of one message through an Endpoint link, bare (arg 0) vs wrapped by
  // a FaultInjector with an all-zero fault plan (arg 1). The injector must be
  // close to free when no faults are configured, so chaos-capable builds can
  // leave the hook armed without skewing timing-sensitive experiments.
  const bool wrapped = state.range(0) != 0;
  sim::EventQueue queue;
  std::unique_ptr<sim::FaultInjector> injector;
  if (wrapped) {
    injector = std::make_unique<sim::FaultInjector>(queue, sim::FaultPlan{});
    injector->arm();
  }
  auto [ea, eb] = bgp::MakeLink(queue);
  std::uint64_t received = 0;
  eb->set_receive_handler([&](const bgp::Frame&) { ++received; });
  const std::vector<std::uint8_t> payload(64, 0xAB);
  for (auto _ : state) {
    ea->send(payload);
    queue.run();  // Drain the delivery event.
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultyLinkOverhead)->Arg(0)->Arg(1);

void BM_ObsHotPath(benchmark::State& state) {
  // Cost of one counter increment + one histogram observation against an
  // armed (arg 1) vs disarmed (arg 0) registry. The disarmed path is the
  // production contract for timing-sensitive experiments: one predictable
  // branch per event, <5 ns/event.
  obs::Registry reg(/*armed=*/state.range(0) != 0);
  obs::Counter counter = reg.counter("bench.events");
  obs::Histogram hist = reg.histogram("bench.latency_seconds");
  double v = 1e-4;
  for (auto _ : state) {
    counter.inc();
    hist.observe(v);
    v = v < 1.0 ? v * 1.0001 : 1e-4;  // Walk the buckets, defeat caching.
    benchmark::DoNotOptimize(v);
  }
  benchmark::DoNotOptimize(counter.value());
  // Two instrumentation events per iteration.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2);
}
BENCHMARK(BM_ObsHotPath)->Arg(0)->Arg(1);

}  // namespace
