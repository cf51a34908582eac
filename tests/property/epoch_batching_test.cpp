// Epoch batching equivalence properties (chaos-seed harness style).
//
// Part A — controller diff epochs: any interleaving of announce / withdraw /
// modify updates coalesced into ONE diff epoch must leave the data plane in
// exactly the state produced by processing the same updates one at a time.
// Admission keeps the first budget-many candidates per port in RIB order, a
// function of the RIB alone, so the property must hold both under and over
// the per-port rule budget.
//
// Part B — network-manager batching: the batched/coalescing queue
// (Config::batch_apply) must realize byte-identical installed rule sets to
// the classic per-change queue for the same change sequence, while consuming
// strictly fewer rate-limiter tokens when there is churn to coalesce — and
// still when a flaky compiler forces retries of both queues.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/controller.hpp"
#include "core/network_manager.hpp"
#include "filter/edge_router.hpp"
#include "net/ports.hpp"
#include "sim/fault.hpp"

namespace stellar::core {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

constexpr std::uint16_t kIxp = 64500;

// ---------------------------------------------------------------------------
// Part A: controller epoch interleaving.

/// Controller behind a fake route-server ADD-PATH session, with the periodic
/// processor effectively disabled so the test controls epoch boundaries.
struct EpochController {
  sim::EventQueue queue;
  RulePortal portal;
  std::unique_ptr<bgp::Session> server;
  std::unique_ptr<BlackholingController> controller;
  /// Data-plane replica: change emissions applied in order (install =
  /// upsert, remove = erase), keyed by change key.
  std::map<std::string, std::string> replica;

  explicit EpochController(int max_rules_per_port) {
    auto [server_side, controller_side] = bgp::MakeLink(queue);
    bgp::SessionConfig server_config;
    server_config.local_asn = kIxp;
    server_config.router_id = net::IPv4Address(10, 99, 0, 1);
    server_config.add_path_tx = true;
    server = std::make_unique<bgp::Session>(queue, server_side, server_config);
    server->start();

    BlackholingController::Config config;
    config.ixp_asn = kIxp;
    config.max_rules_per_port = max_rules_per_port;
    config.process_interval_s = 1e9;  // Epochs are driven manually.
    controller = std::make_unique<BlackholingController>(
        queue, controller_side, config,
        [](bgp::Asn asn) -> std::optional<BlackholingController::PortDirectoryEntry> {
          if (asn == 65001) return BlackholingController::PortDirectoryEntry{11, 1000.0};
          if (asn == 65002) return BlackholingController::PortDirectoryEntry{12, 1000.0};
          return std::nullopt;
        },
        &portal);
    controller->set_change_sink([this](ConfigChange c) {
      if (c.op == ConfigChange::Op::kInstall) {
        replica[c.key] = c.str();
      } else {
        replica.erase(c.key);
      }
    });
    queue.run_until(sim::Seconds(1.0));
  }

  void deliver() { queue.run_until(queue.now() + sim::Seconds(0.1)); }
};

/// One abstract RIB operation: announce (or re-announce with new content) a
/// signaling route, or withdraw it.
struct RibOp {
  bool withdraw = false;
  net::Prefix4 prefix;
  bgp::PathId path_id = 1;
  bgp::Asn origin = 65001;
  Signal signal;
};

Signal RandomSignal(std::mt19937_64& rng) {
  Signal s;
  const int variant = static_cast<int>(rng() % 4);
  switch (variant) {
    case 0:
      s.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
      break;
    case 1:
      s.rules.push_back({RuleKind::kUdpSrcPort, net::kPortDns});
      s.rules.push_back({RuleKind::kProtocol, 17});
      break;
    case 2:
      s.rules.push_back({RuleKind::kProtocol, 6});
      s.shape_rate_mbps = static_cast<double>(100 + rng() % 900);
      break;
    default:
      s.rules.push_back({RuleKind::kTcpDstPort, 443});
      break;
  }
  return s;
}

std::vector<RibOp> RandomEpoch(std::mt19937_64& rng, std::set<std::string>& live,
                               std::size_t ops) {
  // A small prefix universe with repeats so announce/modify/withdraw churn
  // lands on the same (prefix, path) identities within one epoch.
  static const char* kPrefixes[] = {"100.10.0.1/32", "100.10.0.2/32", "100.10.0.3/32",
                                    "100.20.0.0/28", "100.20.0.16/28", "100.30.1.1/32"};
  std::vector<RibOp> epoch;
  for (std::size_t i = 0; i < ops; ++i) {
    RibOp op;
    op.prefix = P4(kPrefixes[rng() % std::size(kPrefixes)]);
    op.path_id = 1 + static_cast<bgp::PathId>(rng() % 3);
    // A controller-session path-id identifies the announcing member (the
    // route server validates origin == member), so origin is a function of
    // path_id — announcing one path-id from two origins cannot happen.
    op.origin = (op.path_id % 2 == 0) ? 65002 : 65001;
    const std::string id = op.prefix.str() + "#" + std::to_string(op.path_id);
    if (live.contains(id) && rng() % 3 == 0) {
      op.withdraw = true;
      live.erase(id);
    } else {
      op.signal = RandomSignal(rng);
      live.insert(id);
    }
    epoch.push_back(std::move(op));
  }
  return epoch;
}

void Announce(EpochController& c, const RibOp& op) {
  bgp::UpdateMessage u;
  if (op.withdraw) {
    u.withdrawn = {{op.path_id, op.prefix}};
  } else {
    u.attrs.origin = bgp::Origin::kIgp;
    u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {op.origin}}};
    u.attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
    u.attrs.extended_communities = EncodeSignal(kIxp, op.signal).value();
    u.announced = {{op.path_id, op.prefix}};
  }
  c.server->announce(u);
}

/// Desired-state digest: key -> rule payload, for cross-controller equality.
std::map<std::string, std::string> DesiredDigest(const BlackholingController& c) {
  std::map<std::string, std::string> out;
  for (const auto& [key, change] : c.desired()) out[key] = change.str();
  return out;
}

class EpochInterleavingTest : public ::testing::TestWithParam<std::uint64_t> {};

void RunInterleavingProperty(std::uint64_t seed, int max_rules_per_port,
                             bool expect_incremental_epochs) {
  std::mt19937_64 rng_a(seed);
  std::mt19937_64 rng_b(seed);
  EpochController batched(max_rules_per_port);
  EpochController serial(max_rules_per_port);
  std::set<std::string> live_a;
  std::set<std::string> live_b;

  for (int round = 0; round < 12; ++round) {
    const auto epoch_a = RandomEpoch(rng_a, live_a, 6);
    const auto epoch_b = RandomEpoch(rng_b, live_b, 6);
    ASSERT_EQ(epoch_a.size(), epoch_b.size());  // Same seed => same epochs.

    // Batched: the whole epoch lands in the RIB, then ONE process() round
    // coalesces every per-prefix delta into a single change-set.
    for (const auto& op : epoch_a) Announce(batched, op);
    batched.deliver();
    batched.controller->process();

    // Serial: one process() round after every single update.
    for (const auto& op : epoch_b) {
      Announce(serial, op);
      serial.deliver();
      serial.controller->process();
    }

    // The final realized rule set must be identical after every epoch, no
    // matter how the deltas were sliced into process() rounds.
    ASSERT_EQ(batched.replica, serial.replica) << "seed=" << seed << " round=" << round;
    ASSERT_EQ(DesiredDigest(*batched.controller), DesiredDigest(*serial.controller))
        << "seed=" << seed << " round=" << round;
  }
  // Sanity: the batched side must actually run diff epochs (checked with an
  // uncontended budget; every non-empty epoch counts as incremental).
  if (expect_incremental_epochs) {
    EXPECT_GT(batched.controller->stats().epochs_incremental, 0u) << "seed=" << seed;
  }
}

TEST_P(EpochInterleavingTest, BatchedEpochMatchesOneByOne) {
  RunInterleavingProperty(GetParam(), /*max_rules_per_port=*/64,
                          /*expect_incremental_epochs=*/true);
}

TEST_P(EpochInterleavingTest, BatchedEpochMatchesOneByOneUnderAdmissionPressure) {
  // A 2-rule budget forces rejections, saturated ports, evictions and
  // re-admissions; the equivalence must survive all of it.
  RunInterleavingProperty(GetParam(), /*max_rules_per_port=*/2,
                          /*expect_incremental_epochs=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpochInterleavingTest, ::testing::Values(1, 2, 3, 4));

// ---------------------------------------------------------------------------
// Part B: manager batching differential.

struct ManagerRig {
  sim::EventQueue queue;
  filter::EdgeRouter router;
  QosConfigCompiler compiler;
  std::unique_ptr<sim::FlakyCompiler> flaky;  // Set when flaky_probability > 0.
  std::unique_ptr<NetworkManager> nm;

  explicit ManagerRig(bool batch_apply, double flaky_probability = 0.0,
                      std::uint64_t flaky_seed = 1)
      : router("er", filter::TcamLimits{100000, 100000, 0, 0}), compiler(router) {
    for (filter::PortId port = 11; port <= 14; ++port) router.add_port(port, 1000.0);
    NetworkManager::Config config;
    config.batch_apply = batch_apply;
    ConfigCompiler* target = &compiler;
    if (flaky_probability > 0.0) {
      flaky = std::make_unique<sim::FlakyCompiler>(compiler, flaky_probability, flaky_seed);
      target = flaky.get();
      // Enough attempts that no transient change exhausts its budget.
      config.max_attempts = 64;
    }
    nm = std::make_unique<NetworkManager>(queue, *target, config);
  }

  /// Byte-exact dump of the realized data plane: every installed key plus
  /// every per-port rule payload, in sorted order.
  std::string dump() {
    std::string out;
    std::vector<std::string> keys = compiler.installed_keys();
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

ConfigChange MakeChange(ConfigChange::Op op, const std::string& key, filter::PortId port,
                        std::uint16_t src_port) {
  ConfigChange c;
  c.op = op;
  c.member = 65000 + port;
  c.port = port;
  c.rule.match.dst_prefix = P4("100.10.10.10/32");
  c.rule.match.proto = net::IpProto::kUdp;
  c.rule.match.src_port = filter::PortRange::Single(src_port);
  c.rule.action = filter::FilterAction::kDrop;
  c.key = key;
  return c;
}

/// Controller-shaped change stream, one vector per epoch: installs of fresh
/// keys, removals of installed keys, modify churn (remove + reinstall), and
/// within-epoch install->remove flapping that the batched queue should
/// annihilate.
std::vector<std::vector<ConfigChange>> ControllerShapedEpochs(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  struct LiveRule {
    std::string key;
    filter::PortId port;
  };
  std::vector<LiveRule> installed;
  std::vector<std::vector<ConfigChange>> epochs;
  int next_key = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    std::vector<ConfigChange>& stream = epochs.emplace_back();
    const int ops = 4 + static_cast<int>(rng() % 5);
    for (int i = 0; i < ops; ++i) {
      const filter::PortId port = 11 + static_cast<filter::PortId>(rng() % 4);
      const auto roll = rng() % 4;
      if (roll == 0 && !installed.empty()) {
        // Withdraw an installed rule (removals carry the rule's real port,
        // exactly as the controller's desired_ bookkeeping does).
        const std::size_t pick = rng() % installed.size();
        const LiveRule live = installed[pick];
        installed.erase(installed.begin() + static_cast<long>(pick));
        stream.push_back(MakeChange(ConfigChange::Op::kRemove, live.key, live.port, 0));
      } else if (roll == 1) {
        // Install-then-remove flap inside one epoch: never reaches hardware
        // in the batched queue, installs-then-removes in the serial one.
        const std::string key = "flap" + std::to_string(next_key++);
        stream.push_back(MakeChange(ConfigChange::Op::kInstall, key, port, 123));
        stream.push_back(MakeChange(ConfigChange::Op::kRemove, key, port, 123));
      } else if (roll == 2 && !installed.empty()) {
        // Modify: remove + reinstall with a new payload (controller idiom).
        const LiveRule& live = installed[rng() % installed.size()];
        stream.push_back(MakeChange(ConfigChange::Op::kRemove, live.key, live.port, 0));
        stream.push_back(MakeChange(ConfigChange::Op::kInstall, live.key, live.port,
                                    static_cast<std::uint16_t>(1024 + rng() % 1000)));
      } else {
        const std::string key = "rule" + std::to_string(next_key++);
        stream.push_back(MakeChange(ConfigChange::Op::kInstall, key, port,
                                    static_cast<std::uint16_t>(1024 + rng() % 1000)));
        installed.push_back(LiveRule{key, port});
      }
    }
  }
  return epochs;
}

class ManagerBatchingTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ManagerBatchingTest, BatchedQueueRealizesIdenticalRuleSet) {
  const std::uint64_t seed = GetParam();
  ManagerRig batched(/*batch_apply=*/true);
  ManagerRig serial(/*batch_apply=*/false);

  std::vector<ConfigChange> stream;
  for (const auto& epoch : ControllerShapedEpochs(seed)) {
    stream.insert(stream.end(), epoch.begin(), epoch.end());
  }
  for (const auto& change : stream) {
    batched.nm->enqueue(change);
    serial.nm->enqueue(change);
  }
  batched.queue.run_until(sim::Seconds(10000.0));
  serial.queue.run_until(sim::Seconds(10000.0));
  ASSERT_TRUE(batched.nm->in_flight().empty());
  ASSERT_TRUE(serial.nm->in_flight().empty());

  // Byte-identical final rule sets...
  EXPECT_EQ(batched.dump(), serial.dump()) << "seed=" << seed;
  // ...with strictly less token-bucket work on the batched side: the flap
  // generator guarantees coalescible churn every epoch.
  EXPECT_GT(batched.nm->stats().coalesced, 0u) << "seed=" << seed;
  EXPECT_LT(batched.nm->stats().batches, serial.nm->stats().applied) << "seed=" << seed;
  EXPECT_EQ(batched.router.tcam_release_errors(), 0u);
  EXPECT_EQ(serial.router.tcam_release_errors(), 0u);
}

TEST_P(ManagerBatchingTest, BatchedQueueMatchesSerialUnderTransientFailures) {
  // Both queues behind a compiler that fails 30% of applies transiently.
  // Epochs arrive while earlier failures sit out their backoff, so newer
  // changes supersede pending retries of their key on both sides.
  const std::uint64_t seed = GetParam();
  ManagerRig batched(/*batch_apply=*/true, /*flaky_probability=*/0.3, seed);
  ManagerRig serial(/*batch_apply=*/false, /*flaky_probability=*/0.3, seed);
  double at_s = 0.0;
  for (const auto& epoch : ControllerShapedEpochs(seed)) {
    for (ManagerRig* rig : {&batched, &serial}) {
      rig->queue.run_until(sim::Seconds(at_s));
      for (const auto& change : epoch) rig->nm->enqueue(change);
    }
    at_s += 1.5;
  }
  batched.queue.run_until(sim::Seconds(10000.0));
  serial.queue.run_until(sim::Seconds(10000.0));
  ASSERT_TRUE(batched.nm->in_flight().empty());
  ASSERT_TRUE(serial.nm->in_flight().empty());

  // Dead-letter sets may differ: batched coalescing annihilates some removes
  // of never-installed keys that the serial queue dead-letters.
  EXPECT_EQ(batched.dump(), serial.dump()) << "seed=" << seed;
  for (const ManagerRig* rig : {&batched, &serial}) {
    EXPECT_GT(rig->nm->stats().retries, 0u) << "seed=" << seed;
    EXPECT_EQ(rig->nm->stats().retry_budget_exhausted, 0u) << "seed=" << seed;
    EXPECT_EQ(rig->router.tcam_release_errors(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManagerBatchingTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace stellar::core
