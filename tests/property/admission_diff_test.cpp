// Admission differential: the controller's one diff-epoch path against the
// full RIB rescan it replaced (paper §4.1.2's admission control).
//
// The reference below is the old rescan, kept as a pure function of the
// controller's RIB: every rule the RIB asks for, in RIB order, with the first
// max_rules_per_port per port admitted. A controller behind a fake ADD-PATH
// route-server session takes random announces, modifies (shape -> drop
// escalation among them) and withdraws, in both community namespaces and with
// invalid signals mixed in, 1–8 updates per epoch. After every epoch:
// - desired() equals the reference;
// - a replica built from the emitted changes equals desired();
// - per prefix, no install precedes a removal (a modify's remove+install pair
//   of one key is one replacement).
// Midway the route server closes the session: the fail-safe flush must empty
// the desired set, and the resync after the reconnect must rebuild it.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/controller.hpp"
#include "net/ports.hpp"

namespace stellar::core {
namespace {

constexpr std::uint16_t kIxp = 64500;

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

/// Three members on two ports; path-id 4 is announced by a non-member.
std::optional<BlackholingController::PortDirectoryEntry> Directory(bgp::Asn asn) {
  if (asn == 65001 || asn == 65003) return BlackholingController::PortDirectoryEntry{11, 1000.0};
  if (asn == 65002) return BlackholingController::PortDirectoryEntry{12, 1000.0};
  return std::nullopt;
}

bgp::Asn OriginOf(bgp::PathId path_id) {
  // On the controller session a path-id identifies the announcing member.
  static constexpr bgp::Asn kOrigins[] = {65001, 65002, 65003, 65099};
  return kOrigins[(path_id - 1) % 4];
}

/// The full rescan: key -> payload of every admitted rule.
std::map<std::string, std::string> ReferenceAdmission(const bgp::Rib& rib,
                                                      const RulePortal& portal, int budget) {
  std::map<std::string, std::string> target;
  std::map<filter::PortId, int> rules_per_port;
  rib.for_each([&](const bgp::RouteView& route) {
    const auto decoded = DecodeRouteSignal(kIxp, route.attrs.extended_communities,
                                           route.attrs.large_communities);
    if (!decoded.ok() || !decoded->has_value()) return;
    const Signal& signal = **decoded;
    const auto member = route.attrs.origin_asn();
    if (!member) return;
    const auto entry = Directory(*member);
    if (!entry) return;
    const bool shaping = signal.is_shaping();
    for (std::size_t i = 0; i < signal.rules.size(); ++i) {
      const SignalRule& sr = signal.rules[i];
      filter::MatchCriteria criteria;
      if (sr.kind == RuleKind::kPredefined) {
        const MatchTemplate* tmpl = portal.lookup(sr.value, *member);
        if (tmpl == nullptr) continue;
        criteria = tmpl->bind(route.prefix);
      } else {
        auto converted = ToMatchCriteria(sr, route.prefix);
        if (!converted.ok()) continue;
        criteria = *converted;
      }
      int& count = rules_per_port[entry->port];
      if (count >= budget) continue;  // The first budget-many in RIB order win.
      ++count;
      ConfigChange change;
      change.port = entry->port;
      change.rule.match = criteria;
      change.rule.action = shaping ? filter::FilterAction::kShape : filter::FilterAction::kDrop;
      change.rule.shape_rate_mbps = shaping ? *signal.shape_rate_mbps : 0.0;
      const std::string key = route.prefix.str() + "|path" + std::to_string(route.path_id) +
                              "|rule" + std::to_string(i) + "|" + sr.str();
      target.emplace(key, change.str());
    }
  });
  return target;
}

/// Controller behind a fake route-server ADD-PATH session that it re-dials
/// after a loss; epochs are driven manually.
struct Harness {
  sim::EventQueue queue;
  RulePortal portal;
  std::vector<std::unique_ptr<bgp::Session>> servers;  ///< One per dial; last is live.
  std::unique_ptr<BlackholingController> controller;
  std::map<std::string, std::string> replica;  ///< Emitted changes applied in order.
  std::vector<ConfigChange> epoch;             ///< Changes emitted since the last check.

  explicit Harness(int budget) {
    BlackholingController::Config config;
    config.ixp_asn = kIxp;
    config.max_rules_per_port = budget;
    config.process_interval_s = 1e9;
    bgp::ReconnectPolicy policy;
    policy.jitter_frac = 0.0;
    controller = std::make_unique<BlackholingController>(
        queue,
        [this]() -> std::shared_ptr<bgp::Endpoint> {
          auto [server_side, controller_side] = bgp::MakeLink(queue);
          bgp::SessionConfig server_config;
          server_config.local_asn = kIxp;
          server_config.router_id = net::IPv4Address(10, 99, 0, 1);
          server_config.add_path_tx = true;
          servers.push_back(std::make_unique<bgp::Session>(queue, server_side, server_config));
          servers.back()->start();
          return controller_side;
        },
        policy, config, Directory, &portal);
    controller->set_change_sink([this](ConfigChange c) {
      if (c.op == ConfigChange::Op::kInstall) {
        replica[c.key] = c.str();
      } else {
        replica.erase(c.key);
      }
      epoch.push_back(std::move(c));
    });
    queue.run_until(sim::Seconds(1.0));
  }

  bgp::Session& server() { return *servers.back(); }
  void deliver() { queue.run_until(queue.now() + sim::Seconds(0.1)); }
};

/// One route the test keeps live on the server side: its announcement.
using RouteId = std::pair<net::Prefix4, bgp::PathId>;

struct Generator {
  std::mt19937_64 rng;
  std::map<RouteId, bgp::UpdateMessage> live;
  std::map<RouteId, Signal> shaping;  ///< Live routes whose signal shapes.

  explicit Generator(std::uint64_t seed) : rng(seed) {}

  SignalRule RandomRule() {
    static const SignalRule kPool[] = {
        {RuleKind::kUdpSrcPort, net::kPortNtp}, {RuleKind::kUdpSrcPort, net::kPortDns},
        {RuleKind::kProtocol, 17},              {RuleKind::kTcpDstPort, 443},
        {RuleKind::kUdpDstPort, 11211},         {RuleKind::kPredefined, 1},
        {RuleKind::kDropAll, 0},
    };
    return kPool[rng() % std::size(kPool)];
  }

  static void Attach(bgp::UpdateMessage& u, const Signal& signal, bool large) {
    if (large) {
      const auto lcs = EncodeSignalLarge(kIxp, signal).value();
      u.attrs.large_communities.insert(u.attrs.large_communities.end(), lcs.begin(), lcs.end());
    } else {
      const auto ecs = EncodeSignal(kIxp, signal).value();
      u.attrs.extended_communities.insert(u.attrs.extended_communities.end(), ecs.begin(),
                                          ecs.end());
    }
  }

  /// An announcement of (prefix, path_id): mostly valid signals, some
  /// invalid ones, some routes without any Stellar community.
  bgp::UpdateMessage Announcement(const RouteId& id) {
    bgp::UpdateMessage u;
    u.attrs.origin = bgp::Origin::kIgp;
    u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {OriginOf(id.second)}}};
    u.attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
    u.announced = {{id.second, id.first}};
    shaping.erase(id);
    const auto roll = rng() % 10;
    if (roll == 0) return u;  // No Stellar community: the path leaves the record.
    Signal signal;
    const int rules = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < rules; ++i) signal.rules.push_back(RandomRule());
    if (roll == 1) signal.rules.push_back({RuleKind::kPredefined, 900});  // Unknown id.
    if (rng() % 3 == 0) signal.shape_rate_mbps = static_cast<double>(100 + rng() % 900);
    const bool large = rng() % 2 == 0;
    Attach(u, signal, large);
    if (roll == 2) {
      // Two different shaping rates: the decode fails as a whole.
      Signal conflicting;
      conflicting.rules = {{RuleKind::kProtocol, 6}};
      conflicting.shape_rate_mbps = 7.0;
      Attach(u, conflicting, large);
    } else if (signal.is_shaping()) {
      shaping[id] = signal;
    }
    return u;
  }

  /// 1–8 random updates over a small universe, so churn lands on the same
  /// routes, ports and budget boundaries within and across epochs.
  std::vector<bgp::UpdateMessage> Epoch() {
    static const char* kPrefixes[] = {"100.10.0.1/32", "100.10.0.2/32",  "100.10.0.3/32",
                                      "100.20.0.0/28", "100.20.0.16/28", "100.30.1.1/32",
                                      "9.9.9.0/24",    "100.10.0.10/32"};
    std::vector<bgp::UpdateMessage> out;
    const int updates = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < updates; ++i) {
      const RouteId id{P4(kPrefixes[rng() % std::size(kPrefixes)]),
                       1 + static_cast<bgp::PathId>(rng() % 4)};
      const bool is_live = live.contains(id);
      if (is_live && rng() % 3 == 0) {
        bgp::UpdateMessage u;
        u.withdrawn = {{id.second, id.first}};
        live.erase(id);
        shaping.erase(id);
        out.push_back(std::move(u));
        continue;
      }
      if (is_live && shaping.contains(id) && rng() % 2 == 0) {
        // Escalation: the same rules, now dropped instead of shaped.
        Signal drop = shaping.at(id);
        drop.shape_rate_mbps.reset();
        bgp::UpdateMessage u = live.at(id);
        u.attrs.extended_communities.clear();
        u.attrs.large_communities.clear();
        Attach(u, drop, rng() % 2 == 0);
        shaping.erase(id);
        live[id] = u;
        out.push_back(std::move(u));
        continue;
      }
      live[id] = Announcement(id);
      out.push_back(live[id]);
    }
    return out;
  }
};

std::map<std::string, std::string> DesiredDigest(const BlackholingController& c) {
  std::map<std::string, std::string> out;
  for (const auto& [key, change] : c.desired()) out[key] = change.str();
  return out;
}

std::string PrefixOf(const std::string& key) { return key.substr(0, key.find('|')); }

/// Checks the epoch just processed, then starts the next one.
void CheckEpoch(Harness& h, int budget, const std::string& where) {
  ASSERT_EQ(DesiredDigest(*h.controller), ReferenceAdmission(h.controller->rib(), h.portal, budget))
      << where;
  ASSERT_EQ(h.replica, DesiredDigest(*h.controller)) << where;
  std::set<std::string> installed_prefixes;
  for (std::size_t i = 0; i < h.epoch.size(); ++i) {
    const ConfigChange& c = h.epoch[i];
    const std::string prefix = PrefixOf(c.key);
    if (c.op == ConfigChange::Op::kInstall) {
      installed_prefixes.insert(prefix);
      continue;
    }
    const bool modify = i + 1 < h.epoch.size() && h.epoch[i + 1].key == c.key &&
                        h.epoch[i + 1].op == ConfigChange::Op::kInstall;
    if (modify) continue;
    ASSERT_FALSE(installed_prefixes.contains(prefix))
        << where << ": removal of " << c.key << " after an install of its prefix";
  }
  h.epoch.clear();
}

void RunAdmissionDiff(std::uint64_t seed, int budget) {
  Harness h(budget);
  Generator gen(seed);
  const auto run_epoch = [&](const std::vector<bgp::UpdateMessage>& updates) {
    for (const auto& u : updates) h.server().announce(u);
    h.deliver();
    h.controller->process();
  };
  for (int round = 0; round < 60; ++round) {
    const std::string where = "seed=" + std::to_string(seed) + " budget=" +
                              std::to_string(budget) + " round=" + std::to_string(round);
    if (round == 30) {
      // The route server goes away: the fail-safe flush removes every rule.
      h.server().stop();
      h.deliver();
      ASSERT_EQ(h.controller->stats().failsafe_flushes, 1u) << where;
      ASSERT_TRUE(h.controller->desired().empty()) << where;
      CheckEpoch(h, budget, where + " (flush)");
      // The controller re-dials; the new session replays every live route.
      for (int wait = 0; wait < 100 && !h.server().established(); ++wait) h.deliver();
      ASSERT_TRUE(h.server().established()) << where;
      std::vector<bgp::UpdateMessage> replay;
      for (const auto& [id, u] : gen.live) replay.push_back(u);
      run_epoch(replay);
      CheckEpoch(h, budget, where + " (resync)");
      ASSERT_EQ(h.controller->stats().epochs_full, 1u) << where;
    }
    run_epoch(gen.Epoch());
    CheckEpoch(h, budget, where);
  }
  EXPECT_GT(h.controller->stats().epochs_incremental, 0u);
  EXPECT_GT(h.controller->stats().signals_decoded, 0u);
  EXPECT_GT(h.controller->stats().invalid_signals, 0u);
  if (budget < 4) {
    EXPECT_GT(h.controller->stats().admission_rejected, 0u);
  } else if (budget == 64) {
    EXPECT_EQ(h.controller->stats().admission_rejected, 0u);
  }
}

class AdmissionDiffTest : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(AdmissionDiffTest, DesiredMatchesFullRescanAfterEveryEpoch) {
  const auto [budget, seed] = GetParam();
  RunAdmissionDiff(seed, budget);
}

INSTANTIATE_TEST_SUITE_P(Budgets, AdmissionDiffTest,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 64),
                                            ::testing::Values(1u, 2u, 3u)),
                         [](const auto& info) {
                           return "Budget" + std::to_string(std::get<0>(info.param)) + "Seed" +
                                  std::to_string(std::get<1>(info.param));
                         });

}  // namespace
}  // namespace stellar::core
