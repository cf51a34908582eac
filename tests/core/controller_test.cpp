#include "core/controller.hpp"

#include <gtest/gtest.h>

#include "net/ports.hpp"

namespace stellar::core {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

constexpr std::uint16_t kIxp = 64500;

/// Drives the controller through a fake route-server-side ADD-PATH session.
struct ControllerFixture {
  sim::EventQueue queue;
  RulePortal portal;
  std::unique_ptr<bgp::Session> server;
  std::unique_ptr<BlackholingController> controller;
  std::vector<ConfigChange> changes;

  explicit ControllerFixture(int max_rules_per_port = 64) {
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
    controller = std::make_unique<BlackholingController>(
        queue, controller_side, config,
        [](bgp::Asn asn) -> std::optional<BlackholingController::PortDirectoryEntry> {
          if (asn == 65001) return BlackholingController::PortDirectoryEntry{11, 1000.0};
          if (asn == 65002) return BlackholingController::PortDirectoryEntry{12, 1000.0};
          return std::nullopt;
        },
        &portal);
    controller->set_change_sink([this](ConfigChange c) { changes.push_back(std::move(c)); });
    queue.run_until(sim::Seconds(1.0));
  }

  void push(const net::Prefix4& prefix, bgp::PathId path_id, bgp::Asn origin,
            const Signal& signal) {
    bgp::UpdateMessage u;
    u.attrs.origin = bgp::Origin::kIgp;
    u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {origin}}};
    u.attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
    u.attrs.extended_communities = EncodeSignal(kIxp, signal).value();
    u.announced = {{path_id, prefix}};
    server->announce(u);
    settle();
  }

  void withdraw(const net::Prefix4& prefix, bgp::PathId path_id) {
    bgp::UpdateMessage u;
    u.withdrawn = {{path_id, prefix}};
    server->announce(u);
    settle();
  }

  void settle() { queue.run_until(queue.now() + sim::Seconds(2.0)); }
};

Signal NtpDrop() {
  Signal s;
  s.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  return s;
}

TEST(ControllerTest, SignalBecomesInstallChange) {
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  ASSERT_EQ(f.changes.size(), 1u);
  const ConfigChange& c = f.changes[0];
  EXPECT_EQ(c.op, ConfigChange::Op::kInstall);
  EXPECT_EQ(c.member, 65001u);
  EXPECT_EQ(c.port, 11u);
  EXPECT_EQ(c.rule.action, filter::FilterAction::kDrop);
  EXPECT_EQ(c.rule.match.dst_prefix, P4("100.10.10.10/32"));
  EXPECT_EQ(c.rule.match.src_port->lo, net::kPortNtp);
  EXPECT_EQ(f.controller->stats().signals_decoded, 1u);
  EXPECT_EQ(f.controller->desired().size(), 1u);
}

TEST(ControllerTest, ShapingSignalBecomesShapeRule) {
  ControllerFixture f;
  Signal s = NtpDrop();
  s.shape_rate_mbps = 200.0;
  f.push(P4("100.10.10.10/32"), 1, 65001, s);
  ASSERT_EQ(f.changes.size(), 1u);
  EXPECT_EQ(f.changes[0].rule.action, filter::FilterAction::kShape);
  EXPECT_DOUBLE_EQ(f.changes[0].rule.shape_rate_mbps, 200.0);
}

TEST(ControllerTest, WithdrawEmitsRemoval) {
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  f.withdraw(P4("100.10.10.10/32"), 1);
  ASSERT_EQ(f.changes.size(), 2u);
  EXPECT_EQ(f.changes[1].op, ConfigChange::Op::kRemove);
  EXPECT_EQ(f.changes[1].key, f.changes[0].key);
  EXPECT_TRUE(f.controller->desired().empty());
}

TEST(ControllerTest, EscalationShapeToDropReplacesRule) {
  ControllerFixture f;
  Signal shape = NtpDrop();
  shape.shape_rate_mbps = 200.0;
  f.push(P4("100.10.10.10/32"), 1, 65001, shape);
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());  // Same path, now drop.
  ASSERT_EQ(f.changes.size(), 3u);
  EXPECT_EQ(f.changes[1].op, ConfigChange::Op::kRemove);
  EXPECT_EQ(f.changes[2].op, ConfigChange::Op::kInstall);
  EXPECT_EQ(f.changes[2].rule.action, filter::FilterAction::kDrop);
}

TEST(ControllerTest, IdempotentReprocessing) {
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  const auto count = f.changes.size();
  f.controller->process();
  f.controller->process();
  EXPECT_EQ(f.changes.size(), count);
}

TEST(ControllerTest, MultipleRulesInOneSignal) {
  ControllerFixture f;
  Signal s;
  s.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  s.rules.push_back({RuleKind::kUdpSrcPort, net::kPortDns});
  f.push(P4("100.10.10.10/32"), 1, 65001, s);
  EXPECT_EQ(f.changes.size(), 2u);
}

TEST(ControllerTest, DivergingRulesFromDifferentMembersViaAddPath) {
  // The ADD-PATH corner case of §4.3: the same prefix signaled by two
  // members with different rules — both must be honored.
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  Signal dns;
  dns.rules.push_back({RuleKind::kUdpSrcPort, net::kPortDns});
  f.push(P4("100.10.10.10/32"), 2, 65002, dns);
  ASSERT_EQ(f.changes.size(), 2u);
  EXPECT_EQ(f.changes[0].port, 11u);
  EXPECT_EQ(f.changes[1].port, 12u);
  EXPECT_EQ(f.controller->desired().size(), 2u);
}

TEST(ControllerTest, UnknownMemberIsInvalidSignal) {
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65099, NtpDrop());
  EXPECT_TRUE(f.changes.empty());
  EXPECT_GE(f.controller->stats().invalid_signals, 1u);
}

TEST(ControllerTest, RouteWithoutSignalIsIgnored) {
  ControllerFixture f;
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65001}}};
  u.attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
  u.announced = {{1, P4("60.1.0.0/20")}};
  f.server->announce(u);
  f.settle();
  EXPECT_TRUE(f.changes.empty());
  EXPECT_EQ(f.controller->stats().signals_decoded, 0u);
}

TEST(ControllerTest, PredefinedRuleResolvedThroughPortal) {
  ControllerFixture f;
  Signal s;
  s.rules.push_back({RuleKind::kPredefined, 1});  // Catalog rule 1: NTP.
  f.push(P4("100.10.10.10/32"), 1, 65001, s);
  ASSERT_EQ(f.changes.size(), 1u);
  EXPECT_EQ(f.changes[0].rule.match.src_port->lo, net::kPortNtp);
}

TEST(ControllerTest, UnknownPredefinedIdInvalid) {
  ControllerFixture f;
  Signal s;
  s.rules.push_back({RuleKind::kPredefined, 900});
  f.push(P4("100.10.10.10/32"), 1, 65001, s);
  EXPECT_TRUE(f.changes.empty());
  EXPECT_GE(f.controller->stats().invalid_signals, 1u);
}

TEST(ControllerTest, MultipleInvalidRulesCountOneInvalidSignal) {
  // Regression: invalid_signals counts routes, not rules — a signal carrying
  // two bad predefined ids used to increment twice.
  ControllerFixture f;
  Signal s;
  s.rules.push_back({RuleKind::kPredefined, 900});
  s.rules.push_back({RuleKind::kPredefined, 901});
  f.push(P4("100.10.10.10/32"), 1, 65001, s);
  EXPECT_TRUE(f.changes.empty());
  EXPECT_EQ(f.controller->stats().invalid_signals, 1u);
}

TEST(ControllerTest, AdmissionControlCapsRulesPerPort) {
  ControllerFixture f(/*max_rules_per_port=*/2);
  Signal s;
  s.rules.push_back({RuleKind::kUdpSrcPort, 123});
  s.rules.push_back({RuleKind::kUdpSrcPort, 53});
  s.rules.push_back({RuleKind::kUdpSrcPort, 11211});
  s.rules.push_back({RuleKind::kUdpSrcPort, 389});
  f.push(P4("100.10.10.10/32"), 1, 65001, s);
  EXPECT_EQ(f.changes.size(), 2u);
  EXPECT_GE(f.controller->stats().admission_rejected, 2u);
}

TEST(ControllerTest, AdmissionEvictionIsEmittedBeforeTheInstallThatCausesIt) {
  // Budget 1 on port 11: a rule earlier in RIB order evicts the admitted one.
  // The eviction goes out first, so the port never holds two rules.
  ControllerFixture f(/*max_rules_per_port=*/1);
  f.push(P4("100.10.10.20/32"), 1, 65001, NtpDrop());
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  ASSERT_EQ(f.changes.size(), 3u);
  EXPECT_EQ(f.changes[1].op, ConfigChange::Op::kRemove);
  EXPECT_EQ(f.changes[1].key, f.changes[0].key);
  EXPECT_EQ(f.changes[2].op, ConfigChange::Op::kInstall);
  EXPECT_TRUE(f.changes[2].key.starts_with("100.10.10.10/32|"));
  EXPECT_EQ(f.controller->stats().admission_rejected, 1u);  // The eviction.
  // Withdrawing the winner re-admits the evicted rule; nothing newly rejected.
  f.withdraw(P4("100.10.10.10/32"), 1);
  ASSERT_EQ(f.changes.size(), 5u);
  EXPECT_EQ(f.changes[4].op, ConfigChange::Op::kInstall);
  EXPECT_EQ(f.changes[4].key, f.changes[0].key);
  EXPECT_EQ(f.controller->stats().admission_rejected, 1u);
}

TEST(ControllerTest, SignalWithdrawnAndAnnouncedAgainCountsAgain) {
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  f.withdraw(P4("100.10.10.10/32"), 1);
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  EXPECT_EQ(f.controller->stats().signals_decoded, 2u);
}

TEST(ControllerTest, InvalidPathCountsOnceWhileItsPrefixChurns) {
  // Path 1 is invalid (unknown member); path 2 of the same prefix keeps
  // dirtying the prefix, so path 1 is re-derived every epoch.
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65099, NtpDrop());
  Signal shape = NtpDrop();
  shape.shape_rate_mbps = 200.0;
  f.push(P4("100.10.10.10/32"), 2, 65002, shape);
  f.push(P4("100.10.10.10/32"), 2, 65002, NtpDrop());
  f.withdraw(P4("100.10.10.10/32"), 2);
  EXPECT_EQ(f.controller->stats().invalid_signals, 1u);
  EXPECT_EQ(f.controller->stats().signals_decoded, 2u);
}

TEST(ControllerTest, ReconcileReinstallsMissingRules) {
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  ASSERT_EQ(f.changes.size(), 1u);
  const std::string key = f.changes[0].key;
  // The data plane lost the rule (e.g. a crashed apply mid-resync).
  f.controller->set_installed_view([] { return std::vector<std::string>{}; });
  const auto report = f.controller->reconcile();
  EXPECT_EQ(report.missing_reinstalled, 1u);
  EXPECT_EQ(report.orphans_removed, 0u);
  ASSERT_EQ(f.changes.size(), 2u);
  EXPECT_EQ(f.changes[1].op, ConfigChange::Op::kInstall);
  EXPECT_EQ(f.changes[1].key, key);
  EXPECT_EQ(f.changes[1].port, f.changes[0].port);
  EXPECT_EQ(f.controller->stats().reconciliations, 1u);
  EXPECT_EQ(f.controller->stats().missing_reinstalled, 1u);
}

TEST(ControllerTest, ReconcileRemovesOrphanRules) {
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  ASSERT_EQ(f.changes.size(), 1u);
  const std::string key = f.changes[0].key;
  // The data plane holds the desired rule plus a stale leftover.
  f.controller->set_installed_view(
      [key] { return std::vector<std::string>{key, "stale/ghost-rule"}; });
  const auto report = f.controller->reconcile();
  EXPECT_EQ(report.orphans_removed, 1u);
  EXPECT_EQ(report.missing_reinstalled, 0u);
  ASSERT_EQ(f.changes.size(), 2u);
  EXPECT_EQ(f.changes[1].op, ConfigChange::Op::kRemove);
  EXPECT_EQ(f.changes[1].key, "stale/ghost-rule");
  EXPECT_EQ(f.controller->stats().orphans_removed, 1u);
}

TEST(ControllerTest, ReconcileOnConsistentStateIsANoop) {
  ControllerFixture f;
  f.push(P4("100.10.10.10/32"), 1, 65001, NtpDrop());
  const std::string key = f.changes[0].key;
  f.controller->set_installed_view([key] { return std::vector<std::string>{key}; });
  const auto report = f.controller->reconcile();
  EXPECT_EQ(report.orphans_removed, 0u);
  EXPECT_EQ(report.missing_reinstalled, 0u);
  EXPECT_EQ(f.changes.size(), 1u);  // Nothing re-emitted.
}

TEST(ControllerTest, PeriodicProcessingRunsWithoutExplicitCalls) {
  ControllerFixture f;
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65001}}};
  u.attrs.next_hop = net::IPv4Address(10, 99, 1, 1);
  u.attrs.extended_communities = EncodeSignal(kIxp, NtpDrop()).value();
  u.announced = {{1, P4("100.10.10.10/32")}};
  f.server->announce(u);
  // Only advance the clock: the periodic process() timer must pick the change up.
  f.queue.run_until(f.queue.now() + sim::Seconds(5.0));
  EXPECT_EQ(f.changes.size(), 1u);
}

}  // namespace
}  // namespace stellar::core
