#include "ixp/fabric.hpp"

#include <gtest/gtest.h>

#include "net/ports.hpp"

namespace stellar::ixp {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

net::FlowSample Flow(std::uint32_t src_asn, net::IPv4Address dst, double mbps,
                     std::uint16_t src_port = 443, net::IpProto proto = net::IpProto::kTcp) {
  net::FlowSample s;
  s.key.src_mac = net::MacAddress::ForRouter(src_asn);
  s.key.src_ip = net::IPv4Address(60, 0, 0, 1);
  s.key.dst_ip = dst;
  s.key.proto = proto;
  s.key.src_port = src_port;
  s.key.dst_port = 5555;
  s.bytes = static_cast<std::uint64_t>(mbps * 1e6 / 8.0);
  return s;
}

struct FabricFixture {
  filter::EdgeRouter er{"er1", filter::TcamLimits{}};
  Fabric fabric{er};

  FabricFixture() {
    er.add_port(1, 1000.0);
    er.add_port(2, 10'000.0);
    fabric.register_owner(P4("100.10.10.0/24"), 1);
    fabric.register_owner(P4("60.2.0.0/20"), 2);
  }
};

TEST(FabricTest, LongestPrefixMatchWins) {
  FabricFixture f;
  f.fabric.register_owner(P4("100.10.10.128/25"), 2);
  filter::PortId port = 0;
  ASSERT_TRUE(f.fabric.lookup_egress(net::IPv4Address(100, 10, 10, 200), port));
  EXPECT_EQ(port, 2u);
  ASSERT_TRUE(f.fabric.lookup_egress(net::IPv4Address(100, 10, 10, 5), port));
  EXPECT_EQ(port, 1u);
}

TEST(FabricTest, DefaultOwnerCatchesWhatNoMoreSpecificOwns) {
  FabricFixture f;
  f.fabric.register_owner(net::Prefix4(), 2);
  filter::PortId port = 0;
  ASSERT_TRUE(f.fabric.lookup_egress(net::IPv4Address(9, 9, 9, 9), port));
  EXPECT_EQ(port, 2u);
  ASSERT_TRUE(f.fabric.lookup_egress(net::IPv4Address(100, 10, 10, 5), port));
  EXPECT_EQ(port, 1u);
}

TEST(FabricTest, HostRouteOwner) {
  FabricFixture f;
  f.fabric.register_owner(P4("100.10.10.77/32"), 2);
  filter::PortId port = 0;
  ASSERT_TRUE(f.fabric.lookup_egress(net::IPv4Address(100, 10, 10, 77), port));
  EXPECT_EQ(port, 2u);
  ASSERT_TRUE(f.fabric.lookup_egress(net::IPv4Address(100, 10, 10, 78), port));
  EXPECT_EQ(port, 1u);
}

TEST(FabricTest, DuplicateOwnerKeepsFirstPort) {
  FabricFixture f;
  f.fabric.register_owner(P4("100.10.10.0/24"), 2);
  filter::PortId port = 0;
  ASSERT_TRUE(f.fabric.lookup_egress(net::IPv4Address(100, 10, 10, 5), port));
  EXPECT_EQ(port, 1u);
}

TEST(FabricTest, OwnerRegisteredBetweenBinsTakesEffectNextBin) {
  FabricFixture f;
  const std::vector<net::FlowSample> offered{Flow(65009, net::IPv4Address(9, 9, 9, 9), 100)};
  const auto before = f.fabric.deliver(offered, 1.0);
  EXPECT_NEAR(before.unrouted_mbps, 100.0, 1.0);
  EXPECT_TRUE(before.per_port.empty());

  f.fabric.register_owner(P4("9.9.9.0/24"), 2);
  const auto after = f.fabric.deliver(offered, 1.0);
  EXPECT_DOUBLE_EQ(after.unrouted_mbps, 0.0);
  EXPECT_NEAR(after.delivered_mbps, 100.0, 1.0);
  ASSERT_EQ(after.per_port.size(), 1u);
  EXPECT_NEAR(after.per_port.at(2).delivered_mbps, 100.0, 1.0);
}

TEST(FabricTest, UnroutedTrafficCounted) {
  FabricFixture f;
  const std::vector<net::FlowSample> offered{Flow(65009, net::IPv4Address(9, 9, 9, 9), 100)};
  const auto report = f.fabric.deliver(offered, 1.0);
  EXPECT_NEAR(report.unrouted_mbps, 100.0, 1.0);
  EXPECT_DOUBLE_EQ(report.delivered_mbps, 0.0);
}

TEST(FabricTest, DeliversToOwnerPort) {
  FabricFixture f;
  const std::vector<net::FlowSample> offered{
      Flow(65009, net::IPv4Address(100, 10, 10, 10), 100),
      Flow(65009, net::IPv4Address(60, 2, 0, 5), 200)};
  const auto report = f.fabric.deliver(offered, 1.0);
  EXPECT_NEAR(report.delivered_mbps, 300.0, 1.0);
  EXPECT_EQ(report.per_port.size(), 2u);
  EXPECT_NEAR(report.per_port.at(1).delivered_mbps, 100.0, 1.0);
  EXPECT_NEAR(report.per_port.at(2).delivered_mbps, 200.0, 1.0);
}

TEST(FabricTest, PortCongestionAppliesPerEgress) {
  FabricFixture f;
  const std::vector<net::FlowSample> offered{
      Flow(65009, net::IPv4Address(100, 10, 10, 10), 2000)};  // 2 Gbps into 1 Gbps port.
  const auto report = f.fabric.deliver(offered, 1.0);
  EXPECT_NEAR(report.delivered_mbps, 1000.0, 5.0);
  EXPECT_NEAR(report.congestion_dropped_mbps, 1000.0, 5.0);
}

TEST(FabricTest, IngressBlackholeDropsBeforePlatform) {
  FabricFixture f;
  const auto honored_mac = net::MacAddress::ForRouter(65008);
  f.fabric.set_ingress_blackhole_fn(
      [&](const net::MacAddress& mac, net::IPv4Address dst) {
        return mac == honored_mac && dst == net::IPv4Address(100, 10, 10, 10);
      });
  const std::vector<net::FlowSample> offered{
      Flow(65008, net::IPv4Address(100, 10, 10, 10), 300),
      Flow(65009, net::IPv4Address(100, 10, 10, 10), 300)};
  const auto report = f.fabric.deliver(offered, 1.0);
  EXPECT_NEAR(report.rtbh_dropped_mbps, 300.0, 1.0);
  EXPECT_NEAR(report.delivered_mbps, 300.0, 1.0);
  ASSERT_EQ(report.rtbh_dropped_peers.size(), 1u);
  EXPECT_TRUE(report.rtbh_dropped_peers.contains(honored_mac));
}

TEST(FabricTest, EgressQosRulesApply) {
  FabricFixture f;
  filter::FilterRule rule;
  rule.match.proto = net::IpProto::kUdp;
  rule.match.src_port = filter::PortRange::Single(net::kPortNtp);
  rule.action = filter::FilterAction::kDrop;
  ASSERT_TRUE(f.er.install_rule(1, rule).ok());
  const std::vector<net::FlowSample> offered{
      Flow(65009, net::IPv4Address(100, 10, 10, 10), 500, net::kPortNtp, net::IpProto::kUdp),
      Flow(65009, net::IPv4Address(100, 10, 10, 10), 100)};
  const auto report = f.fabric.deliver(offered, 1.0);
  EXPECT_NEAR(report.rule_dropped_mbps, 500.0, 1.0);
  EXPECT_NEAR(report.delivered_mbps, 100.0, 1.0);
}

TEST(FabricTest, DeliveredSamplesPreserveFlowIdentity) {
  FabricFixture f;
  const auto flow = Flow(65009, net::IPv4Address(100, 10, 10, 10), 100);
  const auto report = f.fabric.deliver({&flow, 1}, 1.0);
  ASSERT_EQ(report.delivered.size(), 1u);
  EXPECT_EQ(report.delivered[0].key, flow.key);
}

TEST(FabricTest, PerPortTotalsSumToDeliveredAndFlowsAreStoredOnce) {
  FabricFixture f;
  // Arrival order interleaves the two ports; port 1 (1 Gbps) congests.
  const std::vector<net::FlowSample> offered{
      Flow(65009, net::IPv4Address(60, 2, 0, 5), 200),
      Flow(65009, net::IPv4Address(100, 10, 10, 10), 700),
      Flow(65009, net::IPv4Address(60, 2, 0, 6), 300),
      Flow(65009, net::IPv4Address(100, 10, 10, 11), 600)};
  const auto report = f.fabric.deliver(offered, 1.0);
  double per_port_sum = 0.0;
  for (const auto& [port, result] : report.per_port) {
    per_port_sum += result.delivered_mbps;
    EXPECT_TRUE(result.delivered.empty()) << "port " << port;
  }
  EXPECT_DOUBLE_EQ(per_port_sum, report.delivered_mbps);
  EXPECT_GT(report.congestion_dropped_mbps, 0.0);
  // Ascending egress port, then arrival order within a port.
  ASSERT_EQ(report.delivered.size(), 4u);
  EXPECT_EQ(report.delivered[0].key.dst_ip, net::IPv4Address(100, 10, 10, 10));
  EXPECT_EQ(report.delivered[1].key.dst_ip, net::IPv4Address(100, 10, 10, 11));
  EXPECT_EQ(report.delivered[2].key.dst_ip, net::IPv4Address(60, 2, 0, 5));
  EXPECT_EQ(report.delivered[3].key.dst_ip, net::IPv4Address(60, 2, 0, 6));
}

TEST(FabricTest, ConservationAcrossAllDropClasses) {
  FabricFixture f;
  f.fabric.set_ingress_blackhole_fn(
      [](const net::MacAddress& mac, net::IPv4Address) {
        return mac == net::MacAddress::ForRouter(65008);
      });
  filter::FilterRule rule;
  rule.match.proto = net::IpProto::kUdp;
  rule.action = filter::FilterAction::kDrop;
  ASSERT_TRUE(f.er.install_rule(1, rule).ok());
  const std::vector<net::FlowSample> offered{
      Flow(65008, net::IPv4Address(100, 10, 10, 10), 100),  // RTBH.
      Flow(65009, net::IPv4Address(100, 10, 10, 10), 200, 123, net::IpProto::kUdp),  // Rule.
      Flow(65009, net::IPv4Address(100, 10, 10, 10), 1500),  // Congestion (1 Gbps port).
      Flow(65009, net::IPv4Address(9, 9, 9, 9), 50)};        // Unrouted.
  const auto report = f.fabric.deliver(offered, 1.0);
  EXPECT_NEAR(report.offered_mbps,
              report.delivered_mbps + report.unrouted_mbps + report.rtbh_dropped_mbps +
                  report.rule_dropped_mbps + report.shaper_dropped_mbps +
                  report.congestion_dropped_mbps,
              1.0);
}

}  // namespace
}  // namespace stellar::ixp
