#include "traffic/collector.hpp"

#include <gtest/gtest.h>

#include "net/ports.hpp"

namespace stellar::traffic {
namespace {

net::FlowSample Sample(double t, net::IpProto proto, std::uint16_t src_port,
                       std::uint16_t dst_port, std::uint64_t bytes, std::uint32_t src_asn = 65001) {
  net::FlowSample s;
  s.time_s = t;
  s.key.src_mac = net::MacAddress::ForRouter(src_asn);
  s.key.src_ip = net::IPv4Address(1, 2, 3, 4);
  s.key.dst_ip = net::IPv4Address(100, 10, 10, 10);
  s.key.proto = proto;
  s.key.src_port = src_port;
  s.key.dst_port = dst_port;
  s.bytes = bytes;
  s.packets = 1;
  return s;
}

TEST(ServicePortTest, PrefersKnownSourcePort) {
  // Amplification responses: service port on the source side.
  EXPECT_EQ(ServicePort(Sample(0, net::IpProto::kUdp, 11211, 4444, 1).key), 11211);
  EXPECT_EQ(ServicePort(Sample(0, net::IpProto::kUdp, 123, 4444, 1).key), 123);
}

TEST(ServicePortTest, FallsBackToKnownDstPort) {
  // Client->server web traffic: service port on the destination side.
  EXPECT_EQ(ServicePort(Sample(0, net::IpProto::kTcp, 50000, 443, 1).key), 443);
}

TEST(ServicePortTest, UnknownPortsUseMinimum) {
  EXPECT_EQ(ServicePort(Sample(0, net::IpProto::kUdp, 40000, 30000, 1).key), 30000);
}

TEST(ServicePortTest, BothPortsKnownPrefersSource) {
  // An NTP response towards an HTTPS port: both sides are well-known, and
  // the source side wins — amplification responses are response streams, so
  // the reflector's service port is the signature.
  EXPECT_EQ(ServicePort(Sample(0, net::IpProto::kUdp, 123, 443, 1).key), 123);
  EXPECT_EQ(ServicePort(Sample(0, net::IpProto::kTcp, 443, 123, 1).key), 443);
}

TEST(FlowCollectorTest, BinsByTime) {
  FlowCollector c(60.0);
  c.ingest(Sample(10.0, net::IpProto::kTcp, 50000, 443, 7'500'000));   // 1 Mbps over 60 s.
  c.ingest(Sample(70.0, net::IpProto::kTcp, 50000, 443, 15'000'000));  // 2 Mbps.
  ASSERT_EQ(c.bins().size(), 2u);
  EXPECT_EQ(c.bins().at(0).bytes, 7'500'000u);
  EXPECT_DOUBLE_EQ(c.bins().at(1).start_s, 60.0);
  EXPECT_EQ(c.bins().at(1).bytes, 15'000'000u);
}

TEST(FlowCollectorTest, ServicePortShares) {
  FlowCollector c(10.0);
  c.ingest(Sample(1.0, net::IpProto::kUdp, 11211, 4444, 900));
  c.ingest(Sample(2.0, net::IpProto::kTcp, 50000, 443, 100));
  const auto shares = c.service_port_shares(0.0, 10.0);
  EXPECT_NEAR(shares.at(11211), 0.9, 1e-9);
  EXPECT_NEAR(shares.at(443), 0.1, 1e-9);
}

TEST(FlowCollectorTest, WindowBoundariesAreHalfOpen) {
  FlowCollector c(10.0);
  c.ingest(Sample(5.0, net::IpProto::kUdp, 123, 1, 100));
  c.ingest(Sample(15.0, net::IpProto::kUdp, 123, 1, 200));
  EXPECT_EQ(c.total_bytes(0.0, 10.0), 100u);
  EXPECT_EQ(c.total_bytes(0.0, 20.0), 300u);
  EXPECT_EQ(c.total_bytes(10.0, 20.0), 200u);
}

TEST(FlowCollectorTest, SamplesOnBinEdgesLandInLaterBin) {
  // A sample at exactly t = k * bin_s opens bin k: it is excluded from
  // [.., k*bin_s) and included in [k*bin_s, ..). Windows aligned to bin
  // edges therefore partition the stream with no double counting.
  FlowCollector c(10.0);
  c.ingest(Sample(0.0, net::IpProto::kUdp, 123, 1, 1));
  c.ingest(Sample(10.0, net::IpProto::kUdp, 123, 1, 2));
  c.ingest(Sample(20.0, net::IpProto::kUdp, 123, 1, 4));
  EXPECT_EQ(c.total_bytes(0.0, 10.0), 1u);
  EXPECT_EQ(c.total_bytes(10.0, 20.0), 2u);
  EXPECT_EQ(c.total_bytes(20.0, 30.0), 4u);
  EXPECT_EQ(c.total_bytes(0.0, 30.0), 7u);
  // A window starting mid-bin snaps to that bin's start (bins are atomic).
  EXPECT_EQ(c.total_bytes(15.0, 30.0), 6u);
}

TEST(FlowCollectorTest, EmptyWindowAggregatesAcrossAllQueries) {
  FlowCollector c(10.0);
  c.ingest(Sample(100.0, net::IpProto::kUdp, 123, 1, 50));
  // A window strictly before any data: every aggregate must be empty/zero,
  // including the ones EmptyWindowsReturnZeros does not cover.
  EXPECT_TRUE(c.udp_src_port_shares(0.0, 50.0).empty());
  // Degenerate window [t, t): nothing qualifies.
  EXPECT_EQ(c.total_bytes(100.0, 100.0), 0u);
}

TEST(FlowCollectorTest, UdpSrcPortShares) {
  FlowCollector c(10.0);
  c.ingest(Sample(1.0, net::IpProto::kUdp, 123, 1, 600));
  c.ingest(Sample(1.0, net::IpProto::kUdp, 53, 1, 300));
  c.ingest(Sample(1.0, net::IpProto::kTcp, 443, 1, 100));
  const auto shares = c.udp_src_port_shares(0.0, 10.0);
  EXPECT_NEAR(shares.at(123), 0.6, 1e-9);
  EXPECT_NEAR(shares.at(53), 0.3, 1e-9);
  EXPECT_FALSE(shares.contains(443));  // TCP traffic is not a UDP source port.
}

TEST(FlowCollectorTest, ProtocolShares) {
  FlowCollector c(10.0);
  c.ingest(Sample(1.0, net::IpProto::kUdp, 123, 1, 999));
  c.ingest(Sample(1.0, net::IpProto::kTcp, 443, 1, 1));
  const auto [udp, tcp] = c.protocol_shares(0.0, 10.0);
  EXPECT_NEAR(udp, 0.999, 1e-9);
  EXPECT_NEAR(tcp, 0.001, 1e-9);
}

TEST(FlowCollectorTest, EmptyWindowsReturnZeros) {
  FlowCollector c(10.0);
  EXPECT_EQ(c.total_bytes(0.0, 100.0), 0u);
  EXPECT_TRUE(c.service_port_shares(0.0, 100.0).empty());
  const auto [udp, tcp] = c.protocol_shares(0.0, 100.0);
  EXPECT_DOUBLE_EQ(udp, 0.0);
  EXPECT_DOUBLE_EQ(tcp, 0.0);
}

TEST(FlowCollectorTest, SpanIngest) {
  FlowCollector c(10.0);
  std::vector<net::FlowSample> batch{Sample(1.0, net::IpProto::kUdp, 123, 1, 100),
                                     Sample(2.0, net::IpProto::kUdp, 53, 1, 100)};
  c.ingest(batch);
  EXPECT_EQ(c.total_bytes(0.0, 10.0), 200u);
}

}  // namespace
}  // namespace stellar::traffic
