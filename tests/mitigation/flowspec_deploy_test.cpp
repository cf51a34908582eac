#include "mitigation/flowspec_deploy.hpp"

#include <gtest/gtest.h>

#include "net/ports.hpp"

namespace stellar::mitigation {
namespace {

bgp::flowspec::Rule NtpRule() {
  bgp::flowspec::Rule rule;
  rule.components.push_back({bgp::flowspec::ComponentType::kDstPrefix,
                             net::Prefix4::Parse("100.10.10.10/32").value(),
                             {}});
  rule.components.push_back(
      {bgp::flowspec::ComponentType::kIpProtocol, {}, {bgp::flowspec::Eq(17)}});
  rule.components.push_back(
      {bgp::flowspec::ComponentType::kSrcPort, {}, {bgp::flowspec::Eq(net::kPortNtp)}});
  return rule;
}

net::FlowKey NtpFlow() {
  net::FlowKey k;
  k.src_ip = net::IPv4Address(1, 2, 3, 4);
  k.dst_ip = net::IPv4Address(100, 10, 10, 10);
  k.proto = net::IpProto::kUdp;
  k.src_port = net::kPortNtp;
  k.dst_port = 5555;
  return k;
}

std::vector<bgp::Asn> Peers(int n) {
  std::vector<bgp::Asn> out;
  for (int i = 0; i < n; ++i) out.push_back(static_cast<bgp::Asn>(65001 + i));
  return out;
}

TEST(InterdomainFlowspecTest, AcceptanceFractionApproximatesProbability) {
  InterdomainFlowspec fs(Peers(400), 0.15, 42);
  EXPECT_NEAR(static_cast<double>(fs.accepting_peers()) / 400.0, 0.15, 0.06);
}

TEST(InterdomainFlowspecTest, ZeroAndFullAcceptance) {
  InterdomainFlowspec none(Peers(50), 0.0, 1);
  EXPECT_EQ(none.accepting_peers(), 0u);
  InterdomainFlowspec all(Peers(50), 1.0, 1);
  EXPECT_EQ(all.accepting_peers(), 50u);
}

TEST(InterdomainFlowspecTest, OnlyAcceptingPeersFilter) {
  InterdomainFlowspec fs(Peers(100), 0.5, 7);
  const std::size_t installed = fs.announce(NtpRule(), bgp::flowspec::Action{0.0f});
  EXPECT_EQ(installed, fs.accepting_peers());
  int droppers = 0;
  for (bgp::Asn peer : Peers(100)) {
    if (fs.peer_drops(peer, NtpFlow())) ++droppers;
  }
  EXPECT_EQ(static_cast<std::size_t>(droppers), installed);
}

TEST(InterdomainFlowspecTest, NonMatchingFlowNotDropped) {
  InterdomainFlowspec fs(Peers(10), 1.0, 7);
  fs.announce(NtpRule(), bgp::flowspec::Action{0.0f});
  auto flow = NtpFlow();
  flow.src_port = 53;
  for (bgp::Asn peer : Peers(10)) EXPECT_FALSE(fs.peer_drops(peer, flow));
}

TEST(InterdomainFlowspecTest, RateLimitActionIsNotADrop) {
  InterdomainFlowspec fs(Peers(10), 1.0, 7);
  fs.announce(NtpRule(), bgp::flowspec::Action{1'000'000.0f});
  for (bgp::Asn peer : Peers(10)) EXPECT_FALSE(fs.peer_drops(peer, NtpFlow()));
}

TEST(InterdomainFlowspecTest, UnknownPeerNeverFilters) {
  InterdomainFlowspec fs(Peers(2), 1.0, 7);
  fs.announce(NtpRule(), bgp::flowspec::Action{0.0f});
  EXPECT_FALSE(fs.peer_drops(60'000, NtpFlow()));
}

TEST(InterdomainFlowspecTest, UnencodableRuleThrows) {
  InterdomainFlowspec fs(Peers(2), 1.0, 7);
  EXPECT_THROW(fs.announce(bgp::flowspec::Rule{}, bgp::flowspec::Action{0.0f}),
               std::invalid_argument);
}

TEST(InterdomainFlowspecTest, DeterministicAcceptanceBySeed) {
  InterdomainFlowspec a(Peers(100), 0.3, 9);
  InterdomainFlowspec b(Peers(100), 0.3, 9);
  a.announce(NtpRule(), bgp::flowspec::Action{0.0f});
  b.announce(NtpRule(), bgp::flowspec::Action{0.0f});
  for (bgp::Asn peer : Peers(100)) {
    EXPECT_EQ(a.peer_drops(peer, NtpFlow()), b.peer_drops(peer, NtpFlow()));
  }
}

}  // namespace
}  // namespace stellar::mitigation
