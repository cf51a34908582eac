#include "core/signal.hpp"

#include <gtest/gtest.h>

#include "net/ports.hpp"

namespace stellar::core {
namespace {

constexpr std::uint16_t kIxp = 64500;

TEST(SignalCodecTest, PaperExampleUdpSrc123) {
  // §5.3: "IXP:2:123 — 2 refers to UDP source traffic and 123 to port 123".
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, 123});
  const auto ecs = EncodeSignal(kIxp, signal).value();
  ASSERT_EQ(ecs.size(), 1u);
  EXPECT_EQ(ecs[0].as_number(), kIxp);
  EXPECT_EQ(ecs[0].subtype(), kStellarMatchSubtype);
  EXPECT_EQ(ecs[0].local_admin() >> 24, 2u);
  EXPECT_EQ(ecs[0].local_admin() & 0xffff, 123u);

  const auto decoded = DecodeSignal(kIxp, ecs);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, signal);
}

TEST(SignalCodecTest, ShapingActionRoundTrip) {
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, 123});
  signal.shape_rate_mbps = 200.0;
  EXPECT_TRUE(signal.is_shaping());
  const auto ecs = EncodeSignal(kIxp, signal).value();
  ASSERT_EQ(ecs.size(), 2u);
  const auto decoded = DecodeSignal(kIxp, ecs);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, signal);
}

TEST(SignalCodecTest, DropIsDefaultAction) {
  Signal signal;
  signal.rules.push_back({RuleKind::kDropAll, 0});
  EXPECT_FALSE(signal.is_shaping());
  EXPECT_EQ(EncodeSignal(kIxp, signal).value().size(), 1u);  // No action community.
}

TEST(SignalCodecTest, MultipleRulesSortedAndDeduplicated) {
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, 123});
  signal.rules.push_back({RuleKind::kUdpSrcPort, 53});
  signal.rules.push_back({RuleKind::kUdpSrcPort, 123});  // Duplicate.
  const auto decoded = DecodeSignal(kIxp, EncodeSignal(kIxp, signal).value());
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->rules.size(), 2u);
  EXPECT_EQ(decoded->rules[0].value, 53);
  EXPECT_EQ(decoded->rules[1].value, 123);
}

TEST(SignalCodecTest, IgnoresForeignNamespaces) {
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, 123});
  auto ecs = EncodeSignal(kIxp, signal).value();
  // Another IXP's community and a route target must be ignored.
  ecs.push_back(bgp::ExtendedCommunity::TwoOctetAs(kStellarMatchSubtype, 64999,
                                                   (2u << 24) | 53));
  ecs.push_back(bgp::ExtendedCommunity::TwoOctetAs(
      bgp::ExtendedCommunity::kSubTypeRouteTarget, kIxp, 1));
  const auto decoded = DecodeSignal(kIxp, ecs);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rules.size(), 1u);
  EXPECT_FALSE(decoded->is_shaping());
}

TEST(SignalCodecTest, RouteDecodeTellsNoSignalApart) {
  // nullopt: the route carries no community of the IXP's Stellar namespace.
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, 123});
  const auto ecs = EncodeSignal(kIxp, signal).value();
  EXPECT_TRUE(DecodeRouteSignal(kIxp, ecs, {}).value().has_value());
  EXPECT_FALSE(DecodeRouteSignal(64999, ecs, {}).value().has_value());
  EXPECT_FALSE(DecodeRouteSignal(kIxp, {}, {}).value().has_value());
}

TEST(SignalCodecTest, RejectsUnknownKind) {
  const auto ec =
      bgp::ExtendedCommunity::TwoOctetAs(kStellarMatchSubtype, kIxp, (99u << 24) | 1);
  EXPECT_FALSE(DecodeSignal(kIxp, {&ec, 1}).ok());
}

TEST(SignalCodecTest, RejectsReservedByte) {
  const auto ec = bgp::ExtendedCommunity::TwoOctetAs(kStellarMatchSubtype, kIxp,
                                                     (2u << 24) | (1u << 16) | 123);
  EXPECT_FALSE(DecodeSignal(kIxp, {&ec, 1}).ok());
}

TEST(ToMatchCriteriaTest, UdpSrcPort) {
  const auto victim = net::Prefix4::Parse("100.10.10.10/32").value();
  const auto m = ToMatchCriteria({RuleKind::kUdpSrcPort, 123}, victim);
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->dst_prefix, victim);
  EXPECT_EQ(m->proto, net::IpProto::kUdp);
  ASSERT_TRUE(m->src_port.has_value());
  EXPECT_EQ(m->src_port->lo, 123);
  EXPECT_EQ(m->src_port->hi, 123);
}

TEST(ToMatchCriteriaTest, AllKinds) {
  const auto victim = net::Prefix4::Parse("100.10.10.10/32").value();

  const auto drop_all = ToMatchCriteria({RuleKind::kDropAll, 0}, victim);
  ASSERT_TRUE(drop_all.ok());
  EXPECT_FALSE(drop_all->proto.has_value());
  EXPECT_EQ(drop_all->l3l4_criteria_count(), 1);  // Only dst prefix.

  const auto proto = ToMatchCriteria({RuleKind::kProtocol, 17}, victim);
  ASSERT_TRUE(proto.ok());
  EXPECT_EQ(proto->proto, net::IpProto::kUdp);

  const auto tcp_dst = ToMatchCriteria({RuleKind::kTcpDstPort, 80}, victim);
  ASSERT_TRUE(tcp_dst.ok());
  EXPECT_EQ(tcp_dst->proto, net::IpProto::kTcp);
  EXPECT_EQ(tcp_dst->dst_port->lo, 80);

  const auto udp_dst = ToMatchCriteria({RuleKind::kUdpDstPort, 443}, victim);
  ASSERT_TRUE(udp_dst.ok());
  EXPECT_EQ(udp_dst->dst_port->lo, 443);

  const auto tcp_src = ToMatchCriteria({RuleKind::kTcpSrcPort, 179}, victim);
  ASSERT_TRUE(tcp_src.ok());
  EXPECT_EQ(tcp_src->src_port->lo, 179);
}

TEST(ToMatchCriteriaTest, PredefinedNeedsPortal) {
  const auto victim = net::Prefix4::Parse("100.10.10.10/32").value();
  EXPECT_FALSE(ToMatchCriteria({RuleKind::kPredefined, 1}, victim).ok());
}

TEST(SignalRuleTest, Str) {
  EXPECT_EQ((SignalRule{RuleKind::kUdpSrcPort, 123}).str(), "udp-src-port:123");
  EXPECT_EQ((SignalRule{RuleKind::kDropAll, 0}).str(), "drop-all:0");
}

// Property sweep: encode/decode round-trips for every kind/value combination.
class SignalRoundTripTest
    : public ::testing::TestWithParam<std::tuple<RuleKind, std::uint16_t>> {};

TEST_P(SignalRoundTripTest, RoundTrip) {
  Signal signal;
  signal.rules.push_back({std::get<0>(GetParam()), std::get<1>(GetParam())});
  if (std::get<1>(GetParam()) % 2 == 0) signal.shape_rate_mbps = 500.0;
  const auto decoded = DecodeSignal(kIxp, EncodeSignal(kIxp, signal).value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, signal);
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndValues, SignalRoundTripTest,
    ::testing::Combine(::testing::Values(RuleKind::kDropAll, RuleKind::kProtocol,
                                         RuleKind::kUdpSrcPort, RuleKind::kUdpDstPort,
                                         RuleKind::kTcpSrcPort, RuleKind::kTcpDstPort,
                                         RuleKind::kPredefined),
                       ::testing::Values(0, 1, 53, 123, 11211, 65535)));

}  // namespace
}  // namespace stellar::core
