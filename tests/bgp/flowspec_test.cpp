#include "bgp/flowspec.hpp"

#include <gtest/gtest.h>

#include "net/ports.hpp"
#include "util/rng.hpp"

namespace stellar::bgp::flowspec {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

Rule NtpToVictimRule() {
  Rule rule;
  rule.components.push_back({ComponentType::kDstPrefix, P4("100.10.10.10/32"), {}});
  rule.components.push_back({ComponentType::kIpProtocol, {}, {Eq(17)}});
  rule.components.push_back({ComponentType::kSrcPort, {}, {Eq(net::kPortNtp)}});
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

TEST(FlowspecCodecTest, RoundTripSimpleRule) {
  const Rule rule = NtpToVictimRule();
  const auto encoded = EncodeNlri(rule);
  ASSERT_TRUE(encoded.ok());
  const auto decoded = DecodeNlri(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rule, rule);
  EXPECT_EQ(decoded->consumed, encoded->size());
}

TEST(FlowspecCodecTest, RoundTripRangeOperators) {
  Rule rule;
  rule.components.push_back({ComponentType::kDstPrefix, P4("10.0.0.0/8"), {}});
  rule.components.push_back({ComponentType::kDstPort, {}, Range(1024, 2048)});
  const auto encoded = EncodeNlri(rule);
  ASSERT_TRUE(encoded.ok());
  const auto decoded = DecodeNlri(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rule, rule);
}

TEST(FlowspecCodecTest, MultiByteValuesUseWiderEncoding) {
  Rule rule;
  rule.components.push_back({ComponentType::kPacketLength, {}, {Eq(1500)}});
  const auto encoded = EncodeNlri(rule);
  ASSERT_TRUE(encoded.ok());
  const auto decoded = DecodeNlri(*encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rule.components[0].ops[0].value, 1500u);
}

TEST(FlowspecCodecTest, RejectsOutOfOrderComponents) {
  Rule rule;
  rule.components.push_back({ComponentType::kSrcPort, {}, {Eq(123)}});
  rule.components.push_back({ComponentType::kDstPrefix, P4("1.0.0.0/8"), {}});
  EXPECT_FALSE(EncodeNlri(rule).ok());
}

TEST(FlowspecCodecTest, RejectsEmptyRule) { EXPECT_FALSE(EncodeNlri(Rule{}).ok()); }

TEST(FlowspecCodecTest, RejectsNumericComponentWithoutOps) {
  Rule rule;
  rule.components.push_back({ComponentType::kSrcPort, {}, {}});
  EXPECT_FALSE(EncodeNlri(rule).ok());
}

TEST(FlowspecCodecTest, DecodeRejectsTruncatedOps) {
  const Rule rule = NtpToVictimRule();
  auto encoded = EncodeNlri(rule).value();
  encoded[0] = static_cast<std::uint8_t>(encoded.size() - 2);  // Lie about length.
  encoded.resize(encoded.size() - 1);
  EXPECT_FALSE(DecodeNlri(encoded).ok());
}

TEST(FlowspecMatchTest, MatchesIntendedFlow) {
  const Rule rule = NtpToVictimRule();
  EXPECT_TRUE(rule.matches(NtpFlow()));
}

TEST(FlowspecMatchTest, RejectsWrongPortProtoDst) {
  const Rule rule = NtpToVictimRule();
  auto wrong_port = NtpFlow();
  wrong_port.src_port = 53;
  EXPECT_FALSE(rule.matches(wrong_port));
  auto wrong_proto = NtpFlow();
  wrong_proto.proto = net::IpProto::kTcp;
  EXPECT_FALSE(rule.matches(wrong_proto));
  auto wrong_dst = NtpFlow();
  wrong_dst.dst_ip = net::IPv4Address(100, 10, 10, 11);
  EXPECT_FALSE(rule.matches(wrong_dst));
}

TEST(FlowspecMatchTest, RangeMatchesInclusive) {
  Rule rule;
  rule.components.push_back({ComponentType::kDstPort, {}, Range(1000, 2000)});
  auto flow = NtpFlow();
  flow.dst_port = 1000;
  EXPECT_TRUE(rule.matches(flow));
  flow.dst_port = 2000;
  EXPECT_TRUE(rule.matches(flow));
  flow.dst_port = 999;
  EXPECT_FALSE(rule.matches(flow));
  flow.dst_port = 2001;
  EXPECT_FALSE(rule.matches(flow));
}

TEST(FlowspecMatchTest, OrOfEqualities) {
  // port == 123 OR port == 53.
  Rule rule;
  Component c;
  c.type = ComponentType::kSrcPort;
  c.ops = {Eq(123), Eq(53)};
  rule.components.push_back(c);
  auto flow = NtpFlow();
  EXPECT_TRUE(rule.matches(flow));
  flow.src_port = 53;
  EXPECT_TRUE(rule.matches(flow));
  flow.src_port = 80;
  EXPECT_FALSE(rule.matches(flow));
}

TEST(FlowspecMatchTest, PortComponentMatchesEitherDirection) {
  Rule rule;
  rule.components.push_back({ComponentType::kPort, {}, {Eq(123)}});
  auto flow = NtpFlow();  // src_port = 123.
  EXPECT_TRUE(rule.matches(flow));
  flow.src_port = 9;
  flow.dst_port = 123;
  EXPECT_TRUE(rule.matches(flow));
  flow.dst_port = 9;
  EXPECT_FALSE(rule.matches(flow));
}

// Property: random well-formed rules round-trip through the codec.
class FlowspecRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowspecRoundTripTest, RandomRules) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 100; ++iter) {
    Rule rule;
    if (rng.chance(0.8)) {
      rule.components.push_back(
          {ComponentType::kDstPrefix,
           net::Prefix4(
               net::IPv4Address(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffll))),
               static_cast<std::uint8_t>(rng.uniform_int(0, 32))),
           {}});
    }
    if (rng.chance(0.5)) {
      rule.components.push_back({ComponentType::kIpProtocol, {}, {Eq(rng.chance(0.5) ? 17 : 6)}});
    }
    if (rng.chance(0.7)) {
      Component c;
      c.type = ComponentType::kSrcPort;
      if (rng.chance(0.5)) {
        c.ops = {Eq(static_cast<std::uint32_t>(rng.uniform_int(0, 65535)))};
      } else {
        const auto lo = static_cast<std::uint32_t>(rng.uniform_int(0, 60000));
        c.ops = Range(lo, lo + static_cast<std::uint32_t>(rng.uniform_int(0, 5000)));
      }
      rule.components.push_back(c);
    }
    if (rule.components.empty()) continue;
    const auto encoded = EncodeNlri(rule);
    ASSERT_TRUE(encoded.ok());
    const auto decoded = DecodeNlri(*encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(decoded->rule, rule);
    EXPECT_EQ(decoded->consumed, encoded->size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowspecRoundTripTest, ::testing::Values(7, 77, 777));

}  // namespace
}  // namespace stellar::bgp::flowspec
