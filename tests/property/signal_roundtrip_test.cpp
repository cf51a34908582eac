// Encode→decode round-trip property tests for both Stellar signal codecs
// (extended communities and large communities), plus regression coverage for
// two historical codec bugs:
//   1. EncodeSignal/EncodeSignalLarge silently truncated fractional
//      shape_rate_mbps to uint32 — a 0.5 Mbps shape request became a drop.
//      Encoding now rejects non-integral / negative / NaN / overflowing rates.
//   2. The decoders of both namespaces resolved duplicate action communities
//      last-wins — conflicting rates from a mangled or adversarial update were
//      silently collapsed. Conflicting duplicates are now a decode error;
//      identical duplicates remain idempotent.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/signal.hpp"
#include "util/rng.hpp"

namespace stellar::core {
namespace {

constexpr std::uint16_t kIxp = 64500;
constexpr std::uint32_t kBigIxp = 4200001234;  // 4-byte ASN, needs large communities.

const RuleKind kAllKinds[] = {RuleKind::kDropAll,    RuleKind::kProtocol,
                              RuleKind::kUdpSrcPort, RuleKind::kUdpDstPort,
                              RuleKind::kTcpSrcPort, RuleKind::kTcpDstPort,
                              RuleKind::kPredefined};

/// The large namespace alone, through the shipped route decoder: an empty
/// Signal when the communities carry no Stellar signal.
util::Result<Signal> DecodeLarge(std::uint32_t ixp_asn, std::span<const bgp::LargeCommunity> lcs) {
  auto decoded = DecodeRouteSignal(ixp_asn, {}, lcs);
  if (!decoded.ok()) return decoded.error();
  return decoded->value_or(Signal{});
}

/// A random well-formed signal: up to 6 rules, rate absent or a positive
/// integral Mbps value (the only states the wire format can represent exactly
/// and distinguishably — rate 0 and "no action community" both mean drop).
Signal RandomSignal(util::Rng& rng) {
  Signal s;
  const int n = static_cast<int>(rng.uniform_int(0, 6));
  for (int i = 0; i < n; ++i) {
    SignalRule rule;
    rule.kind = kAllKinds[rng.uniform_int(0, 6)];
    rule.value = static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
    s.rules.push_back(rule);
  }
  if (rng.uniform_int(0, 1) == 1) {
    s.shape_rate_mbps = static_cast<double>(rng.uniform_int(1, 0xffffffff));
  }
  return s;
}

/// Decoding sorts and deduplicates match rules; apply the same normalization
/// to the input so round-trip comparison is exact.
Signal Normalized(Signal s) {
  std::sort(s.rules.begin(), s.rules.end());
  s.rules.erase(std::unique(s.rules.begin(), s.rules.end()), s.rules.end());
  return s;
}

class SignalRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SignalRoundTripTest, ExtendedCommunityCodecRoundTrips) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 2000; ++iter) {
    const Signal signal = RandomSignal(rng);
    auto encoded = EncodeSignal(kIxp, signal);
    ASSERT_TRUE(encoded.ok()) << encoded.error().message;
    auto decoded = DecodeSignal(kIxp, *encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(*decoded, Normalized(signal));
  }
}

TEST_P(SignalRoundTripTest, LargeCommunityCodecRoundTrips) {
  util::Rng rng(GetParam() + 500);
  for (int iter = 0; iter < 2000; ++iter) {
    const Signal signal = RandomSignal(rng);
    auto encoded = EncodeSignalLarge(kBigIxp, signal);
    ASSERT_TRUE(encoded.ok()) << encoded.error().message;
    auto decoded = DecodeLarge(kBigIxp, *encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(*decoded, Normalized(signal));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignalRoundTripTest, ::testing::Values(1, 2, 3));

TEST(SignalCodecValidationTest, FractionalRateIsRejectedNotTruncated) {
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, 123});
  signal.shape_rate_mbps = 0.5;  // Used to truncate to 0 Mbps == drop-all.
  EXPECT_FALSE(EncodeSignal(kIxp, signal).ok());
  EXPECT_FALSE(EncodeSignalLarge(kBigIxp, signal).ok());
  signal.shape_rate_mbps = 200.25;
  EXPECT_FALSE(EncodeSignal(kIxp, signal).ok());
  EXPECT_FALSE(EncodeSignalLarge(kBigIxp, signal).ok());
}

TEST(SignalCodecValidationTest, NegativeNanAndOverflowRatesAreRejected) {
  Signal signal;
  for (const double bad : {-1.0, std::numeric_limits<double>::quiet_NaN(),
                           4294967296.0, 1e18}) {
    signal.shape_rate_mbps = bad;
    EXPECT_FALSE(EncodeSignal(kIxp, signal).ok()) << bad;
    EXPECT_FALSE(EncodeSignalLarge(kBigIxp, signal).ok()) << bad;
  }
}

TEST(SignalCodecValidationTest, ZeroAndMaxRatesAreValid) {
  Signal signal;
  signal.rules.push_back({RuleKind::kDropAll, 0});
  signal.shape_rate_mbps = 0.0;  // Explicit drop: valid, no action community.
  EXPECT_EQ(EncodeSignal(kIxp, signal).value().size(), 1u);
  EXPECT_EQ(EncodeSignalLarge(kBigIxp, signal).value().size(), 1u);
  signal.shape_rate_mbps = 4294967295.0;  // Largest representable rate.
  auto decoded = DecodeSignal(kIxp, EncodeSignal(kIxp, signal).value());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shape_rate_mbps, 4294967295.0);
}

TEST(SignalCodecValidationTest, ConflictingDuplicateActionsAreDecodeErrors) {
  // Two action communities with different rates used to resolve last-wins.
  std::vector<bgp::ExtendedCommunity> ecs = {
      bgp::ExtendedCommunity::TwoOctetAs(kStellarActionSubtype, kIxp, 200),
      bgp::ExtendedCommunity::TwoOctetAs(kStellarActionSubtype, kIxp, 500),
  };
  auto decoded = DecodeSignal(kIxp, ecs);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error().code, "stellar.signal");

  std::vector<bgp::LargeCommunity> lcs = {
      {kBigIxp, kStellarLargeActionFunction << 24, 200},
      {kBigIxp, kStellarLargeActionFunction << 24, 500},
  };
  auto decoded_large = DecodeLarge(kBigIxp, lcs);
  ASSERT_FALSE(decoded_large.ok());
  EXPECT_EQ(decoded_large.error().code, "stellar.signal");
}

TEST(SignalCodecValidationTest, IdenticalDuplicateActionsAreIdempotent) {
  std::vector<bgp::ExtendedCommunity> ecs = {
      bgp::ExtendedCommunity::TwoOctetAs(kStellarActionSubtype, kIxp, 200),
      bgp::ExtendedCommunity::TwoOctetAs(kStellarActionSubtype, kIxp, 200),
  };
  auto decoded = DecodeSignal(kIxp, ecs);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->shape_rate_mbps, 200.0);

  std::vector<bgp::LargeCommunity> lcs = {
      {kBigIxp, kStellarLargeActionFunction << 24, 300},
      {kBigIxp, kStellarLargeActionFunction << 24, 300},
  };
  auto decoded_large = DecodeLarge(kBigIxp, lcs);
  ASSERT_TRUE(decoded_large.ok());
  EXPECT_EQ(decoded_large->shape_rate_mbps, 300.0);
}

}  // namespace
}  // namespace stellar::core
