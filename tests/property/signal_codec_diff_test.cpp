// Differential test: the one Stellar signal codec against the two
// per-namespace decoders it replaced, copied below as the reference, and
// against the controller's former merge of their results.
//
// Seeded random community lists mix both namespaces, foreign ASNs, foreign
// subtypes and functions, bad rule kinds, set reserved bytes, 17-bit values,
// and duplicate and conflicting actions. Checks:
//   - DecodeSignal, and DecodeRouteSignal given large communities alone,
//     agree with the reference on accept/reject and, when they accept, on
//     the Signal;
//   - DecodeRouteSignal equals the reference merge (no Stellar community,
//     invalid, or the merged Signal) wherever the two namespaces do not ask
//     for different actions; where they do, it rejects the route (the merge
//     silently kept the extended rate).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/signal.hpp"
#include "util/rng.hpp"

namespace stellar::core {
namespace {

// ---------------------------------------------------------------------------
// Reference: the per-namespace decoders and the controller's merge, as they
// stood before the codec was written once over both namespaces.
namespace reference {

util::Result<Signal> DecodeSignal(std::uint16_t ixp_asn,
                                  std::span<const bgp::ExtendedCommunity> ecs) {
  Signal signal;
  for (const auto& ec : ecs) {
    if ((ec.type() & 0x3f) != bgp::ExtendedCommunity::kTypeTwoOctetAs) continue;
    if (ec.as_number() != ixp_asn) continue;
    if (ec.subtype() == 0x80) {
      const std::uint32_t admin = ec.local_admin();
      const auto kind_byte = static_cast<std::uint8_t>(admin >> 24);
      if (kind_byte > 10 || (kind_byte > 5 && kind_byte < 10)) {
        return util::MakeError("ref", "unknown rule kind");
      }
      if ((admin & 0x00ff0000u) != 0) return util::MakeError("ref", "reserved byte set");
      signal.rules.push_back(
          {static_cast<RuleKind>(kind_byte), static_cast<std::uint16_t>(admin & 0xffff)});
    } else if (ec.subtype() == 0x81) {
      const auto rate = static_cast<double>(ec.local_admin());
      if (signal.shape_rate_mbps.has_value() && *signal.shape_rate_mbps != rate) {
        return util::MakeError("ref", "conflicting duplicate action communities");
      }
      signal.shape_rate_mbps = rate;
    }
  }
  std::sort(signal.rules.begin(), signal.rules.end());
  signal.rules.erase(std::unique(signal.rules.begin(), signal.rules.end()),
                     signal.rules.end());
  return signal;
}

bool HasExtended(std::uint16_t ixp_asn, std::span<const bgp::ExtendedCommunity> ecs) {
  return std::any_of(ecs.begin(), ecs.end(), [&](const bgp::ExtendedCommunity& ec) {
    return (ec.type() & 0x3f) == bgp::ExtendedCommunity::kTypeTwoOctetAs &&
           ec.as_number() == ixp_asn && (ec.subtype() == 0x80 || ec.subtype() == 0x81);
  });
}

util::Result<Signal> DecodeSignalLarge(std::uint32_t ixp_asn,
                                       std::span<const bgp::LargeCommunity> lcs) {
  Signal signal;
  for (const auto& lc : lcs) {
    if (lc.global_admin != ixp_asn) continue;
    const std::uint32_t function = lc.data1 >> 24;
    if (function == 0x80) {
      const std::uint32_t kind = lc.data1 & 0x00ffffff;
      if (kind > 10 || (kind > 5 && kind < 10)) {
        return util::MakeError("ref", "unknown rule kind");
      }
      if (lc.data2 > 0xffff) return util::MakeError("ref", "rule value out of range");
      signal.rules.push_back(
          {static_cast<RuleKind>(kind), static_cast<std::uint16_t>(lc.data2)});
    } else if (function == 0x81) {
      const auto rate = static_cast<double>(lc.data2);
      if (signal.shape_rate_mbps.has_value() && *signal.shape_rate_mbps != rate) {
        return util::MakeError("ref", "conflicting duplicate action communities");
      }
      signal.shape_rate_mbps = rate;
    }
  }
  std::sort(signal.rules.begin(), signal.rules.end());
  signal.rules.erase(std::unique(signal.rules.begin(), signal.rules.end()),
                     signal.rules.end());
  return signal;
}

bool HasLarge(std::uint32_t ixp_asn, std::span<const bgp::LargeCommunity> lcs) {
  return std::any_of(lcs.begin(), lcs.end(), [&](const bgp::LargeCommunity& lc) {
    const std::uint32_t function = lc.data1 >> 24;
    return lc.global_admin == ixp_asn && (function == 0x80 || function == 0x81);
  });
}

/// The controller's merge. `conflict` reports whether both namespaces
/// decoded and asked for different rates (the merge kept the extended one).
struct Merged {
  bool any = false;      ///< Some Stellar community was present.
  bool invalid = false;  ///< A namespace failed to decode.
  bool conflict = false;
  Signal signal;
};

Merged Merge(std::uint32_t ixp_asn, std::span<const bgp::ExtendedCommunity> ecs,
             std::span<const bgp::LargeCommunity> lcs) {
  Merged out;
  const bool has_ext =
      ixp_asn <= 0xffff && HasExtended(static_cast<std::uint16_t>(ixp_asn), ecs);
  const bool has_large = HasLarge(ixp_asn, lcs);
  out.any = has_ext || has_large;
  if (has_ext) {
    auto decoded = DecodeSignal(static_cast<std::uint16_t>(ixp_asn), ecs);
    if (!decoded.ok()) {
      out.invalid = true;
      return out;
    }
    out.signal = std::move(*decoded);
  }
  if (has_large) {
    auto decoded = DecodeSignalLarge(ixp_asn, lcs);
    if (!decoded.ok()) {
      out.invalid = true;
      return out;
    }
    auto& merged = out.signal;
    merged.rules.insert(merged.rules.end(), decoded->rules.begin(), decoded->rules.end());
    std::sort(merged.rules.begin(), merged.rules.end());
    merged.rules.erase(std::unique(merged.rules.begin(), merged.rules.end()),
                       merged.rules.end());
    out.conflict = merged.shape_rate_mbps && decoded->shape_rate_mbps &&
                   *merged.shape_rate_mbps != *decoded->shape_rate_mbps;
    if (!merged.shape_rate_mbps) merged.shape_rate_mbps = decoded->shape_rate_mbps;
  }
  return out;
}

}  // namespace reference

// ---------------------------------------------------------------------------
// Random community lists.

constexpr std::uint32_t kForeignAsn = 64999;

/// A rule kind: mostly valid, sometimes one of the gaps or past the end.
std::uint32_t RandomKind(util::Rng& rng) {
  static constexpr std::uint32_t kKinds[] = {0, 1, 2, 3, 4, 5, 10, 6, 9, 11, 99, 255};
  return kKinds[rng.uniform_int(0, rng.chance(0.85) ? 6 : 11)];
}

/// A rule value: mostly 16 bits, sometimes 17.
std::uint32_t RandomValue(util::Rng& rng) {
  return static_cast<std::uint32_t>(rng.chance(0.9) ? rng.uniform_int(0, 0xffff)
                                                     : rng.uniform_int(0x10000, 0x1ffff));
}

/// A rate from a small set, so that duplicates and conflicts are common.
std::uint32_t RandomRate(util::Rng& rng) {
  static constexpr std::uint32_t kRates[] = {0, 100, 500};
  return kRates[rng.uniform_int(0, 2)];
}

std::uint8_t RandomFunction(util::Rng& rng) {
  static constexpr std::uint8_t kFunctions[] = {0x80, 0x80, 0x80, 0x81, 0x02, 0x82};
  return kFunctions[rng.uniform_int(0, 5)];
}

std::vector<bgp::ExtendedCommunity> RandomExtended(util::Rng& rng, std::uint32_t ixp_asn) {
  std::vector<bgp::ExtendedCommunity> out;
  const int n = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < n; ++i) {
    const std::uint8_t function = RandomFunction(rng);
    const auto asn = static_cast<std::uint16_t>(rng.chance(0.8) ? ixp_asn : kForeignAsn);
    std::uint32_t admin = 0;
    if (function == 0x81) {
      admin = RandomRate(rng);
    } else {
      // A 17-bit value is a set reserved byte on this wire.
      admin = (RandomKind(rng) << 24) | RandomValue(rng);
      if (rng.chance(0.05)) admin |= 0x00800000;
    }
    auto ec = bgp::ExtendedCommunity::TwoOctetAs(function, asn, admin);
    if (rng.chance(0.1)) {
      // Non-transitive two-octet-AS (same namespace) or another type.
      auto bytes = ec.bytes();
      bytes[0] = rng.chance(0.5) ? 0x40 : bgp::ExtendedCommunity::kTypeFourOctetAs;
      ec = bgp::ExtendedCommunity(bytes);
    }
    out.push_back(ec);
  }
  return out;
}

std::vector<bgp::LargeCommunity> RandomLarge(util::Rng& rng, std::uint32_t ixp_asn) {
  std::vector<bgp::LargeCommunity> out;
  const int n = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < n; ++i) {
    const std::uint32_t function = RandomFunction(rng);
    bgp::LargeCommunity lc;
    lc.global_admin = rng.chance(0.8) ? ixp_asn : kForeignAsn;
    if (function == 0x81) {
      lc.data1 = function << 24;
      lc.data2 = RandomRate(rng);
    } else {
      lc.data1 = (function << 24) | RandomKind(rng);
      lc.data2 = RandomValue(rng);
    }
    out.push_back(lc);
  }
  return out;
}

class SignalCodecDiffTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(SignalCodecDiffTest, AgreesWithPerNamespaceReference) {
  const std::uint32_t ixp_asn = GetParam();
  util::Rng rng(20181204 + ixp_asn);
  int compared = 0;
  int rejected = 0;
  int unsignaled = 0;
  for (int i = 0; i < 4000; ++i) {
    const auto ecs = RandomExtended(rng, ixp_asn);
    const auto lcs = RandomLarge(rng, ixp_asn);

    if (bgp::IsTwoOctetAsn(ixp_asn)) {
      const auto asn16 = static_cast<std::uint16_t>(ixp_asn);
      const auto got = DecodeSignal(asn16, ecs);
      const auto want = reference::DecodeSignal(asn16, ecs);
      ASSERT_EQ(got.ok(), want.ok()) << "iteration " << i;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << "iteration " << i;
      }
    }
    const auto got_large = DecodeRouteSignal(ixp_asn, {}, lcs);
    const auto want_large = reference::DecodeSignalLarge(ixp_asn, lcs);
    ASSERT_EQ(got_large.ok(), want_large.ok()) << "iteration " << i;
    if (got_large.ok()) {
      ASSERT_EQ(got_large->value_or(Signal{}), *want_large) << "iteration " << i;
    }

    const auto got_route = DecodeRouteSignal(ixp_asn, ecs, lcs);
    const auto merged = reference::Merge(ixp_asn, ecs, lcs);
    if (merged.conflict) {
      // Declared change: actions that differ across the namespaces are an
      // invalid signal, as they are within one namespace.
      ASSERT_FALSE(got_route.ok()) << "iteration " << i;
      continue;
    }
    ++compared;
    if (merged.invalid) ++rejected;
    ASSERT_EQ(got_route.ok(), !merged.invalid) << "iteration " << i;
    if (!got_route.ok()) continue;
    ASSERT_EQ(got_route->has_value(), merged.any) << "iteration " << i;
    if (!merged.any) ++unsignaled;
    if (merged.any) {
      ASSERT_EQ(**got_route, merged.signal) << "iteration " << i;
    }
  }
  // The generator reaches every outcome in earnest.
  EXPECT_GT(compared, 2000);
  EXPECT_GT(rejected, 200);
  EXPECT_GT(unsignaled, 200);
  EXPECT_GT(compared - rejected - unsignaled, 200);
}

INSTANTIATE_TEST_SUITE_P(IxpAsns, SignalCodecDiffTest,
                         ::testing::Values(64500u, 4'200'000'000u),
                         [](const ::testing::TestParamInfo<std::uint32_t>& info) {
                           return bgp::IsTwoOctetAsn(info.param) ? std::string("TwoOctet")
                                                                 : std::string("FourOctet");
                         });

}  // namespace
}  // namespace stellar::core
