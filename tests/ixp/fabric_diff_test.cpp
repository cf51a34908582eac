// Differential test: Fabric's hash-per-length owner LPM and its flat
// per-port deliver pass must agree exactly with the references they
// replaced — the sort-by-length linear owner scan and the map-of-vectors
// deliver — over randomized nested owner tables (/0, /8–/32, nested
// more-specifics, duplicate prefixes on other ports, unrouted addresses) and
// random bins with drop/shape rules, congested ports and an ingress
// blackhole predicate. Totals must compare equal with ==: both sides sum in
// the same order, so the doubles agree to the bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "ixp/fabric.hpp"
#include "util/rng.hpp"

namespace stellar::ixp {
namespace {

constexpr filter::PortId kPorts = 12;
// Top octets owners are drawn from; kUnroutedOctet is never used by one.
constexpr std::uint32_t kOwnerOctets[] = {10, 60, 100};
constexpr std::uint32_t kUnroutedOctet = 200;
// Port capacities (Mbps): the small ones congest under a bin's load.
constexpr double kCapacities[] = {50.0, 400.0, 2'000.0, 100'000.0};

/// The replaced owner table: kept sorted by descending prefix length and
/// scanned linearly. Insertion after every entry of equal or greater length
/// keeps registration order among equal lengths, so a duplicate prefix
/// resolves to its first registration.
class LinearOwners {
 public:
  void add(const net::Prefix4& space, filter::PortId port) {
    const auto at = std::find_if(owners_.begin(), owners_.end(), [&](const auto& o) {
      return o.first.length() < space.length();
    });
    owners_.emplace(at, space, port);
  }

  bool lookup(net::IPv4Address dst, filter::PortId& port_out) const {
    for (const auto& [space, port] : owners_) {
      if (space.contains(dst)) {
        port_out = port;
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] const std::vector<std::pair<net::Prefix4, filter::PortId>>& owners() const {
    return owners_;
  }

 private:
  std::vector<std::pair<net::Prefix4, filter::PortId>> owners_;
};

/// The replaced deliver: per-port demand gathered in a std::map of vectors,
/// every delivered flow copied into the report and kept in per_port too.
Fabric::BinReport ReferenceDeliver(const LinearOwners& owners, filter::EdgeRouter& er,
                                   const Fabric::IngressBlackholeFn& ingress_blackhole,
                                   std::span<const net::FlowSample> offered, double bin_s) {
  Fabric::BinReport report;
  std::map<filter::PortId, std::vector<net::FlowSample>> per_port_demand;
  for (const auto& sample : offered) {
    const double mbps = sample.mbps(bin_s);
    report.offered_mbps += mbps;
    filter::PortId egress = 0;
    if (!owners.lookup(sample.key.dst_ip, egress)) {
      report.unrouted_mbps += mbps;
      continue;
    }
    if (ingress_blackhole(sample.key.src_mac, sample.key.dst_ip)) {
      report.rtbh_dropped_mbps += mbps;
      report.rtbh_dropped_peers.insert(sample.key.src_mac);
      continue;
    }
    per_port_demand[egress].push_back(sample);
  }
  for (auto& [port, demand] : per_port_demand) {
    filter::PortBinResult result = er.deliver(port, demand, bin_s);
    report.delivered_mbps += result.delivered_mbps;
    report.rule_dropped_mbps += result.rule_dropped_mbps;
    report.shaper_dropped_mbps += result.shaper_dropped_mbps;
    report.congestion_dropped_mbps += result.congestion_dropped_mbps;
    report.delivered.insert(report.delivered.end(), result.delivered.begin(),
                            result.delivered.end());
    report.per_port.emplace(port, std::move(result));
  }
  return report;
}

std::uint32_t RandomU32(util::Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
}

filter::PortId RandomPort(util::Rng& rng) {
  return static_cast<filter::PortId>(rng.uniform_int(1, kPorts));
}

net::Prefix4 MoreSpecificOf(util::Rng& rng, const net::Prefix4& parent) {
  const auto length = static_cast<std::uint8_t>(rng.uniform_int(parent.length() + 1, 32));
  return net::Prefix4(net::IPv4Address(parent.address().value() |
                                       (RandomU32(rng) & ~parent.mask())),
                      length);
}

/// Registers a random nested table on both sides: /8–/32 roots, nested
/// more-specifics and duplicates of existing prefixes on another port, in
/// random order.
void AddRandomOwners(util::Rng& rng, int count, Fabric& fabric, LinearOwners& reference) {
  auto add = [&](const net::Prefix4& space, filter::PortId port) {
    fabric.register_owner(space, port);
    reference.add(space, port);
  };
  for (int i = 0; i < count; ++i) {
    const auto& existing = reference.owners();
    const double draw = rng.uniform();
    if (!existing.empty() && draw < 0.35) {
      const net::Prefix4 parent = existing[static_cast<std::size_t>(
                               rng.uniform_int(0, std::ssize(existing) - 1))]
                               .first;
      if (parent.length() < 32) add(MoreSpecificOf(rng, parent), RandomPort(rng));
    } else if (!existing.empty() && draw < 0.5) {
      const net::Prefix4 twin = existing[static_cast<std::size_t>(
                             rng.uniform_int(0, std::ssize(existing) - 1))]
                             .first;
      add(twin, RandomPort(rng));  // Duplicate, usually on another port.
    } else {
      const std::uint32_t octet = kOwnerOctets[rng.uniform_int(0, std::ssize(kOwnerOctets) - 1)];
      const auto length = static_cast<std::uint8_t>(rng.uniform_int(8, 32));
      add(net::Prefix4(net::IPv4Address((octet << 24) | (RandomU32(rng) & 0x00ffffffu)),
                       length),
          RandomPort(rng));
    }
  }
}

/// A lookup address: inside a registered prefix (often its first or last
/// address), anywhere under an owner octet, or under an octet no owner uses.
net::IPv4Address RandomDestination(util::Rng& rng, const LinearOwners& reference) {
  const auto& owners = reference.owners();
  const double draw = rng.uniform();
  if (!owners.empty() && draw < 0.6) {
    const auto& space =
        owners[static_cast<std::size_t>(rng.uniform_int(0, std::ssize(owners) - 1))].first;
    const std::uint32_t host_bits = ~space.mask();
    const double edge = rng.uniform();
    const std::uint32_t host = edge < 0.15  ? 0
                               : edge < 0.3 ? host_bits
                                            : RandomU32(rng) & host_bits;
    return net::IPv4Address(space.address().value() | host);
  }
  const std::uint32_t octet =
      draw < 0.8 ? kOwnerOctets[rng.uniform_int(0, std::ssize(kOwnerOctets) - 1)] : kUnroutedOctet;
  return net::IPv4Address((octet << 24) | (RandomU32(rng) & 0x00ffffffu));
}

class FabricDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FabricDiffTest, LookupMatchesLinearScan) {
  util::Rng rng(GetParam());
  filter::EdgeRouter er("er1", filter::TcamLimits{});
  Fabric fabric(er);
  LinearOwners reference;
  int lookups = 0;
  int routed = 0;
  int unrouted = 0;
  // Grow the table in rounds so lookups also see small and mid-size tables;
  // a /0 default owner (plus a duplicate of it) joins before the last round.
  for (const int grow : {4, 16, 64, 256, 0, 1024}) {
    if (grow == 0) {
      for (int twice = 0; twice < 2; ++twice) {
        const filter::PortId port = RandomPort(rng);
        fabric.register_owner(net::Prefix4(), port);
        reference.add(net::Prefix4(), port);
      }
      continue;
    }
    AddRandomOwners(rng, grow, fabric, reference);
    for (int i = 0; i < 2'500; ++i) {
      const net::IPv4Address dst = RandomDestination(rng, reference);
      filter::PortId expected = 0;
      filter::PortId got = 0;
      const bool expected_found = reference.lookup(dst, expected);
      ASSERT_EQ(fabric.lookup_egress(dst, got), expected_found) << dst.str();
      if (expected_found) {
        ASSERT_EQ(got, expected) << dst.str();
        ++routed;
      } else {
        ++unrouted;
      }
      ++lookups;
    }
  }
  EXPECT_GE(lookups, 10'000);
  EXPECT_GT(routed, lookups / 2);
  EXPECT_GT(unrouted, 0);
}

filter::FilterRule RandomRule(util::Rng& rng) {
  filter::FilterRule rule;
  if (rng.chance(0.6)) rule.match.proto = rng.chance(0.7) ? net::IpProto::kUdp : net::IpProto::kTcp;
  if (rng.chance(0.6)) {
    rule.match.src_port =
        filter::PortRange::Single(static_cast<std::uint16_t>(rng.uniform_int(0, 3) * 100 + 23));
  }
  if (rng.chance(0.2)) {
    rule.match.src_mac =
        net::MacAddress::ForRouter(static_cast<std::uint32_t>(rng.uniform_int(65001, 65006)));
  }
  const double action = rng.uniform();
  rule.action = action < 0.45   ? filter::FilterAction::kDrop
                : action < 0.9 ? filter::FilterAction::kShape
                               : filter::FilterAction::kForward;
  if (rule.action == filter::FilterAction::kShape) rule.shape_rate_mbps = rng.uniform(1.0, 200.0);
  return rule;
}

net::FlowSample RandomFlow(util::Rng& rng, const LinearOwners& reference, double t) {
  net::FlowSample s;
  s.time_s = t;
  s.key.src_mac =
      net::MacAddress::ForRouter(static_cast<std::uint32_t>(rng.uniform_int(65001, 65006)));
  s.key.src_ip = net::IPv4Address(RandomU32(rng));
  s.key.dst_ip = RandomDestination(rng, reference);
  s.key.proto = rng.chance(0.6) ? net::IpProto::kUdp : net::IpProto::kTcp;
  s.key.src_port = static_cast<std::uint16_t>(rng.uniform_int(0, 3) * 100 + 23);
  s.key.dst_port = static_cast<std::uint16_t>(rng.uniform_int(1024, 65535));
  s.bytes = rng.chance(0.05) ? 0 : static_cast<std::uint64_t>(rng.uniform_int(1, 40'000'000));
  s.packets = s.bytes / 1000;
  return s;
}

void ExpectSameResultTotals(const filter::PortBinResult& got, const filter::PortBinResult& want,
                            filter::PortId port) {
  EXPECT_EQ(got.offered_mbps, want.offered_mbps) << "port " << port;
  EXPECT_EQ(got.delivered_mbps, want.delivered_mbps) << "port " << port;
  EXPECT_EQ(got.rule_dropped_mbps, want.rule_dropped_mbps) << "port " << port;
  EXPECT_EQ(got.shaper_dropped_mbps, want.shaper_dropped_mbps) << "port " << port;
  EXPECT_EQ(got.congestion_dropped_mbps, want.congestion_dropped_mbps) << "port " << port;
  ASSERT_EQ(got.rule_counters.size(), want.rule_counters.size()) << "port " << port;
  for (const auto& [id, counters] : want.rule_counters) {
    const auto it = got.rule_counters.find(id);
    ASSERT_NE(it, got.rule_counters.end()) << "port " << port << " rule " << id;
    EXPECT_EQ(it->second.matched_bytes, counters.matched_bytes);
    EXPECT_EQ(it->second.dropped_bytes, counters.dropped_bytes);
    EXPECT_EQ(it->second.delivered_bytes, counters.delivered_bytes);
  }
}

TEST_P(FabricDiffTest, DeliverMatchesMapReference) {
  util::Rng rng(GetParam() * 7919 + 1);
  // Two identical edge routers: deliver accumulates rule counters, so each
  // side gets its own and they are compared at the end.
  filter::EdgeRouter er("er1", filter::TcamLimits{});
  filter::EdgeRouter reference_er("er1", filter::TcamLimits{});
  Fabric fabric(er);
  LinearOwners reference;
  std::vector<filter::RuleId> rule_ids;
  for (filter::PortId port = 1; port <= kPorts; ++port) {
    const double capacity = kCapacities[rng.uniform_int(0, std::ssize(kCapacities) - 1)];
    er.add_port(port, capacity);
    reference_er.add_port(port, capacity);
    const auto rules = rng.uniform_int(0, 3);
    for (std::int64_t r = 0; r < rules; ++r) {
      const filter::FilterRule rule = RandomRule(rng);
      const auto id = er.install_rule(port, rule);
      const auto reference_id = reference_er.install_rule(port, rule);
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(reference_id.ok());
      ASSERT_EQ(*id, *reference_id);
      rule_ids.push_back(*id);
    }
  }
  // Sender 65001 blackholes every owner under 10/8, sender 65002 one /16.
  const Fabric::IngressBlackholeFn blackhole = [](const net::MacAddress& mac,
                                                  net::IPv4Address dst) {
    if (mac == net::MacAddress::ForRouter(65001)) return (dst.value() >> 24) == 10;
    return mac == net::MacAddress::ForRouter(65002) &&
           net::Prefix4(net::IPv4Address(60, 7, 0, 0), 16).contains(dst);
  };
  fabric.set_ingress_blackhole_fn(blackhole);
  AddRandomOwners(rng, 48, fabric, reference);

  std::size_t delivered_flows = 0;
  std::size_t rtbh_peers = 0;
  double unrouted_mbps = 0.0;
  double rule_dropped_mbps = 0.0;
  double shaper_dropped_mbps = 0.0;
  double congestion_dropped_mbps = 0.0;
  constexpr double kBinS = 10.0;
  for (int b = 0; b < 24; ++b) {
    // New owners between bins take effect in the next bin on both sides;
    // a /0 default owner joins for the last few bins.
    if (b % 6 == 5) AddRandomOwners(rng, 16, fabric, reference);
    if (b == 20) {
      const filter::PortId port = RandomPort(rng);
      fabric.register_owner(net::Prefix4(), port);
      reference.add(net::Prefix4(), port);
    }
    const double t = b * kBinS;
    std::vector<net::FlowSample> offered;
    const auto flows = rng.uniform_int(0, 400);
    for (std::int64_t f = 0; f < flows; ++f) offered.push_back(RandomFlow(rng, reference, t));

    const Fabric::BinReport got = fabric.deliver(offered, kBinS);
    const Fabric::BinReport want =
        ReferenceDeliver(reference, reference_er, blackhole, offered, kBinS);

    EXPECT_EQ(got.offered_mbps, want.offered_mbps);
    EXPECT_EQ(got.unrouted_mbps, want.unrouted_mbps);
    EXPECT_EQ(got.rtbh_dropped_mbps, want.rtbh_dropped_mbps);
    EXPECT_EQ(got.delivered_mbps, want.delivered_mbps);
    EXPECT_EQ(got.rule_dropped_mbps, want.rule_dropped_mbps);
    EXPECT_EQ(got.shaper_dropped_mbps, want.shaper_dropped_mbps);
    EXPECT_EQ(got.congestion_dropped_mbps, want.congestion_dropped_mbps);
    EXPECT_EQ(got.rtbh_dropped_peers, want.rtbh_dropped_peers);

    ASSERT_EQ(got.delivered.size(), want.delivered.size()) << "bin " << b;
    for (std::size_t i = 0; i < want.delivered.size(); ++i) {
      ASSERT_EQ(got.delivered[i].key, want.delivered[i].key) << "bin " << b << " flow " << i;
      ASSERT_EQ(got.delivered[i].bytes, want.delivered[i].bytes) << "bin " << b << " flow " << i;
      ASSERT_EQ(got.delivered[i].packets, want.delivered[i].packets)
          << "bin " << b << " flow " << i;
      ASSERT_EQ(got.delivered[i].time_s, want.delivered[i].time_s) << "bin " << b << " flow " << i;
    }

    ASSERT_EQ(got.per_port.size(), want.per_port.size()) << "bin " << b;
    for (const auto& [port, result] : want.per_port) {
      const auto it = got.per_port.find(port);
      ASSERT_NE(it, got.per_port.end()) << "bin " << b << " port " << port;
      ExpectSameResultTotals(it->second, result, port);
      EXPECT_TRUE(it->second.delivered.empty()) << "stored once, in BinReport::delivered";
    }
    delivered_flows += want.delivered.size();
    rtbh_peers += want.rtbh_dropped_peers.size();
    unrouted_mbps += want.unrouted_mbps;
    rule_dropped_mbps += want.rule_dropped_mbps;
    shaper_dropped_mbps += want.shaper_dropped_mbps;
    congestion_dropped_mbps += want.congestion_dropped_mbps;
  }
  for (const filter::RuleId id : rule_ids) {
    EXPECT_EQ(er.counters(id).matched_bytes, reference_er.counters(id).matched_bytes);
    EXPECT_EQ(er.counters(id).dropped_bytes, reference_er.counters(id).dropped_bytes);
    EXPECT_EQ(er.counters(id).delivered_bytes, reference_er.counters(id).delivered_bytes);
  }
  EXPECT_GT(delivered_flows, 0u);
  EXPECT_GT(rtbh_peers, 0u);
  // Every drop class was exercised.
  EXPECT_GT(unrouted_mbps, 0.0);
  EXPECT_GT(rule_dropped_mbps, 0.0);
  EXPECT_GT(shaper_dropped_mbps, 0.0);
  EXPECT_GT(congestion_dropped_mbps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricDiffTest, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace stellar::ixp
