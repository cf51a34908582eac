// RFC 8092 large-community signaling variant: the extended-community
// encoding cannot carry a 4-byte IXP ASN in its two-octet AS field, so IXPs
// with 32-bit ASNs signal via large communities (ASN:function:value).
#include <gtest/gtest.h>

#include "core/stellar.hpp"
#include "ixp/looking_glass.hpp"
#include "net/ports.hpp"
#include "obs/trace.hpp"

namespace stellar::core {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

constexpr std::uint32_t kBigIxpAsn = 4'200'000'001;  // 4-byte private-use range.

/// The large namespace alone, through the shipped route decoder: an empty
/// Signal when the communities carry no Stellar signal.
util::Result<Signal> DecodeLarge(std::uint32_t ixp_asn, std::span<const bgp::LargeCommunity> lcs) {
  auto decoded = DecodeRouteSignal(ixp_asn, {}, lcs);
  if (!decoded.ok()) return decoded.error();
  return decoded->value_or(Signal{});
}

TEST(SignalLargeTest, RoundTrip) {
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  signal.rules.push_back({RuleKind::kTcpDstPort, 80});
  signal.shape_rate_mbps = 250.0;
  const auto lcs = EncodeSignalLarge(kBigIxpAsn, signal).value();
  ASSERT_EQ(lcs.size(), 3u);
  EXPECT_EQ(lcs[0].global_admin, kBigIxpAsn);
  const auto decoded = DecodeLarge(kBigIxpAsn, lcs);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, signal);
}

TEST(SignalLargeTest, IgnoresForeignNamespace) {
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, 123});
  auto lcs = EncodeSignalLarge(kBigIxpAsn, signal).value();
  lcs.push_back(bgp::LargeCommunity{999, 1, 2});  // Someone else's community.
  const auto decoded = DecodeLarge(kBigIxpAsn, lcs);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->rules.size(), 1u);
  EXPECT_FALSE(DecodeRouteSignal(kBigIxpAsn, {}, {&lcs.back(), 1}).value().has_value());
  EXPECT_TRUE(DecodeRouteSignal(kBigIxpAsn, {}, lcs).value().has_value());
}

TEST(SignalLargeTest, RejectsUnknownKindAndOversizedValue) {
  const bgp::LargeCommunity bad_kind{kBigIxpAsn, (0x80u << 24) | 99u, 1};
  EXPECT_FALSE(DecodeLarge(kBigIxpAsn, {&bad_kind, 1}).ok());
  const bgp::LargeCommunity bad_value{kBigIxpAsn, (0x80u << 24) | 2u, 70'000};
  EXPECT_FALSE(DecodeLarge(kBigIxpAsn, {&bad_value, 1}).ok());
}

TEST(SignalLargeTest, WireRoundTripThroughUpdate) {
  bgp::UpdateMessage u;
  u.attrs.origin = bgp::Origin::kIgp;
  u.attrs.next_hop = net::IPv4Address(1, 1, 1, 1);
  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  u.attrs.large_communities = EncodeSignalLarge(kBigIxpAsn, signal).value();
  u.announced = {{0, P4("100.10.10.10/32")}};
  const auto decoded = bgp::Decode(bgp::Encode(u));
  ASSERT_TRUE(decoded.ok());
  const auto& attrs = std::get<bgp::UpdateMessage>(*decoded).attrs;
  const auto parsed = DecodeLarge(kBigIxpAsn, attrs.large_communities);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, signal);
}

/// End-to-end on an IXP with a 4-byte ASN, where extended-community
/// signaling is impossible.
TEST(SignalLargeTest, EndToEndOn4ByteAsnIxp) {
  sim::EventQueue queue;
  ixp::Ixp::Config config;
  config.asn = kBigIxpAsn;
  ixp::Ixp ixp(queue, config);
  ixp::MemberSpec v;
  v.asn = 65001;
  v.port_capacity_mbps = 1'000.0;
  v.address_space = P4("100.10.10.0/24");
  auto& victim = ixp.add_member(v);
  ixp::MemberSpec o;
  o.asn = 65002;
  o.address_space = P4("60.2.0.0/20");
  auto& other = ixp.add_member(o);
  StellarSystem stellar(ixp);
  ixp.settle(30.0);

  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  SignalAdvancedBlackholing(victim, ixp.route_server(), P4("100.10.10.10/32"), signal);
  ixp.settle(10.0);

  EXPECT_EQ(ixp.edge_router().policy(victim.info().port).rule_count(), 1u);
  EXPECT_EQ(stellar.controller().stats().signals_decoded, 1u);

  // The rule filters the attack.
  net::FlowSample ntp;
  ntp.key.src_mac = other.info().mac;
  ntp.key.src_ip = net::IPv4Address(60, 2, 0, 5);
  ntp.key.dst_ip = net::IPv4Address(100, 10, 10, 10);
  ntp.key.proto = net::IpProto::kUdp;
  ntp.key.src_port = net::kPortNtp;
  ntp.key.dst_port = 5555;
  ntp.bytes = static_cast<std::uint64_t>(100e6 / 8.0);
  const auto report = ixp.deliver_bin({&ntp, 1}, 1.0);
  EXPECT_NEAR(report.rule_dropped_mbps, 100.0, 1.0);
}

TEST(SignalLargeTest, LargeCommunitiesStrippedOnMemberExport) {
  sim::EventQueue queue;
  ixp::Ixp ixp(queue);
  ixp::MemberSpec v;
  v.asn = 65001;
  v.address_space = P4("100.10.10.0/24");
  auto& victim = ixp.add_member(v);
  ixp::MemberSpec o;
  o.asn = 65002;
  o.address_space = P4("60.2.0.0/20");
  o.policy.accepts_more_specifics = true;
  auto& other = ixp.add_member(o);
  ixp.settle(30.0);

  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  // Large communities on an IXP whose ASN would also fit the extended
  // namespace, propagated to members (no announce-to-none).
  victim.announce(P4("100.10.10.10/32"), {}, {},
                  EncodeSignalLarge(ixp.config().asn, signal).value());
  ixp.settle(10.0);

  // A member RIB holds one path per prefix (the route server's).
  const auto route = other.rib().best(P4("100.10.10.10/32"));
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->attrs.large_communities.empty());
}

TEST(SignalLargeTest, SignalSurvivesAMemberSessionFlap) {
  // A large-community signal goes through MemberRouter::announce like an
  // extended-community one, so connect_resilient replays it when the
  // member's session re-joins. The tracer is process-wide and keyed by
  // prefix, so this test signals a prefix no other test here traces.
  sim::EventQueue queue;
  ixp::Ixp::Config config;
  config.asn = kBigIxpAsn;
  ixp::Ixp ixp(queue, config);
  ixp::MemberSpec v;
  v.asn = 65001;
  v.address_space = P4("100.10.10.0/24");
  auto& victim = ixp.add_member(v);
  ixp::MemberSpec o;
  o.asn = 65002;
  o.address_space = P4("60.2.0.0/20");
  ixp.add_member(o);
  StellarSystem stellar(ixp);
  bgp::ReconnectPolicy policy;
  policy.initial_backoff_s = 1.0;
  policy.jitter_frac = 0.0;
  victim.connect_resilient([&ixp] { return ixp.route_server().accept_member(65001); }, policy);
  ixp.settle(30.0);

  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  SignalAdvancedBlackholing(victim, ixp.route_server(), P4("100.10.10.33/32"), signal);
  ixp.settle(10.0);
  ASSERT_EQ(stellar.controller().desired().size(), 1u);
  // The signal-path trace opens at the member's announcement, as it does
  // for an extended-community signal.
  const auto stages = obs::tracer().breakdown("100.10.10.33/32");
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages.front().stage, "member_announce");

  victim.session()->stop();
  ixp.settle(60.0);
  ASSERT_EQ(victim.reconnector()->stats().reconnects, 1u);
  EXPECT_EQ(stellar.controller().desired().size(), 1u);
  EXPECT_TRUE(ixp.route_server().adj_rib_in().best(P4("100.10.10.33/32")).has_value());
  EXPECT_EQ(ixp.edge_router().policy(victim.info().port).rule_count(), 1u);

  // The looking glass lists the replayed signal's large communities.
  const auto lines = ixp::LookingGlass(ixp.route_server()).show_route(P4("100.10.10.33/32"));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find(" large " + std::to_string(kBigIxpAsn) + ":"), std::string::npos)
      << lines[0];
}

TEST(SignalLargeTest, MergedNamespacesUnionRules) {
  // A member can signal some rules via extended and some via large
  // communities on the same route; the controller honors the union.
  sim::EventQueue queue;
  ixp::Ixp ixp(queue);
  ixp::MemberSpec v;
  v.asn = 65001;
  v.address_space = P4("100.10.10.0/24");
  auto& victim = ixp.add_member(v);
  StellarSystem stellar(ixp);
  ixp.settle(30.0);

  Signal ext_part;
  ext_part.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  Signal large_part;
  large_part.rules.push_back({RuleKind::kUdpSrcPort, net::kPortDns});

  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::kIgp;
  update.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65001}}};
  update.attrs.next_hop = victim.info().router_ip;
  update.attrs.communities = {ixp.route_server().announce_to_none()};
  update.attrs.extended_communities =
      EncodeSignal(static_cast<std::uint16_t>(ixp.config().asn), ext_part).value();
  update.attrs.large_communities = EncodeSignalLarge(ixp.config().asn, large_part).value();
  update.announced = {{0, P4("100.10.10.10/32")}};
  victim.session()->announce(std::move(update));
  ixp.settle(10.0);

  EXPECT_EQ(ixp.edge_router().policy(victim.info().port).rule_count(), 2u);
}

TEST(SignalLargeTest, CrossNamespaceConflictingActionsAreInvalid) {
  // Extended communities ask for 100 Mbps and large ones for 500 Mbps on the
  // same route: an invalid signal, like two conflicting actions within one
  // namespace. No rule is shaped at either rate.
  sim::EventQueue queue;
  ixp::Ixp ixp(queue);
  ixp::MemberSpec v;
  v.asn = 65001;
  v.address_space = P4("100.10.10.0/24");
  auto& victim = ixp.add_member(v);
  StellarSystem stellar(ixp);
  ixp.settle(30.0);

  Signal ext_part;
  ext_part.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  ext_part.shape_rate_mbps = 100.0;
  Signal large_part = ext_part;
  large_part.shape_rate_mbps = 500.0;
  const auto asn = ixp.config().asn;
  victim.announce(P4("100.10.10.10/32"), {ixp.route_server().announce_to_none()},
                  EncodeSignal(static_cast<std::uint16_t>(asn), ext_part).value(),
                  EncodeSignalLarge(asn, large_part).value());
  ixp.settle(10.0);

  EXPECT_EQ(ixp.edge_router().policy(victim.info().port).rule_count(), 0u);
  EXPECT_TRUE(stellar.controller().desired().empty());
  EXPECT_EQ(stellar.controller().stats().invalid_signals, 1u);
  EXPECT_EQ(stellar.controller().stats().signals_decoded, 0u);
}

TEST(SignalLargeTest, HelperPicksLargeNamespaceOn4ByteAsnIxp) {
  // AS 4 200 000 000 truncates to AS 59904 in a two-octet field, so the
  // helper must signal in large communities, and the controller decodes it.
  constexpr std::uint32_t kAsn = 4'200'000'000;
  sim::EventQueue queue;
  ixp::Ixp::Config config;
  config.asn = kAsn;
  ixp::Ixp ixp(queue, config);
  ixp::MemberSpec v;
  v.asn = 65001;
  v.address_space = P4("100.10.10.0/24");
  auto& victim = ixp.add_member(v);
  StellarSystem stellar(ixp);
  ixp.settle(30.0);

  Signal signal;
  signal.rules.push_back({RuleKind::kUdpSrcPort, net::kPortNtp});
  signal.shape_rate_mbps = 200.0;
  SignalAdvancedBlackholing(victim, ixp.route_server(), P4("100.10.10.10/32"), signal);
  ixp.settle(10.0);

  const auto route = ixp.route_server().adj_rib_in().best(P4("100.10.10.10/32"));
  ASSERT_TRUE(route.has_value());
  EXPECT_TRUE(route->attrs.extended_communities.empty());
  EXPECT_EQ(route->attrs.large_communities, EncodeSignalLarge(kAsn, signal).value());
  EXPECT_EQ(stellar.controller().stats().signals_decoded, 1u);
  EXPECT_EQ(stellar.controller().stats().invalid_signals, 0u);
  ASSERT_EQ(stellar.controller().desired().size(), 1u);
  EXPECT_EQ(stellar.controller().desired().begin()->second.rule.shape_rate_mbps, 200.0);
}

}  // namespace
}  // namespace stellar::core
