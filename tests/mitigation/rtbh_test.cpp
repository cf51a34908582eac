#include "mitigation/rtbh.hpp"

#include <gtest/gtest.h>

namespace stellar::mitigation {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

struct RtbhFixture {
  sim::EventQueue queue;
  std::unique_ptr<ixp::Ixp> ixp;
  ixp::MemberRouter* victim;

  RtbhFixture() {
    ixp = std::make_unique<ixp::Ixp>(queue);
    ixp::MemberSpec v;
    v.asn = 65001;
    v.address_space = P4("100.10.10.0/24");
    victim = &ixp->add_member(v);
    // Two honoring members, two that filter more-specifics.
    for (int i = 0; i < 4; ++i) {
      ixp::MemberSpec s;
      s.asn = static_cast<bgp::Asn>(65002 + i);
      s.address_space = net::Prefix4(
          net::IPv4Address((60u << 24) | (static_cast<std::uint32_t>(i) << 12)), 20);
      s.policy.accepts_more_specifics = i < 2;
      s.policy.participates_in_rtbh = true;
      ixp->add_member(s);
    }
    ixp->settle(60.0);
  }
};

TEST(RtbhTest, TriggerReachesHonoringMembersOnly) {
  RtbhFixture f;
  TriggerRtbh(*f.victim, P4("100.10.10.10/32"));
  f.ixp->settle(10.0);
  const auto compliance = MeasureCompliance(*f.ixp, P4("100.10.10.10/32"), 65001);
  EXPECT_EQ(compliance.total, 4u);
  EXPECT_EQ(compliance.honoring, 2u);
  EXPECT_DOUBLE_EQ(compliance.honored_fraction(), 0.5);
}

TEST(RtbhTest, WithdrawRestoresTraffic) {
  RtbhFixture f;
  TriggerRtbh(*f.victim, P4("100.10.10.10/32"));
  f.ixp->settle(10.0);
  ASSERT_EQ(MeasureCompliance(*f.ixp, P4("100.10.10.10/32"), 65001).honoring, 2u);
  f.victim->withdraw(P4("100.10.10.10/32"));
  f.ixp->settle(10.0);
  EXPECT_EQ(MeasureCompliance(*f.ixp, P4("100.10.10.10/32"), 65001).honoring, 0u);
}

TEST(RtbhTest, HonoringMembersDropAtIngress) {
  RtbhFixture f;
  TriggerRtbh(*f.victim, P4("100.10.10.10/32"));
  f.ixp->settle(10.0);

  // Traffic from an honoring member (65002) and a non-honoring one (65004).
  auto make_flow = [&](bgp::Asn src_asn) {
    net::FlowSample s;
    s.key.src_mac = f.ixp->member(src_asn)->info().mac;
    s.key.src_ip = net::IPv4Address(60, 0, 0, 1);
    s.key.dst_ip = net::IPv4Address(100, 10, 10, 10);
    s.key.proto = net::IpProto::kUdp;
    s.key.src_port = 123;
    s.key.dst_port = 5555;
    s.bytes = static_cast<std::uint64_t>(100e6 / 8.0);
    return s;
  };
  const std::vector<net::FlowSample> offered{make_flow(65002), make_flow(65004)};
  const auto report = f.ixp->deliver_bin(offered, 1.0);
  EXPECT_NEAR(report.rtbh_dropped_mbps, 100.0, 1.0);
  EXPECT_NEAR(report.delivered_mbps, 100.0, 1.0);
}

TEST(RtbhTest, ScopedTriggerExcludesPeer) {
  RtbhFixture f;
  TriggerRtbh(*f.victim, P4("100.10.10.10/32"),
              {f.ixp->route_server().exclude_peer(65002)});
  f.ixp->settle(10.0);
  EXPECT_FALSE(f.ixp->member(65002)->blackholes(net::IPv4Address(100, 10, 10, 10)));
  EXPECT_TRUE(f.ixp->member(65003)->blackholes(net::IPv4Address(100, 10, 10, 10)));
}

TEST(RtbhTest, CollateralDamageIsTotalForBlackholedPrefix) {
  RtbhFixture f;
  TriggerRtbh(*f.victim, P4("100.10.10.10/32"));
  f.ixp->settle(10.0);
  // Benign HTTPS from an honoring member is dropped too — the core RTBH flaw.
  net::FlowSample benign;
  benign.key.src_mac = f.ixp->member(65002)->info().mac;
  benign.key.src_ip = net::IPv4Address(60, 0, 0, 1);
  benign.key.dst_ip = net::IPv4Address(100, 10, 10, 10);
  benign.key.proto = net::IpProto::kTcp;
  benign.key.src_port = 50'000;
  benign.key.dst_port = 443;
  benign.bytes = static_cast<std::uint64_t>(50e6 / 8.0);
  const auto report = f.ixp->deliver_bin({&benign, 1}, 1.0);
  EXPECT_NEAR(report.rtbh_dropped_mbps, 50.0, 1.0);
  EXPECT_DOUBLE_EQ(report.delivered_mbps, 0.0);
}

}  // namespace
}  // namespace stellar::mitigation
