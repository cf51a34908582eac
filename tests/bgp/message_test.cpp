#include "bgp/message.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace stellar::bgp {
namespace {

net::Prefix4 P4(const char* text) { return net::Prefix4::Parse(text).value(); }

TEST(CommunityTest, WellKnownValues) {
  EXPECT_EQ(kBlackhole.asn(), 65535);
  EXPECT_EQ(kBlackhole.value(), 666);
  EXPECT_EQ(kBlackhole.str(), "65535:666");
  EXPECT_EQ(kNoExport.raw(), 0xFFFFFF01u);
}

TEST(ExtendedCommunityTest, TwoOctetAsLayout) {
  const auto ec = ExtendedCommunity::TwoOctetAs(0x80, 64500, 0x0200007B);
  EXPECT_EQ(ec.type(), ExtendedCommunity::kTypeTwoOctetAs);
  EXPECT_TRUE(ec.transitive());
  EXPECT_EQ(ec.subtype(), 0x80);
  EXPECT_EQ(ec.as_number(), 64500);
  EXPECT_EQ(ec.local_admin(), 0x0200007Bu);
}

TEST(ExtendedCommunityTest, NonTransitiveBit) {
  const auto ec = ExtendedCommunity::TwoOctetAs(1, 1, 1, /*transitive=*/false);
  EXPECT_FALSE(ec.transitive());
}

TEST(OpenMessageTest, EncodeDecodeRoundTrip) {
  OpenMessage open;
  open.my_asn = 64500;
  open.hold_time_s = 90;
  open.bgp_identifier = net::IPv4Address(10, 0, 0, 1);
  open.add_four_octet_as_capability();
  open.add_multiprotocol_capability(kAfiIPv4, kSafiUnicast);
  const AddPathTuple tuple{kAfiIPv4, kSafiUnicast, 3};
  open.add_add_path_capability({&tuple, 1});

  const auto bytes = Encode(open);
  const auto decoded = Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  const auto& m = std::get<OpenMessage>(*decoded);
  EXPECT_EQ(m.my_asn, 64500u);
  EXPECT_EQ(m.hold_time_s, 90);
  EXPECT_EQ(m.bgp_identifier, net::IPv4Address(10, 0, 0, 1));
  EXPECT_TRUE(m.supports_multiprotocol(kAfiIPv4, kSafiUnicast));
  ASSERT_EQ(m.add_path_tuples().size(), 1u);
  EXPECT_EQ(m.add_path_tuples()[0].send_receive, 3);
}

TEST(OpenMessageTest, FourOctetAsnUsesAsTrans) {
  OpenMessage open;
  open.my_asn = 200'000;  // Needs 4 octets.
  open.add_four_octet_as_capability();
  const auto bytes = Encode(open);
  // Wire 2-octet field must be AS_TRANS.
  EXPECT_EQ((bytes[kHeaderSize + 1] << 8) | bytes[kHeaderSize + 2], kAsTrans);
  const auto decoded = Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<OpenMessage>(*decoded).my_asn, 200'000u);
}

TEST(KeepaliveTest, RoundTrip) {
  const auto bytes = Encode(KeepaliveMessage{});
  EXPECT_EQ(bytes.size(), kHeaderSize);
  const auto decoded = Decode(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::holds_alternative<KeepaliveMessage>(*decoded));
}

TEST(NotificationTest, RoundTrip) {
  NotificationMessage n;
  n.code = NotificationCode::kHoldTimerExpired;
  n.subcode = 0;
  n.data = {1, 2, 3};
  const auto decoded = Decode(Encode(n));
  ASSERT_TRUE(decoded.ok());
  const auto& m = std::get<NotificationMessage>(*decoded);
  EXPECT_EQ(m.code, NotificationCode::kHoldTimerExpired);
  EXPECT_EQ(m.data, (std::vector<std::uint8_t>{1, 2, 3}));
}

UpdateMessage RichUpdate() {
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.as_path = {{AsPathSegment::Type::kSequence, {65001, 200'000}},
                     {AsPathSegment::Type::kSet, {65002, 65003}}};
  u.attrs.next_hop = net::IPv4Address(10, 0, 0, 9);
  u.attrs.med = 50;
  u.attrs.local_pref = 200;
  u.attrs.atomic_aggregate = true;
  u.attrs.aggregator = {65001, net::IPv4Address(10, 0, 0, 9)};
  u.attrs.communities = {kBlackhole, Community(0, 64500)};
  u.attrs.extended_communities = {ExtendedCommunity::TwoOctetAs(0x80, 64500, 123)};
  u.attrs.large_communities = {{64500, 1, 2}};
  u.announced = {{0, P4("100.10.10.10/32")}, {0, P4("60.1.0.0/20")}};
  u.withdrawn = {{0, P4("60.2.0.0/20")}};
  return u;
}

TEST(UpdateMessageTest, FullRoundTrip) {
  const UpdateMessage u = RichUpdate();
  const auto decoded = Decode(Encode(u));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<UpdateMessage>(*decoded), u);
}

TEST(UpdateMessageTest, AddPathRoundTrip) {
  CodecOptions opts;
  opts.add_path_ipv4_unicast = true;
  UpdateMessage u = RichUpdate();
  u.announced = {{7, P4("100.10.10.10/32")}, {9, P4("100.10.10.10/32")}};
  u.withdrawn = {{3, P4("60.2.0.0/20")}};
  const auto decoded = Decode(Encode(u, opts), opts);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<UpdateMessage>(*decoded), u);
}

TEST(UpdateMessageTest, AddPathMismatchFailsCleanly) {
  CodecOptions with;
  with.add_path_ipv4_unicast = true;
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.next_hop = net::IPv4Address(1, 1, 1, 1);
  u.announced = {{42, P4("1.2.3.0/24")}};
  const auto bytes = Encode(u, with);
  // Decoding with the wrong negotiated state must error or mis-parse, never crash.
  const auto decoded = Decode(bytes, CodecOptions{});
  if (decoded.ok()) {
    EXPECT_NE(std::get<UpdateMessage>(*decoded), u);
  }
}

TEST(UpdateMessageTest, TwoOctetAsPathEncoding) {
  CodecOptions opts;
  opts.four_octet_as = false;
  UpdateMessage u;
  u.attrs.origin = Origin::kEgp;
  u.attrs.as_path = {{AsPathSegment::Type::kSequence, {65001, 200'000}}};
  u.attrs.next_hop = net::IPv4Address(1, 1, 1, 1);
  u.announced = {{0, P4("1.2.3.0/24")}};
  const auto decoded = Decode(Encode(u, opts), opts);
  ASSERT_TRUE(decoded.ok());
  const auto& path = std::get<UpdateMessage>(*decoded).attrs.as_path;
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0].asns[0], 65001u);
  EXPECT_EQ(path[0].asns[1], kAsTrans);  // 4-octet ASN collapses to AS_TRANS.
}

TEST(UpdateMessageTest, MpReachIPv6RoundTrip) {
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.as_path = {{AsPathSegment::Type::kSequence, {65001}}};
  MpReachIPv6 reach;
  reach.next_hop = net::IPv6Address::Parse("2001:db8::1").value();
  reach.nlri = {net::Prefix6::Parse("2001:db8:1::/48").value(),
                net::Prefix6::Parse("::/0").value()};
  u.attrs.mp_reach_ipv6 = reach;
  MpUnreachIPv6 unreach;
  unreach.withdrawn = {net::Prefix6::Parse("2001:db8:2::/48").value()};
  u.attrs.mp_unreach_ipv6 = unreach;
  const auto decoded = Decode(Encode(u));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<UpdateMessage>(*decoded), u);
}

TEST(UpdateMessageTest, UnrecognizedOptionalAttributePreserved) {
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.next_hop = net::IPv4Address(1, 1, 1, 1);
  u.attrs.unrecognized = {{0xC0, 99, {0xde, 0xad}}};
  u.announced = {{0, P4("9.9.9.0/24")}};
  const auto decoded = Decode(Encode(u));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(std::get<UpdateMessage>(*decoded).attrs.unrecognized, u.attrs.unrecognized);
}

TEST(UpdateMessageTest, EndOfRibMarker) {
  UpdateMessage eor;
  EXPECT_TRUE(eor.is_end_of_rib());
  const auto decoded = Decode(Encode(eor));
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::get<UpdateMessage>(*decoded).is_end_of_rib());
}

TEST(DecodeTest, RejectsBadMarker) {
  auto bytes = Encode(KeepaliveMessage{});
  bytes[0] = 0x00;
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(DecodeTest, RejectsBadLength) {
  auto bytes = Encode(KeepaliveMessage{});
  bytes[16] = 0xff;
  bytes[17] = 0xff;  // 65535 > kMaxMessageSize.
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(DecodeTest, RejectsUnknownType) {
  auto bytes = Encode(KeepaliveMessage{});
  bytes[18] = 99;
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(DecodeTest, RejectsTruncatedAttributes) {
  UpdateMessage u = RichUpdate();
  auto bytes = Encode(u);
  // Corrupt the total-path-attributes length to exceed the message.
  // Withdrawn-routes length is at kHeaderSize; find the attr length field.
  const std::size_t wlen = (bytes[kHeaderSize] << 8) | bytes[kHeaderSize + 1];
  const std::size_t attr_len_pos = kHeaderSize + 2 + wlen;
  bytes[attr_len_pos] = 0xff;
  bytes[attr_len_pos + 1] = 0xff;
  EXPECT_FALSE(Decode(bytes).ok());
}

TEST(DecodeFramedTest, NeedsMoreBytes) {
  const auto bytes = Encode(KeepaliveMessage{});
  const auto partial = DecodeFramed({bytes.data(), bytes.size() - 1});
  ASSERT_TRUE(partial.ok());
  EXPECT_FALSE(partial->message.has_value());
  EXPECT_EQ(partial->consumed, 0u);
}

TEST(DecodeFramedTest, ConsumesExactlyOneMessage) {
  auto bytes = Encode(KeepaliveMessage{});
  const auto second = Encode(KeepaliveMessage{});
  bytes.insert(bytes.end(), second.begin(), second.end());
  const auto framed = DecodeFramed(bytes);
  ASSERT_TRUE(framed.ok());
  ASSERT_TRUE(framed->message.has_value());
  EXPECT_EQ(framed->consumed, kHeaderSize);
}

TEST(EncodeTest, OversizedUpdateThrows) {
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.next_hop = net::IPv4Address(1, 1, 1, 1);
  for (int i = 0; i < 2000; ++i) {
    u.announced.push_back(
        {0, net::Prefix4(net::IPv4Address(static_cast<std::uint32_t>(i) << 8), 24)});
  }
  EXPECT_THROW(Encode(u), std::length_error);
}

TEST(PathAttributesTest, Helpers) {
  PathAttributes attrs;
  attrs.as_path = {{AsPathSegment::Type::kSequence, {1, 2, 3}},
                   {AsPathSegment::Type::kSet, {4, 5}}};
  EXPECT_EQ(attrs.as_path_length(), 4u);  // Set counts as one hop.
  EXPECT_EQ(attrs.origin_asn(), 3u);
  attrs.add_community(kBlackhole);
  attrs.add_community(kBlackhole);
  EXPECT_EQ(attrs.communities.size(), 1u);
  EXPECT_TRUE(attrs.has_community(kBlackhole));
}

TEST(PathAttributesTest, OriginAsnEmptyPath) {
  PathAttributes attrs;
  EXPECT_FALSE(attrs.origin_asn().has_value());
  attrs.as_path = {{AsPathSegment::Type::kSet, {1}}};
  EXPECT_FALSE(attrs.origin_asn().has_value());
}

// Property sweep: random updates round-trip bit-exactly under both codec
// configurations.
class UpdateRoundTripTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UpdateRoundTripTest, RandomizedRoundTrip) {
  util::Rng rng(GetParam());
  for (int iter = 0; iter < 50; ++iter) {
    CodecOptions opts;
    opts.add_path_ipv4_unicast = rng.chance(0.5);
    UpdateMessage u;
    u.attrs.origin = static_cast<Origin>(rng.uniform_int(0, 2));
    AsPathSegment seg;
    seg.type = AsPathSegment::Type::kSequence;
    const int hops = static_cast<int>(rng.uniform_int(1, 5));
    for (int i = 0; i < hops; ++i) {
      seg.asns.push_back(static_cast<Asn>(rng.uniform_int(1, 4'000'000'000ll)));
    }
    u.attrs.as_path.push_back(seg);
    u.attrs.next_hop = net::IPv4Address(static_cast<std::uint32_t>(
        rng.uniform_int(1, 0xfffffffell)));
    if (rng.chance(0.5)) u.attrs.med = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    if (rng.chance(0.5)) {
      u.attrs.local_pref = static_cast<std::uint32_t>(rng.uniform_int(0, 1000));
    }
    const int ncomm = static_cast<int>(rng.uniform_int(0, 6));
    for (int i = 0; i < ncomm; ++i) {
      u.attrs.add_community(Community(static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff)),
                                      static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff))));
    }
    const int necs = static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < necs; ++i) {
      u.attrs.extended_communities.push_back(ExtendedCommunity::TwoOctetAs(
          static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
          static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff)),
          static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffll))));
    }
    const int nannounce = static_cast<int>(rng.uniform_int(0, 8));
    for (int i = 0; i < nannounce; ++i) {
      u.announced.push_back(
          {opts.add_path_ipv4_unicast ? static_cast<PathId>(rng.uniform_int(1, 100)) : 0,
           net::Prefix4(
               net::IPv4Address(static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffll))),
               static_cast<std::uint8_t>(rng.uniform_int(0, 32)))});
    }
    const auto decoded = Decode(Encode(u, opts), opts);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    EXPECT_EQ(std::get<UpdateMessage>(*decoded), u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UpdateRoundTripTest, ::testing::Values(101, 202, 303, 404, 505));

}  // namespace
}  // namespace stellar::bgp
