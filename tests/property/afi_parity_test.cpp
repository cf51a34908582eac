// AFI parity characterisation: a seeded script of member operations on a
// small dual-stack IXP, reduced to one digest of everything the route server
// and the member routers make observable on the wire and in their tables.
//
// The script covers announce and withdraw under exclude, include and
// announce-to-none scopes, RTBH /32 and /128 routes, IRR-invalid, bogon,
// too-specific and origin-mismatch announcements, import-policy tightening
// and relaxing, ROUTE-REFRESH per AFI, and a session kill answered by
// connect_resilient replay. The digest covers every link's UPDATE byte
// stream (tapped through bgp::SetLinkHook), each member's rib<PrefixT>()
// snapshots and blackholed sets, the route server's Adj-RIB-Ins and its
// rejects(). Blackhole events are deliberately left out: they have their own
// tests.
//
// The pinned values were first recorded before the IPv4/IPv6 route-server and
// member-router paths were folded into one template, and re-recorded once
// when a rejected re-announcement began to withdraw the member's earlier
// route (the script's too-specific and origin-mismatch announcements hit
// prefixes the member already holds). They must not move unless a change
// sets out to alter wire or table behaviour.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bgp/session.hpp"
#include "ixp/ixp.hpp"
#include "util/rng.hpp"

namespace stellar::ixp {
namespace {

net::Prefix4 P4(const std::string& text) { return net::Prefix4::Parse(text).value(); }
net::Prefix6 P6(const std::string& text) { return net::Prefix6::Parse(text).value(); }

/// FNV-1a 64.
class Digest {
 public:
  void add(std::span<const std::uint8_t> bytes) {
    for (const std::uint8_t b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add(const std::string& text) {
    add(std::span(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
    add(std::span<const std::uint8_t>(kSeparator));
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  static constexpr std::uint8_t kSeparator[1] = {0};
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

std::string AttrsHex(const bgp::PathAttributes& attrs) {
  bgp::UpdateMessage update;
  update.attrs = attrs;
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bgp::Encode(update)) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

/// Records every UPDATE each side of every link sends, per link in creation
/// order. Installed for the lifetime of the object.
class LinkTap {
 public:
  LinkTap() {
    previous_ = bgp::SetLinkHook([this](const std::shared_ptr<bgp::Endpoint>& a,
                                        const std::shared_ptr<bgp::Endpoint>& b) {
      const std::size_t link = streams_.size();
      streams_.emplace_back();
      tap(*a, 2 * link);
      tap(*b, 2 * link + 1);
      last_server_side_ = a;
    });
  }
  ~LinkTap() { bgp::SetLinkHook(std::move(previous_)); }
  LinkTap(const LinkTap&) = delete;
  LinkTap& operator=(const LinkTap&) = delete;

  /// Server side of the most recently created link.
  [[nodiscard]] std::weak_ptr<bgp::Endpoint> last_server_side() const {
    return last_server_side_;
  }

  void digest_into(Digest& d) const {
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      d.add("link " + std::to_string(i));
      d.add(streams_[i][0]);
      d.add("|");
      d.add(streams_[i][1]);
    }
  }

 private:
  void tap(bgp::Endpoint& endpoint, std::size_t slot) {
    endpoint.set_fault_filter([this, slot](std::vector<std::uint8_t>& bytes, sim::Duration&) {
      auto& stream = streams_[slot / 2][slot % 2];
      // One send may carry several framed messages; keep the UPDATEs.
      for (std::size_t at = 0; at + bgp::kHeaderSize <= bytes.size();) {
        const std::size_t len = (std::size_t{bytes[at + 16]} << 8) | bytes[at + 17];
        if (len < bgp::kHeaderSize || at + len > bytes.size()) break;
        if (bytes[at + 18] == static_cast<std::uint8_t>(bgp::MessageType::kUpdate)) {
          stream.insert(stream.end(), bytes.begin() + static_cast<std::ptrdiff_t>(at),
                        bytes.begin() + static_cast<std::ptrdiff_t>(at + len));
        }
        at += len;
      }
      return true;
    });
  }

  bgp::LinkHook previous_;
  std::vector<std::array<std::vector<std::uint8_t>, 2>> streams_;
  std::weak_ptr<bgp::Endpoint> last_server_side_;
};

enum class Op {
  kRtbh4,
  kRtbh6,
  kScoped4,
  kScoped6,
  kWithdraw4,
  kWithdraw6,
  kIrrInvalid,
  kBogon,
  kTooSpecific,
  kOriginMismatch,
  kTighten,
  kRelax,
  kRefresh4,
  kRefresh6,
  kKill,
};
constexpr int kOpCount = static_cast<int>(Op::kKill) + 1;

struct Script {
  LinkTap tap;
  sim::EventQueue queue;
  std::unique_ptr<Ixp> ixp;
  std::vector<MemberRouter*> members;
  std::weak_ptr<bgp::Endpoint> resilient_link;  ///< members[0]'s live session.
  util::Rng rng;
  std::vector<std::pair<std::size_t, net::Prefix4>> announced4;
  std::vector<std::pair<std::size_t, net::Prefix6>> announced6;

  explicit Script(std::uint64_t seed) : rng(seed) {
    ixp = std::make_unique<Ixp>(queue);
    const char* v4[] = {"100.10.10.0/24", "60.2.0.0/20", "60.3.0.0/20", "60.4.0.0/20"};
    const char* v6[] = {"2001:678:a::/48", "2001:678:b::/48", "2001:678:c::/48",
                        "2001:678:d::/48"};
    for (std::size_t i = 0; i < 4; ++i) {
      MemberSpec spec;
      spec.asn = static_cast<bgp::Asn>(65001 + i);
      spec.address_space = P4(v4[i]);
      spec.address_space6 = P6(v6[i]);
      spec.policy.accepts_more_specifics = i == 1 || i == 3;
      spec.policy.participates_in_rtbh = i != 3;
      members.push_back(&ixp->add_member(spec));
    }
    bgp::ReconnectPolicy policy;
    policy.initial_backoff_s = 1.0;
    policy.max_backoff_s = 4.0;
    policy.jitter_frac = 0.0;
    policy.dial_timeout_s = 10.0;
    policy.suppress_threshold = 1e9;
    members[0]->connect_resilient(
        [this] {
          auto endpoint = ixp->route_server().accept_member(65001);
          resilient_link = tap.last_server_side();
          return endpoint;
        },
        policy);
    ixp->settle(30.0);
  }

  std::size_t pick_member() {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(members.size()) - 1));
  }
  std::size_t pick_other(std::size_t self) {
    return (self + static_cast<std::size_t>(rng.uniform_int(1, 3))) % members.size();
  }
  bgp::Asn asn(std::size_t i) const { return members[i]->info().asn; }

  /// Random scope: none, exclude one peer, announce-to-none plus one include,
  /// or announce-to-none alone.
  std::vector<bgp::Community> scope(std::size_t self) {
    const RouteServer& rs = ixp->route_server();
    switch (rng.uniform_int(0, 3)) {
      case 1:
        return {rs.exclude_peer(asn(pick_other(self)))};
      case 2:
        return {rs.announce_to_none(), rs.include_peer(asn(pick_other(self)))};
      case 3:
        return {rs.announce_to_none()};
      default:
        return {};
    }
  }

  net::Prefix4 host4(std::size_t m) {
    const net::Prefix4 space = members[m]->info().address_space;
    return net::Prefix4::HostRoute(net::IPv4Address(
        space.address().value() + static_cast<std::uint32_t>(rng.uniform_int(1, 6))));
  }
  net::Prefix6 host6(std::size_t m) {
    const net::Prefix6 space = *members[m]->info().address_space6;
    auto bytes = space.address().bytes();
    bytes[15] = static_cast<std::uint8_t>(rng.uniform_int(1, 6));
    return net::Prefix6::HostRoute(net::IPv6Address(bytes));
  }

  void run(Op op) {
    const std::size_t m = pick_member();
    MemberRouter& member = *members[m];
    switch (op) {
      case Op::kRtbh4: {
        const auto prefix = host4(m);
        auto communities = scope(m);
        communities.push_back(bgp::kBlackhole);
        member.announce(prefix, communities);
        announced4.emplace_back(m, prefix);
        break;
      }
      case Op::kRtbh6: {
        const auto prefix = host6(m);
        auto communities = scope(m);
        communities.push_back(bgp::kBlackhole);
        member.announce(prefix, communities);
        announced6.emplace_back(m, prefix);
        break;
      }
      case Op::kScoped4:
        member.announce(member.info().address_space, scope(m));
        announced4.emplace_back(m, member.info().address_space);
        break;
      case Op::kScoped6:
        member.announce(*member.info().address_space6, scope(m));
        announced6.emplace_back(m, *member.info().address_space6);
        break;
      case Op::kWithdraw4:
        if (!announced4.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(announced4.size()) - 1));
          members[announced4[i].first]->withdraw(announced4[i].second);
          announced4.erase(announced4.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case Op::kWithdraw6:
        if (!announced6.empty()) {
          const auto i = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(announced6.size()) - 1));
          members[announced6[i].first]->withdraw(announced6[i].second);
          announced6.erase(announced6.begin() + static_cast<std::ptrdiff_t>(i));
        }
        break;
      case Op::kIrrInvalid:
        if (rng.chance(0.5)) {
          member.announce(P4("61.0.0.0/20"), scope(m));
        } else {
          member.announce(P6("2001:999::/32"), scope(m));
        }
        break;
      case Op::kBogon:
        if (rng.chance(0.5)) {
          member.announce(P4("10.1.0.0/16"));
        } else {
          member.announce(P6("2001:db8::/32"));
        }
        break;
      case Op::kTooSpecific:
        if (rng.chance(0.5)) {
          member.announce(host4(m), scope(m));
        } else {
          member.announce(host6(m), scope(m));
        }
        break;
      case Op::kOriginMismatch: {
        bgp::UpdateMessage update;
        update.attrs.origin = bgp::Origin::kIgp;
        update.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65099}}};
        if (rng.chance(0.5)) {
          update.attrs.next_hop = member.info().router_ip;
          update.announced = {{0, member.info().address_space}};
        } else {
          bgp::MpReachIPv6 reach;
          reach.nlri = {*member.info().address_space6};
          update.attrs.mp_reach_ipv6 = std::move(reach);
        }
        member.session()->announce(std::move(update));
        break;
      }
      case Op::kTighten:
      case Op::kRelax: {
        MemberPolicy policy = member.info().policy;
        policy.accepts_more_specifics = op == Op::kRelax;
        member.update_policy(policy);
        break;
      }
      case Op::kRefresh4:
        member.session()->request_route_refresh(bgp::kAfiIPv4);
        break;
      case Op::kRefresh6:
        member.session()->request_route_refresh(bgp::kAfiIPv6);
        break;
      case Op::kKill:
        if (auto link = resilient_link.lock()) link->close();
        ixp->settle(10.0);
        break;
    }
    ixp->settle(5.0);
  }

  /// Every op kind twice, plus random extras biased towards announcements
  /// (the first four kinds), shuffled by the seed.
  void run_all() {
    std::vector<Op> ops;
    for (int k = 0; k < kOpCount; ++k) {
      ops.push_back(static_cast<Op>(k));
      ops.push_back(static_cast<Op>(k));
    }
    for (int i = 0; i < 40; ++i) {
      ops.push_back(static_cast<Op>(rng.uniform_int(0, rng.chance(0.5) ? 3 : kOpCount - 1)));
    }
    for (std::size_t i = ops.size(); i > 1; --i) {
      std::swap(ops[i - 1], ops[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    for (const Op op : ops) run(op);
    ixp->settle(30.0);
  }

  template <typename RibT>
  static void digest_rib(Digest& d, const RibT& rib) {
    rib.for_each([&](const typename RibT::View& route) {
      d.add(route.str());
      d.add(AttrsHex(route.attrs));
    });
  }

  [[nodiscard]] std::uint64_t digest() const {
    Digest d;
    tap.digest_into(d);
    for (const MemberRouter* member : members) {
      d.add("member " + std::to_string(member->info().asn));
      digest_rib(d, member->rib());
      digest_rib(d, member->rib<net::Prefix6>());
      for (const auto& p : member->blackholed_prefixes()) d.add(p.str());
      for (const auto& p : member->blackholed_prefixes<net::Prefix6>()) d.add(p.str());
      d.add(std::to_string(member->rejected_more_specifics()));
    }
    const RouteServer& rs = ixp->route_server();
    digest_rib(d, rs.adj_rib_in());
    digest_rib(d, rs.adj_rib_in<net::Prefix6>());
    const auto& r = rs.rejects();
    d.add(std::to_string(r.bogon) + " " + std::to_string(r.irr_unauthorized) + " " +
          std::to_string(r.rpki_invalid) + " " + std::to_string(r.too_specific) + " " +
          std::to_string(r.origin_mismatch));
    return d.value();
  }
};

std::string Hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

TEST(AfiParityTest, ScriptDigestIsPinned) {
  const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
      {1, 0x351274af573c6cb7ULL},
      {2, 0x9f4525c7096bdffeULL},
      {3, 0xd68ea8f7b5b7ded0ULL},
  };
  for (const auto& [seed, expected] : pinned) {
    Script script(seed);
    script.run_all();
    EXPECT_EQ(Hex(script.digest()), Hex(expected)) << "seed " << seed;
  }
}

TEST(AfiParityTest, ScriptExercisesEveryPath) {
  Script script(1);
  script.run_all();
  const RouteServer& rs = script.ixp->route_server();
  EXPECT_GT(rs.rejects().bogon, 0u);
  EXPECT_GT(rs.rejects().irr_unauthorized, 0u);
  EXPECT_GT(rs.rejects().too_specific, 0u);
  EXPECT_GT(rs.rejects().origin_mismatch, 0u);
  EXPECT_FALSE(rs.blackhole_events().empty());
  EXPECT_FALSE(rs.blackhole_events<net::Prefix6>().empty());
  EXPECT_GE(script.members[0]->reconnector()->stats().reconnects, 1u);
  EXPECT_TRUE(script.members[0]->session()->established());
  std::size_t rejected = 0;
  for (const MemberRouter* member : script.members) rejected += member->rejected_more_specifics();
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace stellar::ixp
