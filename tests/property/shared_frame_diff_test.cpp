// Differential test: shared frames (the route server encodes one UPDATE per
// update group; each receiver takes the frame's one decode per rx codec)
// against the per-session decode they replace. The reference run installs a
// bgp::SetLinkHook that gives every link a pass-through fault filter, so
// every send travels as a private copy its receiver decodes alone. Both runs
// play the same seeded script on 12 members: announces under open, exclude-k
// and announce-to-none plus include-k scopes; RTBH /32s; withdraws;
// ROUTE-REFRESH; import-policy flips; session kills answered by
// connect_resilient re-joins; and a FaultInjector plan (drops, corruption,
// jitter and a scheduled kill) on three members' links. After every step,
// each member's RIB, blackholed set and session counters must equal the
// reference's, and the two journals must be byte-identical.
//
// Three targeted cases pin what a differential run cannot see, because both
// runs share the code they check: the decode memo is keyed by rx codec,
// bytes already buffered ahead of a frame are reassembled with it, and a
// fault filter never changes a frame other peers receive.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "bgp/session.hpp"
#include "ixp/ixp.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/fault.hpp"
#include "util/rng.hpp"

namespace stellar::ixp {
namespace {

constexpr std::size_t kMembers = 12;
constexpr std::size_t kFaultyMembers = 3;  ///< Members 0..2 dial through the FaultInjector.
constexpr int kSteps = 60;

net::Prefix4 P4(const std::string& text) { return net::Prefix4::Parse(text).value(); }
bgp::Asn Asn(std::size_t i) { return static_cast<bgp::Asn>(65001 + i); }

/// Number of paths `rib` holds for `prefix`.
template <typename RibT>
std::size_t PathCount(const RibT& rib, const net::Prefix4& prefix) {
  std::size_t count = 0;
  rib.visit_prefix(prefix, [&](const bgp::RouteView&) { ++count; });
  return count;
}

std::string Hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  char buf[3];
  for (const std::uint8_t b : bytes) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

/// Everything the step check compares for one member.
std::string Describe(MemberRouter& member) {
  std::string out;
  member.rib().for_each([&](const bgp::RouteView& r) {
    bgp::UpdateMessage attrs_only;
    attrs_only.attrs = r.attrs;
    out += r.prefix.str() + " " + Hex(bgp::Encode(attrs_only)) + "\n";
  });
  for (const auto& prefix : member.blackholed_prefixes()) out += "blackholed " + prefix.str() + "\n";
  if (const bgp::Session* session = member.session()) {
    out += "session " + std::string(bgp::ToString(session->state())) +
           " sent=" + std::to_string(session->updates_sent()) +
           " received=" + std::to_string(session->updates_received()) + "\n";
  }
  return out;
}

/// Gives every link created while alive a pass-through fault filter: each
/// send becomes a private copy, decoded by its receiver alone.
class PrivateCopies {
 public:
  PrivateCopies() {
    previous_ = bgp::SetLinkHook(
        [](const std::shared_ptr<bgp::Endpoint>& a, const std::shared_ptr<bgp::Endpoint>& b) {
          const auto pass = [](std::vector<std::uint8_t>&, sim::Duration&) { return true; };
          a->set_fault_filter(pass);
          b->set_fault_filter(pass);
        });
  }
  ~PrivateCopies() { bgp::SetLinkHook(std::move(previous_)); }
  PrivateCopies(const PrivateCopies&) = delete;
  PrivateCopies& operator=(const PrivateCopies&) = delete;

 private:
  bgp::LinkHook previous_;
};

struct Outcome {
  std::vector<std::vector<std::string>> steps;  ///< Per step, per member.
  std::string journal;
  std::uint64_t updates_decoded = 0;
};

class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed), injector_(queue_, Plan(seed)) {
    ixp_ = std::make_unique<Ixp>(queue_);
    for (std::size_t i = 0; i < kMembers; ++i) {
      MemberSpec spec;
      spec.asn = Asn(i);
      spec.address_space = P4("60." + std::to_string(i + 1) + ".0.0/20");
      spec.policy.accepts_more_specifics = i % 3 != 0;
      spec.policy.participates_in_rtbh = i % 4 != 1;
      members_.push_back(&ixp_->add_member(spec));
    }
    bgp::ReconnectPolicy policy;
    policy.initial_backoff_s = 1.0;
    policy.jitter_frac = 0.0;
    policy.dial_timeout_s = 10.0;
    policy.suppress_threshold = 1e9;
    for (std::size_t i = 0; i < kMembers; ++i) {
      members_[i]->connect_resilient(
          [this, i] {
            // Every link a faulty member dials carries the injector's faults.
            if (i < kFaultyMembers) injector_.arm();
            auto endpoint = ixp_->route_server().accept_member(Asn(i));
            injector_.disarm();
            return endpoint;
          },
          policy);
    }
    ixp_->settle(30.0);
  }

  void step() {
    const auto op = rng_.uniform_int(0, 99);
    const std::size_t m = pick(kMembers);
    if (op < 30) {
      const auto prefix = P4("60." + std::to_string(m + 1) + "." + std::to_string(pick(8)) + ".0/24");
      announce(m, prefix, scope(m));
    } else if (op < 45) {
      const auto prefix = P4("60." + std::to_string(m + 1) + ".0." + std::to_string(1 + pick(6)) + "/32");
      auto communities = scope(m);
      communities.push_back(bgp::kBlackhole);
      announce(m, prefix, std::move(communities));
    } else if (op < 65) {
      if (!announced_.empty()) {
        const std::size_t i = pick(announced_.size());
        members_[announced_[i].first]->withdraw(announced_[i].second);
        announced_.erase(announced_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (op < 77) {
      bgp::Session* session = members_[m]->session();
      if (session != nullptr) session->request_route_refresh(bgp::kAfiIPv4);
    } else if (op < 87) {
      MemberPolicy policy = members_[m]->info().policy;
      policy.accepts_more_specifics = !policy.accepts_more_specifics;
      members_[m]->update_policy(policy);
    } else {
      bgp::Session* session = members_[m]->session();
      if (session != nullptr) session->stop();
    }
    ixp_->settle(5.0);
  }

  [[nodiscard]] std::vector<std::string> describe() const {
    std::vector<std::string> out;
    for (MemberRouter* member : members_) out.push_back(Describe(*member));
    return out;
  }

 private:
  static sim::FaultPlan Plan(std::uint64_t seed) {
    sim::FaultPlan plan;
    plan.seed = seed;
    plan.drop_probability = 0.03;
    plan.corrupt_probability = 0.05;
    plan.jitter_max_s = 0.05;
    plan.window_start_s = 40.0;
    plan.window_end_s = 200.0;
    plan.session_kills.push_back({120.0, sim::FaultPlan::kAllLinks});
    return plan;
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Open, exclude-k, or announce-to-none plus include-k.
  std::vector<bgp::Community> scope(std::size_t self) {
    const RouteServer& rs = ixp_->route_server();
    std::vector<bgp::Community> out;
    const std::size_t k = 1 + pick(3);
    switch (rng_.uniform_int(0, 2)) {
      case 0:
        break;
      case 1:
        for (std::size_t j = 0; j < k; ++j) {
          out.push_back(rs.exclude_peer(Asn((self + 1 + pick(kMembers - 1)) % kMembers)));
        }
        break;
      default:
        out.push_back(rs.announce_to_none());
        for (std::size_t j = 0; j < k; ++j) {
          out.push_back(rs.include_peer(Asn((self + 1 + pick(kMembers - 1)) % kMembers)));
        }
        break;
    }
    return out;
  }

  void announce(std::size_t m, const net::Prefix4& prefix, std::vector<bgp::Community> communities) {
    members_[m]->announce(prefix, std::move(communities));
    const std::pair<std::size_t, net::Prefix4> key{m, prefix};
    if (std::find(announced_.begin(), announced_.end(), key) == announced_.end()) {
      announced_.push_back(key);
    }
  }

  sim::EventQueue queue_;
  util::Rng rng_;
  sim::FaultInjector injector_;
  std::unique_ptr<Ixp> ixp_;
  std::vector<MemberRouter*> members_;
  std::vector<std::pair<std::size_t, net::Prefix4>> announced_;
};

Outcome RunScript(std::uint64_t seed) {
  obs::journal().clear();
  const std::uint64_t decoded_before = obs::registry().counter_total("bgp.codec.updates_decoded");
  Outcome outcome;
  {
    Script script(seed);
    for (int i = 0; i < kSteps; ++i) {
      script.step();
      outcome.steps.push_back(script.describe());
    }
  }
  outcome.journal = obs::journal().csv();
  outcome.updates_decoded =
      obs::registry().counter_total("bgp.codec.updates_decoded") - decoded_before;
  return outcome;
}

class SharedFrameDiffTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override { obs::registry().arm(); }
};

TEST_P(SharedFrameDiffTest, MembersMatchThePerSessionDecodeAfterEveryStep) {
  const Outcome shared = RunScript(GetParam());
  Outcome reference;
  {
    PrivateCopies private_copies;
    reference = RunScript(GetParam());
  }
  ASSERT_EQ(shared.steps.size(), reference.steps.size());
  for (std::size_t s = 0; s < shared.steps.size(); ++s) {
    for (std::size_t m = 0; m < kMembers; ++m) {
      ASSERT_EQ(shared.steps[s][m], reference.steps[s][m]) << "step " << s << " member " << m;
    }
  }
  EXPECT_EQ(shared.journal, reference.journal);
  // The script reached the faults, and the shared run did share decodes.
  EXPECT_NE(shared.journal.find("fault_corrupt"), std::string::npos);
  EXPECT_NE(shared.journal.find("fault_kill"), std::string::npos);
  EXPECT_LT(shared.updates_decoded * 4, reference.updates_decoded * 3);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedFrameDiffTest, ::testing::Values(1, 2, 3));

// -- What the differential run cannot see ------------------------------------

TEST(SharedFrameTest, DecodeIsMemoisedPerRxCodec) {
  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::kIgp;
  update.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65001}}};
  update.attrs.next_hop = net::IPv4Address(10, 0, 0, 1);
  update.announced = {{7, P4("10.0.0.0/8")}};
  bgp::CodecOptions add_path;
  add_path.add_path_ipv4_unicast = true;
  const bgp::CodecOptions plain;
  const bgp::Frame frame(bgp::Encode(update, add_path));

  const bgp::Message* with_ids = frame.message(add_path);
  ASSERT_NE(with_ids, nullptr);
  EXPECT_EQ(std::get<bgp::UpdateMessage>(*with_ids), update);
  // The same bytes read without path ids are not a well-formed UPDATE.
  ASSERT_FALSE(bgp::Decode(frame.bytes(), plain).ok());
  EXPECT_EQ(frame.message(plain), nullptr);
  // Each codec's result is kept: the same object comes back.
  EXPECT_EQ(frame.message(add_path), with_ids);
}

TEST(SharedFrameTest, OnlyOneWholeMessageOfAnyKindIsDecoded) {
  const bgp::CodecOptions codec;
  const std::vector<std::uint8_t> keepalive = bgp::Encode(bgp::KeepaliveMessage{});
  const bgp::Frame one(keepalive);
  const bgp::Message* decoded = one.message(codec);
  ASSERT_NE(decoded, nullptr);
  EXPECT_TRUE(std::holds_alternative<bgp::KeepaliveMessage>(*decoded));

  // Two messages in one frame, or part of one, go to stream reassembly.
  std::vector<std::uint8_t> two = keepalive;
  two.insert(two.end(), keepalive.begin(), keepalive.end());
  EXPECT_EQ(bgp::Frame(two).message(codec), nullptr);
  const std::vector<std::uint8_t> part(keepalive.begin(), keepalive.end() - 1);
  EXPECT_EQ(bgp::Frame(part).message(codec), nullptr);
}

TEST(SharedFrameTest, BytesBufferedAheadOfAFrameAreReassembledWithIt) {
  sim::EventQueue queue;
  auto [ours, theirs] = bgp::MakeLink(queue);
  bgp::SessionConfig config;
  config.local_asn = 65001;
  config.router_id = net::IPv4Address(10, 0, 0, 1);
  bgp::Session session(queue, ours, config);
  session.start();
  bgp::OpenMessage open;
  open.my_asn = 65002;
  open.bgp_identifier = net::IPv4Address(10, 0, 0, 2);
  open.add_four_octet_as_capability();
  theirs->send(bgp::Encode(open));
  theirs->send(bgp::Encode(bgp::KeepaliveMessage{}));
  queue.run_until(sim::Seconds(1.0));
  ASSERT_TRUE(session.established());

  // A NOTIFICATION whose data is a whole UPDATE, sent in two pieces: the
  // second piece alone is exactly that UPDATE. Reassembled, it is the tail
  // of the NOTIFICATION, which closes the session.
  bgp::UpdateMessage update;
  update.attrs.origin = bgp::Origin::kIgp;
  update.attrs.as_path = {{bgp::AsPathSegment::Type::kSequence, {65002}}};
  update.attrs.next_hop = net::IPv4Address(10, 0, 0, 2);
  update.announced = {{0, P4("60.2.0.0/20")}};
  bgp::NotificationMessage notification;
  notification.data = bgp::Encode(update);
  const std::vector<std::uint8_t> bytes = bgp::Encode(notification);
  const std::size_t head = bytes.size() - notification.data.size();
  theirs->send(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(head)));
  theirs->send(notification.data);
  queue.run_until(sim::Seconds(2.0));
  EXPECT_EQ(session.updates_received(), 0u);
  EXPECT_EQ(session.state(), bgp::SessionState::kClosed);
}

TEST(SharedFrameTest, AFaultFilterCorruptsOnlyItsOwnCopy) {
  sim::EventQueue queue;
  Ixp ixp(queue);
  // Once armed, the route server's side of the last member's link corrupts
  // the marker of every UPDATE it sends.
  std::size_t links = 0;
  bool corrupt = false;
  const bgp::LinkHook previous = bgp::SetLinkHook(
      [&](const std::shared_ptr<bgp::Endpoint>& server_side, const std::shared_ptr<bgp::Endpoint>&) {
        if (links++ != 3) return;
        server_side->set_fault_filter([&corrupt](std::vector<std::uint8_t>& bytes, sim::Duration&) {
          if (corrupt && bytes.size() > bgp::kHeaderSize &&
              bytes[bgp::kHeaderSize - 1] == static_cast<std::uint8_t>(bgp::MessageType::kUpdate)) {
            bytes[0] = 0;
          }
          return true;
        });
      });
  std::vector<MemberRouter*> members;
  for (std::size_t i = 0; i < 4; ++i) {
    MemberSpec spec;
    spec.asn = Asn(i);
    spec.address_space = P4("60." + std::to_string(i + 1) + ".0.0/20");
    members.push_back(&ixp.add_member(spec));
    ixp.settle(5.0);
  }
  bgp::SetLinkHook(previous);
  ixp.settle(30.0);
  ASSERT_TRUE(members[3]->session()->established());
  corrupt = true;
  members[0]->announce(P4("60.1.1.0/24"));
  ixp.settle(5.0);
  EXPECT_EQ(members[3]->session()->state(), bgp::SessionState::kClosed);
  for (std::size_t i = 1; i < 3; ++i) {
    EXPECT_TRUE(members[i]->session()->established()) << "member " << i;
    EXPECT_EQ(PathCount(members[i]->rib(), P4("60.1.1.0/24")), 1u) << "member " << i;
  }
}

}  // namespace
}  // namespace stellar::ixp
