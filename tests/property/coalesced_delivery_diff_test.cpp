// Differential test: coalesced delivery against one queued event per send.
// A send of frame F that arrives at instant t joins the open Delivery of F
// for t when it takes the sequence number just after that Delivery's last
// one; the Delivery makes its arrivals in order, as one event. The reference
// run gives every link a pass-through fault filter, so every send travels as
// a private copy under a frame of its own, and no two sends ever share an
// event.
//
// Both runs play one seeded script over a hub (a route server's side) and
// kLinks peers on mixed links: clean links that go lazy, zero-latency links,
// slow links (latency above hold/3, so their keepalive timers run and each
// send's timer arm splits a Delivery), links without timers (hold time 0),
// and faulty links whose filter adds delay and drops, in both runs. Steps:
// SharedUpdate fan-outs in random order, two fan-outs interleaved, an event
// posted or a timer armed in the middle of a fan-out, one frame sent at two
// instants, withdraw fan-outs, raw Endpoint sends of one frame, stop() and
// Endpoint::close() from either side, and idle stretches. Receivers react in
// their handlers: a peer replies with an UPDATE, which the hub re-exports to
// every other peer, or posts an event at its own instant. After every step
// the two runs must agree on the log of every receive (time, receiver,
// message kind), every posted event and timer, and each session's counters
// and state and each endpoint's Stats.
//
// The unit cases below pin what makes coalescing exact: a timer arm or an
// event posted between two sends splits the Delivery, one frame sent at two
// instants makes two, an arrival whose peer closed in flight counts as
// dropped, zero-latency links coalesce too, and an event a receiver posts at
// the Delivery's instant runs after all of its arrivals.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "bgp/session.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace stellar::bgp {
namespace {

enum class LinkKind { kLazy, kZeroLatency, kSlow, kNoTimers, kFaulty };
constexpr std::array<LinkKind, 5> kKinds = {LinkKind::kLazy, LinkKind::kZeroLatency,
                                            LinkKind::kSlow, LinkKind::kNoTimers,
                                            LinkKind::kFaulty};
constexpr std::size_t kLinks = 15;
constexpr int kSteps = 200;
constexpr Asn kHubAsn = 64500;

net::Prefix4 P4(const std::string& text) { return net::Prefix4::Parse(text).value(); }

UpdateMessage Announce(const net::Prefix4& prefix, Asn origin) {
  UpdateMessage u;
  u.attrs.origin = Origin::kIgp;
  u.attrs.as_path = {{AsPathSegment::Type::kSequence, {origin}}};
  u.attrs.next_hop = net::IPv4Address(10, 0, 0, 1);
  u.announced.push_back(Nlri4{0, prefix});
  return u;
}

UpdateMessage Withdraw(const net::Prefix4& prefix) {
  UpdateMessage u;
  u.withdrawn.push_back(Nlri4{0, prefix});
  return u;
}

std::string Time(sim::SimTime t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", t.count());
  return buf;
}

std::string Describe(const UpdateMessage& u) {
  if (!u.announced.empty()) return "announce " + u.announced.front().prefix.str();
  if (!u.withdrawn.empty()) return "withdraw " + u.withdrawn.front().prefix.str();
  return "empty";
}

/// One run of the script: the hub's sessions and the peers', one link each.
class Net {
 public:
  Net(std::uint64_t seed, bool private_copies) : rng_(seed) {
    for (std::size_t i = 0; i < kLinks; ++i) add_link(i, private_copies);
    queue_.run_until(sim::Seconds(10.0));
  }

  /// Plays one step of the script, then lets the queue run for a while.
  void step(int n) {
    const auto op = rng_.uniform_int(0, 99);
    if (op < 25) {
      fan_out(Announce(Prefix(n), kHubAsn), nullptr, Middle::kNone);
    } else if (op < 35) {
      // Two fan-outs interleaved: consecutive sends alternate frames.
      SharedUpdate other(Announce(P4("11." + std::to_string(n % 250) + ".0.0/24"), kHubAsn));
      fan_out(Announce(Prefix(n), kHubAsn), &other, Middle::kNone);
    } else if (op < 45) {
      fan_out(Announce(Prefix(n), kHubAsn), nullptr, Middle::kPost);
    } else if (op < 55) {
      fan_out(Announce(Prefix(n), kHubAsn), nullptr, Middle::kTimer);
    } else if (op < 62) {
      fan_out(Announce(Prefix(n), kHubAsn), nullptr, Middle::kAdvance);
    } else if (op < 70) {
      fan_out(Withdraw(Prefix(n - 1 - static_cast<int>(pick(5)))), nullptr, Middle::kNone);
    } else if (op < 76) {
      raw_send(n);
    } else if (op < 79) {
      const std::size_t i = pick(kLinks);
      Session& s = rng_.chance(0.5) ? *hub_[i] : *peer_[i];
      s.stop();
    } else if (op < 81) {
      const std::size_t i = pick(kLinks);
      (rng_.chance(0.5) ? links_[i].first : links_[i].second)->close();
    }
    const double idle[] = {0.0, 0.0005, 0.001, 0.002, 0.5, 3.0, 40.0};
    queue_.run_until(queue_.now() + sim::Seconds(idle[pick(std::size(idle))]));
  }

  /// Everything a step may change: the log so far and every counter.
  [[nodiscard]] std::vector<std::string> state() const {
    std::vector<std::string> out = log_;
    for (std::size_t i = 0; i < kLinks; ++i) {
      for (const Session* s : {hub_[i].get(), peer_[i].get()}) {
        out.push_back(std::string(ToString(s->state())) + " sent=" +
                      std::to_string(s->updates_sent()) +
                      " received=" + std::to_string(s->updates_received()));
      }
      for (const auto& end : {links_[i].first, links_[i].second}) {
        out.push_back("after_close=" + std::to_string(end->stats().sends_after_close) +
                      " dropped=" + std::to_string(end->stats().dropped_bytes));
      }
    }
    return out;
  }

  [[nodiscard]] std::uint64_t dispatched() const { return queue_.dispatched(); }

 private:
  enum class Middle { kNone, kPost, kTimer, kAdvance };

  static net::Prefix4 Prefix(int n) {
    return P4("10." + std::to_string(n % 250) + "." + std::to_string(n % 7) + ".0/24");
  }

  void add_link(std::size_t i, bool private_copies) {
    // Links of one kind are neighbours: the hub's re-export, in link order,
    // coalesces each block of clean links.
    const LinkKind kind = kKinds[i * kKinds.size() / kLinks];
    sim::Duration latency = sim::Millis(1.0);
    std::uint16_t hold = 90;
    if (kind == LinkKind::kZeroLatency) latency = sim::Seconds(0.0);
    if (kind == LinkKind::kSlow) {
      latency = sim::Seconds(2.0);
      hold = 3;  // Keepalives every second: slower than the link, so eager.
    }
    if (kind == LinkKind::kNoTimers) hold = 0;
    auto [hub_end, peer_end] = MakeLink(queue_, latency);
    if (kind == LinkKind::kFaulty) {
      for (const auto& end : {hub_end, peer_end}) {
        end->set_fault_filter([n = 0](std::vector<std::uint8_t>&, sim::Duration& extra) mutable {
          ++n;
          extra = sim::Millis(0.5 * (n % 3));
          return n % 11 != 0;
        });
      }
    } else if (private_copies) {
      const auto pass = [](std::vector<std::uint8_t>&, sim::Duration&) { return true; };
      hub_end->set_fault_filter(pass);
      peer_end->set_fault_filter(pass);
    }
    links_.emplace_back(hub_end, peer_end);

    SessionConfig hub_config;
    hub_config.local_asn = kHubAsn;
    hub_config.hold_time_s = hold;
    SessionConfig peer_config = hub_config;
    peer_config.local_asn = static_cast<Asn>(65001 + i);
    hub_.push_back(std::make_unique<Session>(queue_, hub_end, hub_config));
    peer_.push_back(std::make_unique<Session>(queue_, peer_end, peer_config));
    Session& hub = *hub_.back();
    Session& peer = *peer_.back();
    const std::string who = std::to_string(i);
    hub.set_state_handler([this, who](SessionState s) { note("hub " + who, ToString(s)); });
    peer.set_state_handler([this, who](SessionState s) { note("peer " + who, ToString(s)); });
    hub.set_update_handler([this, i](const UpdateMessage& u) {
      note("hub " + std::to_string(i), "UPDATE " + Describe(u));
      // A route server: re-export a peer's route to every other peer.
      if (u.announced.empty()) return;
      SharedUpdate out(Announce(P4("30." + std::to_string(i) + ".0.0/24"), kHubAsn));
      for (std::size_t j = 0; j < kLinks; ++j) {
        if (j != i) hub_[j]->announce(out);
      }
    });
    peer.set_update_handler([this, i, &peer](const UpdateMessage& u) {
      note("peer " + std::to_string(i), "UPDATE " + Describe(u));
      if (u.announced.empty() || u.announced.front().prefix.address().value() >> 24 != 10) return;
      const std::uint32_t third = (u.announced.front().prefix.address().value() >> 8) & 0xff;
      if (third % 3 == 0 && i % 2 == 0) {
        peer.announce(Announce(P4("20." + std::to_string(i) + ".0.0/24"),
                               static_cast<Asn>(65001 + i)));
      } else if (third % 3 == 1) {
        queue_.schedule_after(sim::Seconds(0.0),
                              [this, i] { note("peer " + std::to_string(i), "posted"); });
      }
    });
    hub.start();
    peer.start();
  }

  void note(const std::string& who, std::string_view what) {
    log_.push_back(Time(queue_.now()) + " " + who + " " + std::string(what));
  }

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  /// Announces `update` on a random subset of the hub's sessions, in random
  /// order; `other`, if set, goes to about a fifth of them instead. `middle`
  /// says what happens halfway through.
  void fan_out(UpdateMessage update, SharedUpdate* other, Middle middle) {
    SharedUpdate shared(std::move(update));
    std::vector<std::size_t> order(kLinks);
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t k = order.size(); k > 1; --k) std::swap(order[k - 1], order[pick(k)]);
    order.resize(1 + pick(kLinks));
    for (std::size_t k = 0; k < order.size(); ++k) {
      if (k == order.size() / 2) {
        if (middle == Middle::kPost) {
          queue_.schedule_after(sim::Millis(1.0), [this] { note("hub", "posted"); });
        } else if (middle == Middle::kTimer) {
          timer_.arm_after(sim::Millis(1.0));
        } else if (middle == Middle::kAdvance) {
          queue_.run_until(queue_.now() + sim::Millis(0.5));
        }
      }
      Session& hub = *hub_[order[k]];
      if (other != nullptr && rng_.chance(0.2)) {
        hub.announce(*other);
      } else {
        hub.announce(shared);
      }
    }
  }

  /// Sends one frame from outside the sessions on a few links: each link
  /// turns eager first, then takes the shared frame.
  void raw_send(int n) {
    SharedUpdate shared(Announce(P4("40." + std::to_string(n % 250) + ".0.0/24"), kHubAsn));
    const FramePtr& frame = shared.frame(CodecOptions{});
    const std::size_t count = 1 + pick(4);
    for (std::size_t k = 0; k < count; ++k) {
      const std::size_t i = pick(kLinks);
      if (hub_[i]->established()) links_[i].first->send(frame);
    }
  }

  util::Rng rng_;
  sim::EventQueue queue_;
  std::vector<std::pair<std::shared_ptr<Endpoint>, std::shared_ptr<Endpoint>>> links_;
  std::vector<std::unique_ptr<Session>> hub_;
  std::vector<std::unique_ptr<Session>> peer_;
  std::vector<std::string> log_;
  sim::Timer timer_{queue_, [this] { note("hub", "timer"); }};
};

class CoalescedDeliveryDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoalescedDeliveryDiffTest, AgreesWithOneEventPerSend) {
  Net coalesced(GetParam(), /*private_copies=*/false);
  Net reference(GetParam(), /*private_copies=*/true);
  ASSERT_EQ(coalesced.state(), reference.state());
  for (int n = 0; n < kSteps; ++n) {
    coalesced.step(n);
    reference.step(n);
    const auto got = coalesced.state();
    const auto want = reference.state();
    ASSERT_EQ(got.size(), want.size()) << "step " << n;
    for (std::size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k], want[k]) << "step " << n << ", line " << k;
    }
  }
  // Fewer events, although the reference's extra keepalive timers blur how
  // many sends joined a Delivery (the unit cases and work_budget_test count
  // that exactly).
  EXPECT_LT(coalesced.dispatched(), reference.dispatched());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoalescedDeliveryDiffTest, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------------------
// Unit cases over raw links.

/// `n` links from one queue; each receiving end logs its arrivals.
struct Fan {
  Fan(std::size_t n, sim::Duration latency) {
    for (std::size_t i = 0; i < n; ++i) {
      auto [from, to] = MakeLink(queue, latency);
      to->set_receive_handler([this, i](const Frame&) { log.push_back("rx " + std::to_string(i)); });
      senders.push_back(from);
      receivers.push_back(to);
    }
  }
  sim::EventQueue queue;
  std::vector<std::shared_ptr<Endpoint>> senders;
  std::vector<std::shared_ptr<Endpoint>> receivers;
  std::vector<std::string> log;
  FramePtr frame = std::make_shared<const Frame>(std::vector<std::uint8_t>{1, 2, 3});
};

TEST(CoalescedDeliveryTest, ConsecutiveSendsShareOneEvent) {
  Fan fan(4, sim::Millis(1.0));
  for (const auto& s : fan.senders) s->send(fan.frame);
  EXPECT_EQ(fan.queue.pending(), 1u);
  EXPECT_EQ(fan.queue.next_seq(), 4u);  // Every send still took its number.
  fan.queue.run();
  EXPECT_EQ(fan.queue.dispatched(), 1u);
  EXPECT_EQ(fan.log, (std::vector<std::string>{"rx 0", "rx 1", "rx 2", "rx 3"}));
}

TEST(CoalescedDeliveryTest, TimerArmBetweenSendsSplitsTheBatch) {
  Fan fan(2, sim::Millis(1.0));
  sim::Timer timer(fan.queue, [&] { fan.log.push_back("timer"); });
  fan.senders[0]->send(fan.frame);
  timer.arm_after(sim::Millis(1.0));  // Same instant as the arrivals.
  fan.senders[1]->send(fan.frame);
  EXPECT_EQ(fan.queue.pending(), 3u);
  fan.queue.run();
  EXPECT_EQ(fan.log, (std::vector<std::string>{"rx 0", "timer", "rx 1"}));
}

TEST(CoalescedDeliveryTest, PostedEventBetweenSendsSplitsTheBatch) {
  Fan fan(2, sim::Millis(1.0));
  fan.senders[0]->send(fan.frame);
  fan.queue.schedule_after(sim::Millis(1.0), [&] { fan.log.push_back("posted"); });
  fan.senders[1]->send(fan.frame);
  EXPECT_EQ(fan.queue.pending(), 3u);
  fan.queue.run();
  EXPECT_EQ(fan.log, (std::vector<std::string>{"rx 0", "posted", "rx 1"}));
}

TEST(CoalescedDeliveryTest, OneFrameAtTwoInstantsMakesTwoBatches) {
  Fan fan(4, sim::Millis(1.0));
  fan.senders[0]->send(fan.frame);
  fan.senders[1]->send(fan.frame);
  fan.queue.run_until(sim::Millis(0.5));
  fan.senders[2]->send(fan.frame);
  fan.senders[3]->send(fan.frame);
  EXPECT_EQ(fan.queue.pending(), 2u);
  std::vector<double> at;
  for (const auto& r : fan.receivers) {
    r->set_receive_handler([&](const Frame&) { at.push_back(fan.queue.now().count()); });
  }
  fan.queue.run();
  EXPECT_EQ(fan.queue.dispatched(), 2u);
  const double first = sim::Millis(1.0).count();
  const double second = (sim::Millis(0.5) + sim::Millis(1.0)).count();
  EXPECT_EQ(at, (std::vector<double>{first, first, second, second}));
}

TEST(CoalescedDeliveryTest, DifferentFramesDoNotJoin) {
  Fan fan(2, sim::Millis(1.0));
  fan.senders[0]->send(fan.frame);
  fan.senders[1]->send(std::make_shared<const Frame>(std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(fan.queue.pending(), 2u);
}

TEST(CoalescedDeliveryTest, PeerClosedByAnEarlierArrivalCountsAsDropped) {
  Fan fan(3, sim::Millis(1.0));
  // The first arrival closes the second link's receiving end while the
  // frame is in flight to it.
  fan.receivers[0]->set_receive_handler([&](const Frame&) {
    fan.log.push_back("rx 0");
    fan.receivers[1]->close();
  });
  for (const auto& s : fan.senders) s->send(fan.frame);
  ASSERT_EQ(fan.queue.pending(), 1u);
  fan.queue.run();
  EXPECT_EQ(fan.log, (std::vector<std::string>{"rx 0", "rx 2"}));
  EXPECT_EQ(fan.senders[0]->stats().dropped_bytes, 0u);
  EXPECT_EQ(fan.senders[1]->stats().dropped_bytes, 3u);
  EXPECT_EQ(fan.senders[2]->stats().dropped_bytes, 0u);
}

TEST(CoalescedDeliveryTest, SenderGoneInFlightDropsUncounted) {
  Fan fan(2, sim::Millis(1.0));
  for (const auto& s : fan.senders) s->send(fan.frame);
  fan.receivers[1]->close();
  fan.senders[1].reset();  // Nobody left to count the loss.
  fan.queue.run();
  EXPECT_EQ(fan.log, (std::vector<std::string>{"rx 0"}));
}

TEST(CoalescedDeliveryTest, ZeroLatencyLinksCoalesce) {
  Fan fan(3, sim::Seconds(0.0));
  fan.queue.schedule_at(sim::Seconds(0.0), [&] {
    fan.log.push_back("event");
    for (const auto& s : fan.senders) s->send(fan.frame);
    fan.log.push_back("sent");
  });
  fan.queue.run();
  EXPECT_EQ(fan.queue.dispatched(), 2u);
  EXPECT_EQ(fan.log, (std::vector<std::string>{"event", "sent", "rx 0", "rx 1", "rx 2"}));
  EXPECT_EQ(fan.queue.now(), sim::Seconds(0.0));
}

TEST(CoalescedDeliveryTest, EventAReceiverPostsRunsAfterTheWholeBatch) {
  Fan fan(3, sim::Seconds(0.0));
  fan.receivers[0]->set_receive_handler([&](const Frame&) {
    fan.log.push_back("rx 0");
    fan.queue.schedule_after(sim::Seconds(0.0), [&] { fan.log.push_back("posted by 0"); });
  });
  for (const auto& s : fan.senders) s->send(fan.frame);
  fan.queue.run();
  EXPECT_EQ(fan.log, (std::vector<std::string>{"rx 0", "rx 1", "rx 2", "posted by 0"}));
}

TEST(CoalescedDeliveryTest, ASendFromAnArrivalOpensANewBatch) {
  // The Delivery closed when its event was popped: the same frame sent again
  // at its instant, from one of its own arrivals, queues a new event.
  Fan fan(3, sim::Seconds(0.0));
  fan.receivers[0]->set_receive_handler([&](const Frame&) {
    fan.log.push_back("rx 0");
    fan.senders[2]->send(fan.frame);
  });
  fan.senders[0]->send(fan.frame);
  fan.senders[1]->send(fan.frame);
  fan.queue.run();
  EXPECT_EQ(fan.queue.dispatched(), 2u);
  EXPECT_EQ(fan.log, (std::vector<std::string>{"rx 0", "rx 1", "rx 2"}));
}

}  // namespace
}  // namespace stellar::bgp
