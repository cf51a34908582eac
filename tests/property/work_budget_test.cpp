// Work budgets for the route server's fan-out, from deterministic counters
// (the same per seed on any host): events the queue dispatches and
// AttrPool::intern calls. A fan-out over lazy clean links is one queued
// event, its receivers share one intern per frame, and each import is one
// table write, so neither count may grow with the member count. The budgets
// are the counts measured when they were set, with little headroom: a change
// that adds one event or one intern per receiver fails them at either size.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>

#include "bgp/intern.hpp"
#include "ixp/ixp.hpp"
#include "sim/event_queue.hpp"

namespace stellar::ixp {
namespace {

/// Events dispatched per member while MakeLargeIxp sets up and settles
/// (9.0 when set).
constexpr double kSetupEventsPerMember = 10.0;
/// Events dispatched for a /24 announce or withdraw, run to quiescence: the
/// delivery to the route server and one Delivery for the update group.
constexpr std::uint64_t kFanOutEvents = 2;
/// AttrPool::intern calls for the announce: the route server's import, the
/// export attributes, and one for every receiver of the frame. A withdraw
/// interns nothing.
constexpr std::uint64_t kAnnounceInterns = 3;

struct Work {
  double setup_events_per_member = 0.0;
  std::uint64_t announce_events = 0;
  std::uint64_t announce_interns = 0;
  std::uint64_t withdraw_events = 0;
  std::uint64_t withdraw_interns = 0;
};

std::uint64_t InternCalls() {
  const auto& stats = bgp::AttrPool::global().stats();
  return stats.hits + stats.misses;
}

Work Measure(int member_count) {
  sim::EventQueue queue;
  LargeIxpParams params;
  params.member_count = member_count;
  auto ixp = MakeLargeIxp(queue, params);
  Work work;
  work.setup_events_per_member =
      static_cast<double>(queue.dispatched()) / static_cast<double>(member_count);

  MemberRouter& member = *ixp->members()[3];
  const net::Prefix4 prefix(member.info().address_space.address(), 24);
  std::uint64_t events = queue.dispatched();
  std::uint64_t interns = InternCalls();
  member.announce(prefix);
  ixp->settle(0.05);
  work.announce_events = queue.dispatched() - events;
  work.announce_interns = InternCalls() - interns;
  std::size_t holders = 0;
  for (const auto& m : ixp->members()) holders += m->rib().best(prefix).has_value() ? 1 : 0;
  EXPECT_EQ(holders, static_cast<std::size_t>(member_count - 1));

  events = queue.dispatched();
  interns = InternCalls();
  member.withdraw(prefix);
  ixp->settle(0.05);
  work.withdraw_events = queue.dispatched() - events;
  work.withdraw_interns = InternCalls() - interns;
  holders = 0;
  for (const auto& m : ixp->members()) holders += m->rib().best(prefix).has_value() ? 1 : 0;
  EXPECT_EQ(holders, 0u);
  return work;
}

TEST(WorkBudgetTest, FanOutWorkDoesNotGrowWithMembers) {
  const Work small = Measure(100);
  const Work large = Measure(200);
  EXPECT_EQ(small.announce_events, large.announce_events);
  EXPECT_EQ(small.announce_interns, large.announce_interns);
  EXPECT_EQ(small.withdraw_events, large.withdraw_events);
  EXPECT_EQ(small.withdraw_interns, large.withdraw_interns);
  for (const Work& w : {small, large}) {
    EXPECT_LE(w.setup_events_per_member, kSetupEventsPerMember);
    EXPECT_LE(w.announce_events, kFanOutEvents);
    EXPECT_LE(w.announce_interns, kAnnounceInterns);
    EXPECT_LE(w.withdraw_events, kFanOutEvents);
    EXPECT_EQ(w.withdraw_interns, 0u);
  }
}

}  // namespace
}  // namespace stellar::ixp
