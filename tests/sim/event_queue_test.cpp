#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace stellar::sim {
namespace {

TEST(EventQueueTest, RunsEventsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(Seconds(2.0), [&] { order.push_back(2); });
  q.schedule_at(Seconds(1.0), [&] { order.push_back(1); });
  q.schedule_at(Seconds(3.0), [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Seconds(3.0));
}

TEST(EventQueueTest, EqualTimesRunFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(Seconds(1.0), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(Seconds(1.0), [&] { ++fired; });
  q.schedule_at(Seconds(5.0), [&] { ++fired; });
  q.run_until(Seconds(2.0));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Seconds(2.0));
  EXPECT_EQ(q.pending(), 1u);
  q.run_until(Seconds(10.0));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueueTest, PastEventsRunAtCurrentTime) {
  EventQueue q;
  q.run_until(Seconds(5.0));
  double seen = -1.0;
  q.schedule_at(Seconds(1.0), [&] { seen = q.now().count(); });
  q.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(EventQueueTest, CallbackCanScheduleMore) {
  EventQueue q;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) q.schedule_after(Seconds(1.0), recurse);
  };
  q.schedule_at(Seconds(0.0), recurse);
  q.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(q.now(), Seconds(4.0));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  q.run_until(Seconds(10.0));
  double fired_at = 0.0;
  q.schedule_after(Seconds(2.5), [&] { fired_at = q.now().count(); });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 12.5);
}

TEST(TimerTest, FiresAtDeadline) {
  EventQueue q;
  std::vector<double> fired;
  Timer timer(q, [&] { fired.push_back(q.now().count()); });
  timer.arm_after(Seconds(1.0));
  EXPECT_TRUE(timer.armed());
  q.run_until(Seconds(0.999));
  EXPECT_TRUE(fired.empty());
  q.run_until(Seconds(5.5));
  EXPECT_EQ(fired, (std::vector<double>{1.0}));
  EXPECT_FALSE(timer.armed());
}

TEST(TimerTest, RearmingFromTheCallbackRepeats) {
  EventQueue q;
  int count = 0;
  Timer timer(q, [&] {
    ++count;
    timer.arm_after(Seconds(1.0));
  });
  timer.arm_after(Seconds(1.0));
  q.run_until(Seconds(5.5));
  EXPECT_EQ(count, 5);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(TimerTest, RearmMovesTheDeadlineWithoutQueueingMore) {
  EventQueue q;
  std::vector<double> fired;
  Timer timer(q, [&] { fired.push_back(q.now().count()); });
  for (int i = 0; i < 100; ++i) {
    timer.arm_after(Seconds(2.0));
    q.run_until(q.now() + Seconds(0.5));
  }
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(fired.empty());
  q.run_until(Seconds(100.0));
  EXPECT_EQ(fired, (std::vector<double>{51.5}));
  // An earlier deadline fires at once, even with a later event queued.
  timer.arm_after(Seconds(5.0));
  timer.arm_after(Seconds(1.0));
  q.run_until(Seconds(110.0));
  EXPECT_EQ(fired, (std::vector<double>{51.5, 101.0}));
}

TEST(TimerTest, CancelStopsFiring) {
  EventQueue q;
  int count = 0;
  Timer timer(q, [&] { ++count; });
  timer.arm_after(Seconds(1.0));
  q.run_until(Seconds(0.5));
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  q.run_until(Seconds(10.0));
  EXPECT_EQ(count, 0);
  timer.arm_after(Seconds(1.0));
  q.run_until(Seconds(20.0));
  EXPECT_EQ(count, 1);
}

TEST(TimerTest, DestructorCancels) {
  EventQueue q;
  int count = 0;
  {
    Timer timer(q, [&] { ++count; });
    timer.arm_after(Seconds(1.0));
    q.run_until(Seconds(0.5));
  }
  q.run_until(Seconds(10.0));
  EXPECT_EQ(count, 0);
}

}  // namespace
}  // namespace stellar::sim
