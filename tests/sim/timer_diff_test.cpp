// Differential test: sim::Timer against the idiom it replaced, one
// schedule_after() per arm whose superseded events are no-ops (a generation
// counter) and whose events outliving the owner are no-ops (an alive token).
// Both must run the same callbacks at the same (time, seq) keys, so the two
// logs of (time, what ran, which timers are armed) must be identical, ties
// with plain events included, and both runs must end at the same now().
// The Timer run must also never hold more queued events than the reference:
// a re-post stands in for an event the reference still holds, never for a
// second copy.
//
// Scripts are seeded and run over 8 timers: arms with delays from a small
// grid of exact binary fractions (deadlines tie with each other and with
// plain schedule_after() events), cancels, destroy-and-recreate, run_until()
// slices, and callbacks that re-arm their own timer or arm, cancel or
// recreate another. The callbacks draw from the script's Rng, so both runs
// take the same actions for as long as they run callbacks in the same order.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace stellar::sim {
namespace {

constexpr int kTimers = 8;
constexpr int kSteps = 400;
constexpr std::array<double, 5> kDelayGrid = {0.0, 0.25, 0.5, 1.0, 1.5};

/// The reference: a fresh event per arm, made stale by a generation bump.
class ReferenceTimer {
 public:
  ReferenceTimer(EventQueue& queue, EventQueue::Callback cb)
      : queue_(queue), cb_(std::move(cb)) {}
  ~ReferenceTimer() { *alive_ = false; }
  ReferenceTimer(const ReferenceTimer&) = delete;
  ReferenceTimer& operator=(const ReferenceTimer&) = delete;

  void arm_after(Duration delay) {
    armed_ = true;
    queue_.schedule_after(delay, [this, gen = ++generation_, alive = alive_] {
      if (!*alive || gen != generation_) return;
      armed_ = false;
      cb_();
    });
  }
  void cancel() {
    ++generation_;
    armed_ = false;
  }
  [[nodiscard]] bool armed() const { return armed_; }

 private:
  EventQueue& queue_;
  EventQueue::Callback cb_;
  bool armed_ = false;
  std::uint64_t generation_ = 0;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

struct Entry {
  double at;
  std::string what;
  std::uint32_t armed_mask;
  bool operator==(const Entry&) const = default;
};

std::string Show(const Entry& e) {
  return "t=" + std::to_string(e.at) + " " + e.what + " armed=" + std::to_string(e.armed_mask);
}

template <class T>
class Script {
 public:
  explicit Script(std::uint64_t seed) : rng_(seed) {
    for (int i = 0; i < kTimers; ++i) recreate(i);
  }

  std::vector<Entry> run() {
    for (int step = 0; step < kSteps; ++step) {
      const int i = pick();
      switch (rng_.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3:
          at(i).arm_after(delay());
          break;
        case 4:
          at(i).cancel();
          break;
        case 5:
          recreate(i);
          break;
        case 6:
        case 7: {
          const int id = next_plain_++;
          queue_.schedule_after(delay(), [this, id] { on_plain(id); });
          break;
        }
        default:
          queue_.run_until(queue_.now() + delay());
          record("slice");
          break;
      }
    }
    queue_.run_until(queue_.now() + Seconds(10.0));
    record("end");
    return std::move(log_);
  }

  [[nodiscard]] SimTime now() const { return queue_.now(); }
  [[nodiscard]] int fires() const { return fires_; }
  /// queue.pending() at each log entry.
  [[nodiscard]] const std::vector<std::size_t>& pending() const { return pending_; }

 private:
  int pick() { return static_cast<int>(rng_.uniform_int(0, kTimers - 1)); }
  int other(int i) { return (i + static_cast<int>(rng_.uniform_int(1, kTimers - 1))) % kTimers; }
  Duration delay() {
    return Seconds(kDelayGrid[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(kDelayGrid.size()) - 1))]);
  }

  T& at(int i) { return *timers_[static_cast<std::size_t>(i)]; }
  void recreate(int i) {
    auto& slot = timers_[static_cast<std::size_t>(i)];
    slot.reset();  // The old timer dies before the new one takes a seq.
    slot = std::make_unique<T>(queue_, [this, i] { on_fire(i); });
  }

  void record(std::string what) {
    std::uint32_t mask = 0;
    for (int i = 0; i < kTimers; ++i) {
      if (at(i).armed()) mask |= 1u << i;
    }
    log_.push_back(Entry{queue_.now().count(), std::move(what), mask});
    pending_.push_back(queue_.pending());
  }

  void on_fire(int i) {
    ++fires_;
    record("timer" + std::to_string(i));
    switch (rng_.uniform_int(0, 5)) {
      case 0:
      case 1:
        at(i).arm_after(delay());
        break;
      case 2:
        at(other(i)).arm_after(delay());
        break;
      case 3:
        at(other(i)).cancel();
        break;
      case 4:
        recreate(other(i));
        break;
      default:
        break;
    }
  }

  void on_plain(int id) {
    record("plain" + std::to_string(id));
    if (rng_.chance(0.5)) at(pick()).arm_after(delay());
  }

  EventQueue queue_;
  util::Rng rng_;
  std::array<std::unique_ptr<T>, kTimers> timers_;
  std::vector<Entry> log_;
  std::vector<std::size_t> pending_;
  int next_plain_ = 0;
  int fires_ = 0;
};

class TimerDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TimerDiffTest, RunsEveryCallbackAtTheReferenceKey) {
  Script<ReferenceTimer> reference(GetParam());
  Script<Timer> timer(GetParam());
  const std::vector<Entry> want = reference.run();
  const std::vector<Entry> got = timer.run();
  for (std::size_t i = 0; i < std::min(want.size(), got.size()); ++i) {
    ASSERT_EQ(Show(got[i]), Show(want[i])) << "first difference at log entry " << i;
    ASSERT_LE(timer.pending()[i], reference.pending()[i]) << "at log entry " << i;
  }
  EXPECT_EQ(got.size(), want.size());
  EXPECT_EQ(timer.now(), reference.now());
  EXPECT_GT(reference.fires(), 100);  // The script exercises the timers.
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimerDiffTest, ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace stellar::sim
