// Discrete-event simulation kernel: a virtual clock and an event queue.
//
// All time-dependent behaviour in the system — BGP hold/keepalive timers, the
// network manager's token-bucket dequeue, attack ramp-up, traffic bins — runs
// against this clock, never against wall time, so experiments are exact and
// instantaneous to run.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace stellar::sim {

/// Simulation time. A duration since simulation start, in seconds with
/// double precision (std::chrono gives us unit safety for free).
using Duration = std::chrono::duration<double>;
using SimTime = Duration;

constexpr SimTime Seconds(double s) { return SimTime(s); }
constexpr SimTime Millis(double ms) { return SimTime(ms / 1e3); }

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Current virtual time. Starts at 0.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `cb` at absolute time `at`. Events scheduled for the past run
  /// at the current time. Events with equal timestamps run in scheduling
  /// order (FIFO) — this determinism matters for reproducibility.
  void schedule_at(SimTime at, Callback cb);

  /// Schedules `cb` `delay` after now().
  void schedule_after(Duration delay, Callback cb) { schedule_at(now_ + delay, std::move(cb)); }

  /// Runs events until the queue is empty or the clock would pass `until`;
  /// the clock is left at `until` (or at the last event if the queue drains).
  void run_until(SimTime until);

  /// Runs until the queue is fully drained.
  void run();

  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Events dispatched so far: a work counter, identical per seed on any host.
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_; }
  /// The sequence number the next event or timer arm takes: compares moments
  /// within one instant.
  [[nodiscard]] std::uint64_t next_seq() const { return next_seq_; }

  /// Calls that share one queued event: a run of calls for one instant, each
  /// of which took the sequence number just after the one before. They run
  /// in the order they joined, and since no other event or timer arm holds a
  /// sequence number inside the run, in the same order as one event each
  /// (DESIGN §8, coalesced delivery).
  class Batch {
   public:
    Batch() = default;
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    virtual ~Batch() = default;
    /// Makes the batch's calls, in the order they joined.
    virtual void run() = 0;
  };
  /// If the batch last opened under `tag` is due at `at` (clamped to now()),
  /// has not started, and took the sequence number just before next_seq(),
  /// takes the next one for the caller's call and returns that batch; the
  /// caller appends the call. Otherwise returns null and takes nothing. Each
  /// tag belongs to one Batch type, and must name a live object while its
  /// batch is queued.
  [[nodiscard]] Batch* join_batch(SimTime at, const void* tag);
  /// Queues `batch` as one event at `at` under the next sequence number (its
  /// first call's), open to join_batch() under `tag`. The queue owns it.
  void open_batch(SimTime at, const void* tag, std::unique_ptr<Batch> batch);

 private:
  friend class Timer;

  struct Event {
    SimTime at;
    std::uint64_t seq;  ///< Tie-breaker for deterministic FIFO ordering.
    Callback cb;
    std::unique_ptr<Batch> batch;  ///< Run instead of `cb` when set.
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Queues `cb`, or `batch` if set, under an already-taken (at, seq) key.
  void post(SimTime at, std::uint64_t seq, Callback cb, std::unique_ptr<Batch> batch = nullptr);
  /// Pops the earliest event, moves the clock to it and runs it.
  void dispatch_next();

  SimTime now_{0.0};
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::vector<Event> heap_;  ///< Binary min-heap under Later.
  /// The batch join_batch() may extend; closed (null) at every dispatch, so
  /// a batch never grows once its event has been popped.
  struct OpenBatch {
    Batch* batch = nullptr;
    const void* tag = nullptr;
    SimTime at{0.0};
    std::uint64_t last_seq = 0;
  } open_;
};

/// A re-armable one-shot deadline: the callback runs once, at the last
/// deadline arm_at() or arm_after() set, unless cancel() comes first. A
/// re-arm queues nothing while the timer's event is due at or before the new
/// deadline; that event, when it comes up early, re-posts itself. Each arm
/// takes one sequence number, as schedule_after() does, and the callback runs
/// at exactly that (deadline, seq) key, so no other event moves. The state is
/// shared with the queued event: the owner may die (the destructor cancels)
/// before it runs.
class Timer {
 public:
  Timer(EventQueue& queue, EventQueue::Callback cb)
      : state_(std::make_shared<State>(State{queue, std::move(cb)})) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Sets the deadline to `at` (clamped to now()).
  void arm_at(SimTime at);
  /// Sets the deadline to now() + `delay` (clamped to now()).
  void arm_after(Duration delay) { arm_at(state_->queue.now() + delay); }
  void cancel() { state_->armed = false; }
  /// True from an arm until the callback starts or cancel().
  [[nodiscard]] bool armed() const { return state_->armed; }

 private:
  struct State {
    EventQueue& queue;
    EventQueue::Callback cb;
    bool armed = false;
    SimTime deadline{0.0};  ///< The live arm's key: the callback runs at
    std::uint64_t seq = 0;  ///< exactly (deadline, seq).
    SimTime posted_at = SimTime::max();  ///< The queued event standing for the
    std::uint64_t posted_seq = 0;        ///< timer (max: none); others are no-ops.
  };
  static void post(const std::shared_ptr<State>& state);
  static void fire(const std::shared_ptr<State>& state, std::uint64_t seq);

  std::shared_ptr<State> state_;
};

}  // namespace stellar::sim
