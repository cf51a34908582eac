#include "sim/event_queue.hpp"

#include <algorithm>
#include <memory>
#include <utility>

namespace stellar::sim {

void EventQueue::schedule_at(SimTime at, Callback cb) {
  post(std::max(at, now_), next_seq_++, std::move(cb));
}

void EventQueue::post(SimTime at, std::uint64_t seq, Callback cb, std::unique_ptr<Batch> batch) {
  heap_.push_back(Event{at, seq, std::move(cb), std::move(batch)});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Batch* EventQueue::join_batch(SimTime at, const void* tag) {
  if (open_.batch == nullptr || open_.tag != tag || open_.at != std::max(at, now_) ||
      open_.last_seq + 1 != next_seq_) {
    return nullptr;
  }
  open_.last_seq = next_seq_++;
  return open_.batch;
}

void EventQueue::open_batch(SimTime at, const void* tag, std::unique_ptr<Batch> batch) {
  at = std::max(at, now_);
  open_ = OpenBatch{batch.get(), tag, at, next_seq_};
  post(at, next_seq_++, nullptr, std::move(batch));
}

void EventQueue::dispatch_next() {
  // Move out before running: the callback may schedule new events.
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  now_ = ev.at;
  open_.batch = nullptr;
  ++dispatched_;
  if (ev.batch) {
    ev.batch->run();
  } else {
    ev.cb();
  }
}

void EventQueue::run_until(SimTime until) {
  while (!heap_.empty() && heap_.front().at <= until) dispatch_next();
  if (now_ < until) now_ = until;
}

void EventQueue::run() {
  while (!heap_.empty()) dispatch_next();
}

void Timer::arm_at(SimTime at) {
  State& s = *state_;
  s.deadline = std::max(at, s.queue.now_);
  s.seq = s.queue.next_seq_++;
  s.armed = true;
  if (s.posted_at > s.deadline) post(state_);
}

void Timer::post(const std::shared_ptr<State>& state) {
  state->posted_at = state->deadline;
  state->posted_seq = state->seq;
  state->queue.post(state->deadline, state->seq, [state, seq = state->seq] { fire(state, seq); });
}

void Timer::fire(const std::shared_ptr<State>& state, std::uint64_t seq) {
  State& s = *state;
  if (seq != s.posted_seq) return;  // Left behind by an earlier deadline.
  s.posted_at = SimTime::max();
  if (!s.armed) return;
  // Re-armed since this was posted: the live key is still ahead of this
  // event (same or later time, larger seq), so move there.
  if (seq != s.seq) return post(state);
  s.armed = false;
  s.cb();
}

}  // namespace stellar::sim
