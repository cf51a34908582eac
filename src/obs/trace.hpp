// Virtual-time-aware tracing (the second leg of the observability plane).
// The simulation has one authoritative clock — sim::EventQueue — but obs must
// stay below every other layer, so callers pass explicit timestamps (seconds
// on whatever clock they run; production code passes queue.now().count()).
//
// The workhorse is the point *mark*: each stage of the signal path stamps
// `tracer().mark(trace_id, stage, t_s)` as a mitigation flows through it
// (member announce → route-server ADD-PATH → controller rx/decode →
// token-bucket enqueue → edge-router install). `breakdown()` keeps the first
// occurrence of each stage, orders by time, and reports consecutive deltas —
// the deltas telescope, so per-stage spans sum *exactly* to the end-to-end
// signal→install latency. Trace ids are stable strings; the signal path keys
// traces by announced prefix ("100.10.10.10/32").
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace stellar::obs {

struct TraceEvent {
  std::string stage;
  double start_s = 0.0;
  double end_s = 0.0;  ///< == start_s: every event is a point mark.
};

class Tracer {
 public:
  struct Options {
    std::size_t max_traces = 4096;          ///< FIFO eviction beyond this.
    std::size_t max_events_per_trace = 64;  ///< Further events are dropped.
  };

  Tracer() : Tracer(Options{}) {}
  explicit Tracer(Options options) : options_(options) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Records that `trace_id` reached `stage` at time `t_s`.
  void mark(const std::string& trace_id, std::string_view stage, double t_s);

  /// Per-stage latency breakdown: first occurrence of each stage, ordered by
  /// time. delta_s is the time since the previous stage (0 for the first),
  /// so the deltas sum exactly to `back().at_s - front().at_s`.
  struct Stage {
    std::string stage;
    double at_s = 0.0;
    double delta_s = 0.0;
  };
  [[nodiscard]] std::vector<Stage> breakdown(const std::string& trace_id) const;

  [[nodiscard]] std::vector<TraceEvent> events(const std::string& trace_id) const;
  [[nodiscard]] std::size_t trace_count() const { return traces_.size(); }
  [[nodiscard]] std::uint64_t dropped_events() const { return dropped_events_; }

  /// CSV dump: header + one row per event (trace,stage,start_s,end_s).
  [[nodiscard]] std::string csv() const;

  static Tracer& global();

 private:
  struct TraceRec {
    std::vector<TraceEvent> events;
  };

  TraceRec* record_for(const std::string& trace_id);

  Options options_;
  std::map<std::string, TraceRec> traces_;
  std::deque<std::string> order_;  ///< Insertion order, drives FIFO eviction.
  std::uint64_t dropped_events_ = 0;
};

/// Shorthand for Tracer::global().
inline Tracer& tracer() { return Tracer::global(); }

}  // namespace stellar::obs
