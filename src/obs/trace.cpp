#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>

namespace stellar::obs {
namespace {

std::string FormatTime(double t_s) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.9f", t_s);
  return buf;
}

}  // namespace

Tracer::TraceRec* Tracer::record_for(const std::string& trace_id) {
  auto it = traces_.find(trace_id);
  if (it == traces_.end()) {
    while (traces_.size() >= options_.max_traces && !order_.empty()) {
      traces_.erase(order_.front());
      order_.pop_front();
    }
    it = traces_.emplace(trace_id, TraceRec{}).first;
    order_.push_back(trace_id);
  }
  if (it->second.events.size() >= options_.max_events_per_trace) {
    ++dropped_events_;
    return nullptr;
  }
  return &it->second;
}

void Tracer::mark(const std::string& trace_id, std::string_view stage, double t_s) {
  TraceRec* rec = record_for(trace_id);
  if (rec == nullptr) return;
  rec->events.push_back(TraceEvent{std::string(stage), t_s, t_s});
}

std::vector<Tracer::Stage> Tracer::breakdown(const std::string& trace_id) const {
  std::vector<Stage> out;
  const auto it = traces_.find(trace_id);
  if (it == traces_.end()) return out;

  // First occurrence per stage (replays and re-announcements re-stamp the
  // same stages; the first episode is the one the latency story is about),
  // then time order. stable_sort keeps insertion order for equal timestamps,
  // which is the causal order within one simulation tick.
  std::vector<TraceEvent> events;
  for (const TraceEvent& ev : it->second.events) {
    const bool seen = std::any_of(events.begin(), events.end(),
                                  [&](const TraceEvent& e) { return e.stage == ev.stage; });
    if (!seen) events.push_back(ev);
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.start_s < b.start_s; });

  out.reserve(events.size());
  for (const TraceEvent& ev : events) {
    Stage stage;
    stage.stage = ev.stage;
    stage.at_s = ev.start_s;
    stage.delta_s = out.empty() ? 0.0 : ev.start_s - out.back().at_s;
    out.push_back(std::move(stage));
  }
  return out;
}

std::vector<TraceEvent> Tracer::events(const std::string& trace_id) const {
  const auto it = traces_.find(trace_id);
  if (it == traces_.end()) return {};
  return it->second.events;
}

std::string Tracer::csv() const {
  std::string out = "trace,stage,start_s,end_s\n";
  for (const std::string& id : order_) {
    const auto it = traces_.find(id);
    if (it == traces_.end()) continue;
    for (const TraceEvent& ev : it->second.events) {
      out += id + "," + ev.stage + "," + FormatTime(ev.start_s) + "," + FormatTime(ev.end_s) +
             "\n";
    }
  }
  return out;
}

Tracer& Tracer::global() {
  static Tracer* instance = new Tracer();
  return *instance;
}

}  // namespace stellar::obs
