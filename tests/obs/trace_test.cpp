#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <string>

namespace stellar::obs {
namespace {

// Local Tracer instances: the global one is shared with production code
// across the whole test binary.

TEST(Tracer, BreakdownDeltasTelescopeToEndToEnd) {
  Tracer tr;
  tr.mark("10.0.0.1/32", "member_announce", 1.0);
  tr.mark("10.0.0.1/32", "controller_rx", 2.0);
  tr.mark("10.0.0.1/32", "config_applied", 4.0);
  const auto stages = tr.breakdown("10.0.0.1/32");
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].stage, "member_announce");
  EXPECT_DOUBLE_EQ(stages[0].at_s, 1.0);
  EXPECT_DOUBLE_EQ(stages[0].delta_s, 0.0);
  EXPECT_EQ(stages[1].stage, "controller_rx");
  EXPECT_DOUBLE_EQ(stages[1].delta_s, 1.0);
  EXPECT_EQ(stages[2].stage, "config_applied");
  EXPECT_DOUBLE_EQ(stages[2].delta_s, 2.0);
  double sum = 0.0;
  for (const auto& s : stages) sum += s.delta_s;
  EXPECT_DOUBLE_EQ(sum, stages.back().at_s - stages.front().at_s);
}

TEST(Tracer, BreakdownKeepsFirstOccurrenceOfRepeatedStage) {
  // Route replays re-stamp stages; the breakdown must describe the first
  // episode, not the replay.
  Tracer tr;
  tr.mark("p", "controller_rx", 1.0);
  tr.mark("p", "config_applied", 2.0);
  tr.mark("p", "controller_rx", 10.0);
  const auto stages = tr.breakdown("p");
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[0].stage, "controller_rx");
  EXPECT_DOUBLE_EQ(stages[0].at_s, 1.0);
  EXPECT_EQ(stages[1].stage, "config_applied");
}

TEST(Tracer, SameTickStagesKeepCausalInsertionOrder) {
  // Zero-latency hops are common in the sim (same event-queue tick); order
  // of recording must break the time tie.
  Tracer tr;
  tr.mark("p", "controller_rx", 5.0);
  tr.mark("p", "controller_decode", 5.0);
  tr.mark("p", "config_enqueued", 5.0);
  const auto stages = tr.breakdown("p");
  ASSERT_EQ(stages.size(), 3u);
  EXPECT_EQ(stages[0].stage, "controller_rx");
  EXPECT_EQ(stages[1].stage, "controller_decode");
  EXPECT_EQ(stages[2].stage, "config_enqueued");
  EXPECT_DOUBLE_EQ(stages[1].delta_s, 0.0);
  EXPECT_DOUBLE_EQ(stages[2].delta_s, 0.0);
}

TEST(Tracer, FifoEvictionBeyondMaxTraces) {
  Tracer tr(Tracer::Options{.max_traces = 2, .max_events_per_trace = 64});
  tr.mark("first", "s", 1.0);
  tr.mark("second", "s", 2.0);
  tr.mark("third", "s", 3.0);
  EXPECT_EQ(tr.trace_count(), 2u);
  EXPECT_TRUE(tr.breakdown("first").empty());
  EXPECT_EQ(tr.breakdown("second").size(), 1u);
  EXPECT_EQ(tr.breakdown("third").size(), 1u);
}

TEST(Tracer, PerTraceEventCapCountsDrops) {
  Tracer tr(Tracer::Options{.max_traces = 16, .max_events_per_trace = 3});
  for (int i = 0; i < 5; ++i) tr.mark("p", "stage" + std::to_string(i), i);
  EXPECT_EQ(tr.events("p").size(), 3u);
  EXPECT_EQ(tr.dropped_events(), 2u);
}

TEST(Tracer, CsvFormat) {
  Tracer tr;
  tr.mark("10.0.0.1/32", "member_announce", 1.25);
  const std::string csv = tr.csv();
  EXPECT_NE(csv.find("trace,stage,start_s,end_s\n"), std::string::npos);
  EXPECT_NE(csv.find("10.0.0.1/32,member_announce,1.250000000,1.250000000"),
            std::string::npos);
}

}  // namespace
}  // namespace stellar::obs
