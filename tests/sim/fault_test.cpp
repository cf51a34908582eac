#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace stellar::sim {
namespace {

std::vector<std::uint8_t> Payload(std::size_t n) {
  std::vector<std::uint8_t> bytes(n);
  for (std::size_t i = 0; i < n; ++i) bytes[i] = static_cast<std::uint8_t>(i);
  return bytes;
}

TEST(FaultInjectorTest, LinksCreatedWhileDisarmedAreNotWrapped) {
  EventQueue queue;
  FaultPlan plan;
  plan.drop_probability = 1.0;
  FaultInjector injector(queue, plan);
  auto [ea, eb] = bgp::MakeLink(queue);  // Before arm(): untouched.
  int received = 0;
  eb->set_receive_handler([&](const bgp::Frame&) { ++received; });
  ea->send(Payload(4));
  queue.run_until(Seconds(1.0));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(injector.stats().links_wrapped, 0u);
}

TEST(FaultInjectorTest, DropProbabilityOneDropsEverything) {
  EventQueue queue;
  FaultPlan plan;
  plan.drop_probability = 1.0;
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea, eb] = bgp::MakeLink(queue);
  int received = 0;
  eb->set_receive_handler([&](const bgp::Frame&) { ++received; });
  for (int i = 0; i < 5; ++i) ea->send(Payload(8));
  queue.run_until(Seconds(1.0));
  EXPECT_EQ(received, 0);
  EXPECT_EQ(injector.stats().links_wrapped, 1u);
  EXPECT_EQ(injector.stats().messages_dropped, 5u);
  EXPECT_EQ(ea->stats().dropped_bytes, 40u);
}

TEST(FaultInjectorTest, CorruptionFlipsExactlyOneByte) {
  EventQueue queue;
  FaultPlan plan;
  plan.corrupt_probability = 1.0;
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea, eb] = bgp::MakeLink(queue);
  std::vector<std::uint8_t> received;
  eb->set_receive_handler([&](const bgp::Frame& frame) {
    received.assign(frame.bytes().begin(), frame.bytes().end());
  });
  const auto sent = Payload(16);
  ea->send(sent);
  queue.run_until(Seconds(1.0));
  ASSERT_EQ(received.size(), sent.size());
  int differing = 0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    if (received[i] != sent[i]) ++differing;
  }
  EXPECT_EQ(differing, 1);
  EXPECT_EQ(injector.stats().messages_corrupted, 1u);
}

TEST(FaultInjectorTest, JitterDelaysButDelivers) {
  EventQueue queue;
  FaultPlan plan;
  plan.jitter_max_s = 5.0;
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea, eb] = bgp::MakeLink(queue);
  int received = 0;
  eb->set_receive_handler([&](const bgp::Frame&) { ++received; });
  ea->send(Payload(4));
  queue.run_until(Seconds(5.1));  // Latency (1 ms) + jitter < 5 s.
  EXPECT_EQ(received, 1);
  EXPECT_EQ(injector.stats().messages_delayed, 1u);
}

TEST(FaultInjectorTest, FaultsOnlyInsideStormWindow) {
  EventQueue queue;
  FaultPlan plan;
  plan.drop_probability = 1.0;
  plan.window_start_s = 10.0;
  plan.window_end_s = 20.0;
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea, eb] = bgp::MakeLink(queue);
  int received = 0;
  eb->set_receive_handler([&](const bgp::Frame&) { ++received; });
  ea->send(Payload(4));  // t=0: before the storm.
  queue.run_until(Seconds(15.0));
  ea->send(Payload(4));  // t=15: inside.
  queue.run_until(Seconds(25.0));
  ea->send(Payload(4));  // t=25: after.
  queue.run_until(Seconds(30.0));
  EXPECT_EQ(received, 2);
  EXPECT_EQ(injector.stats().messages_dropped, 1u);
}

TEST(FaultInjectorTest, PartitionDropsEverythingWhileActive) {
  EventQueue queue;
  FaultPlan plan;
  plan.partitions.push_back({5.0, 10.0});
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea, eb] = bgp::MakeLink(queue);
  int received = 0;
  eb->set_receive_handler([&](const bgp::Frame&) { ++received; });
  queue.run_until(Seconds(7.0));
  ea->send(Payload(4));  // Inside the partition.
  queue.run_until(Seconds(11.0));
  ea->send(Payload(4));  // Healed.
  queue.run_until(Seconds(12.0));
  EXPECT_EQ(received, 1);
  EXPECT_EQ(injector.stats().partition_drops, 1u);
}

TEST(FaultInjectorTest, SessionKillClosesTheLink) {
  EventQueue queue;
  FaultPlan plan;
  plan.session_kills.push_back({2.0, 0});
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea, eb] = bgp::MakeLink(queue);
  queue.run_until(Seconds(3.0));
  EXPECT_TRUE(ea->closed());
  EXPECT_TRUE(eb->closed());
  EXPECT_EQ(injector.stats().kills_executed, 1u);
}

TEST(FaultInjectorTest, KillAllLinksClosesEveryWrappedLink) {
  EventQueue queue;
  FaultPlan plan;
  plan.session_kills.push_back({2.0, FaultPlan::kAllLinks});
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea1, eb1] = bgp::MakeLink(queue);
  auto [ea2, eb2] = bgp::MakeLink(queue);
  queue.run_until(Seconds(3.0));
  EXPECT_TRUE(ea1->closed());
  EXPECT_TRUE(ea2->closed());
  EXPECT_EQ(injector.stats().kills_executed, 2u);
}

std::string RunTraceScenario(std::uint64_t seed) {
  EventQueue queue;
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_probability = 0.3;
  plan.corrupt_probability = 0.3;
  plan.jitter_max_s = 0.5;
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea, eb] = bgp::MakeLink(queue);
  eb->set_receive_handler([&eb = eb](const bgp::Frame& frame) {
    eb->send(std::vector<std::uint8_t>(frame.bytes().begin(), frame.bytes().end()));  // Echo.
  });
  for (int i = 0; i < 50; ++i) ea->send(Payload(static_cast<std::size_t>(8 + i)));
  queue.run_until(Seconds(60.0));
  return injector.trace_text();
}

TEST(FaultInjectorTest, TraceIsByteIdenticalPerSeed) {
  const std::string t1 = RunTraceScenario(42);
  const std::string t2 = RunTraceScenario(42);
  EXPECT_EQ(t1, t2);
  EXPECT_FALSE(t1.empty());
  EXPECT_NE(t1, RunTraceScenario(43));
}

TEST(FaultInjectorTest, DisarmStopsWrappingNewLinks) {
  EventQueue queue;
  FaultPlan plan;
  plan.drop_probability = 1.0;
  FaultInjector injector(queue, plan);
  injector.arm();
  auto [ea1, eb1] = bgp::MakeLink(queue);
  injector.disarm();
  auto [ea2, eb2] = bgp::MakeLink(queue);
  int received = 0;
  eb2->set_receive_handler([&](const bgp::Frame&) { ++received; });
  ea2->send(Payload(4));
  queue.run_until(Seconds(1.0));
  EXPECT_EQ(received, 1);  // Post-disarm link is clean.
  EXPECT_EQ(injector.stats().links_wrapped, 1u);
}

// ---- FlakyCompiler ---------------------------------------------------------

struct CountingCompiler final : core::ConfigCompiler {
  int applied = 0;
  util::Result<void> apply(const core::ConfigChange&) override {
    ++applied;
    return {};
  }
  [[nodiscard]] std::string_view name() const override { return "counting"; }
};

TEST(FlakyCompilerTest, FailsTransientlyAtProbabilityOne) {
  CountingCompiler inner;
  FlakyCompiler flaky(inner, 1.0, 1);
  core::ConfigChange change;
  const auto result = flaky.apply(change);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "transient.flaky");
  EXPECT_TRUE(core::NetworkManager::DefaultTransientClassifier(result.error()));
  EXPECT_EQ(inner.applied, 0);
  EXPECT_EQ(flaky.injected_failures(), 1u);
}

TEST(FlakyCompilerTest, PassesThroughAtProbabilityZero) {
  CountingCompiler inner;
  FlakyCompiler flaky(inner, 0.0, 1);
  core::ConfigChange change;
  EXPECT_TRUE(flaky.apply(change).ok());
  EXPECT_EQ(inner.applied, 1);
  EXPECT_EQ(flaky.injected_failures(), 0u);
}

}  // namespace
}  // namespace stellar::sim
