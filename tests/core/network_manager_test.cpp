#include "core/network_manager.hpp"

#include <gtest/gtest.h>

#include "net/ports.hpp"
#include "sim/fault.hpp"

namespace stellar::core {
namespace {

ConfigChange Install(const std::string& key) {
  ConfigChange c;
  c.op = ConfigChange::Op::kInstall;
  c.member = 65001;
  c.port = 11;
  c.rule.match.dst_prefix = net::Prefix4::Parse("100.10.10.10/32").value();
  c.rule.match.proto = net::IpProto::kUdp;
  c.rule.match.src_port = filter::PortRange::Single(net::kPortNtp);
  c.rule.action = filter::FilterAction::kDrop;
  c.key = key;
  return c;
}

/// "k<i>", built by appending: GCC 12 at -O3 reports a false -Wrestrict on
/// the inlined `"k" + std::to_string(i)`.
std::string Key(int i) {
  std::string key = "k";
  key += std::to_string(i);
  return key;
}

ConfigChange Remove(const std::string& key) {
  ConfigChange c = Install(key);
  c.op = ConfigChange::Op::kRemove;
  return c;
}

class RecordingCompiler final : public ConfigCompiler {
 public:
  util::Result<void> apply(const ConfigChange& change) override {
    applied.push_back({change.key, queue->now().count()});
    if (fail_all) return util::MakeError("F1", "forced failure");
    if (static_cast<int>(applied.size()) <= fail_first) {
      return util::MakeError(fail_code, "forced failure");
    }
    return {};
  }
  [[nodiscard]] std::string_view name() const override { return "recording"; }

  sim::EventQueue* queue = nullptr;
  bool fail_all = false;
  int fail_first = 0;            ///< Fail this many apply() calls, then succeed.
  std::string fail_code = "F1";  ///< Error code used for fail_first failures.
  std::vector<std::pair<std::string, double>> applied;
};

struct NmFixture {
  sim::EventQueue queue;
  RecordingCompiler compiler;
  std::unique_ptr<NetworkManager> nm;

  explicit NmFixture(NetworkManager::Config config = {}) {
    compiler.queue = &queue;
    nm = std::make_unique<NetworkManager>(queue, compiler, config);
  }
};

TEST(NetworkManagerTest, AppliesWithinBurstImmediately) {
  NmFixture f({.rate_per_s = 4.0, .max_burst_size = 5.0});
  for (int i = 0; i < 5; ++i) f.nm->enqueue(Install(Key(i)));
  f.queue.run_until(sim::Seconds(0.01));
  EXPECT_EQ(f.nm->stats().applied, 5u);
  for (const auto& [key, at] : f.compiler.applied) EXPECT_LT(at, 0.01);
}

TEST(NetworkManagerTest, RateLimitsBeyondBurst) {
  NmFixture f({.rate_per_s = 4.0, .max_burst_size = 1.0});
  for (int i = 0; i < 9; ++i) f.nm->enqueue(Install(Key(i)));
  f.queue.run_until(sim::Seconds(10.0));
  EXPECT_EQ(f.nm->stats().applied, 9u);
  // 1 immediate + 8 at 0.25 s spacing => last at 2.0 s.
  EXPECT_NEAR(f.compiler.applied.back().second, 2.0, 0.05);
  // Long-term rate respected: count applied in the first second.
  int within_1s = 0;
  for (const auto& [key, at] : f.compiler.applied) {
    if (at <= 1.0) ++within_1s;
  }
  EXPECT_LE(within_1s, 5);  // burst(1) + 4/s.
}

TEST(NetworkManagerTest, WaitingTimesRecorded) {
  NmFixture f({.rate_per_s = 1.0, .max_burst_size = 1.0});
  for (int i = 0; i < 3; ++i) f.nm->enqueue(Install(Key(i)));
  f.queue.run_until(sim::Seconds(10.0));
  const auto& waits = f.nm->stats().waiting_times_s;
  ASSERT_EQ(waits.size(), 3u);
  EXPECT_NEAR(waits[0], 0.0, 0.01);
  EXPECT_NEAR(waits[1], 1.0, 0.05);
  EXPECT_NEAR(waits[2], 2.0, 0.05);
}

TEST(NetworkManagerTest, FailuresCountedWithCodes) {
  NmFixture f({.rate_per_s = 100.0, .max_burst_size = 10.0});
  f.compiler.fail_all = true;
  f.nm->enqueue(Install("k"));
  f.queue.run_until(sim::Seconds(1.0));
  EXPECT_EQ(f.nm->stats().applied, 0u);
  EXPECT_EQ(f.nm->stats().failed, 1u);
  ASSERT_EQ(f.nm->stats().failure_codes.size(), 1u);
  EXPECT_EQ(f.nm->stats().failure_codes[0], "F1");
}

TEST(NetworkManagerTest, QueueDrainsInFifoOrder) {
  NmFixture f({.rate_per_s = 10.0, .max_burst_size = 1.0});
  for (int i = 0; i < 5; ++i) f.nm->enqueue(Install(Key(i)));
  f.queue.run_until(sim::Seconds(5.0));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(f.compiler.applied[static_cast<std::size_t>(i)].first,
              Key(i));
  }
}

TEST(NetworkManagerTest, SustainedLoadAtFractionalRateTerminates) {
  // Regression for the 5/s deadlock: a long backlog drained at a rate whose
  // period is not exactly representable must still make progress at large
  // simulation timestamps.
  NmFixture f({.rate_per_s = 5.0, .max_burst_size = 5.0});
  f.queue.run_until(sim::Seconds(80'000.0));
  for (int i = 0; i < 2000; ++i) f.nm->enqueue(Install(Key(i)));
  f.queue.run();
  EXPECT_EQ(f.nm->stats().applied, 2000u);
}

TEST(NetworkManagerTest, LateEnqueueAfterIdlePeriod) {
  NmFixture f({.rate_per_s = 1.0, .max_burst_size = 1.0});
  f.nm->enqueue(Install("a"));
  f.queue.run_until(sim::Seconds(100.0));
  f.nm->enqueue(Install("b"));
  f.queue.run_until(sim::Seconds(101.0));
  EXPECT_EQ(f.nm->stats().applied, 2u);
  EXPECT_NEAR(f.compiler.applied[1].second, 100.0, 0.05);
}

// ---------------------------------------------------------------------------
// Retry / dead-letter behaviour. Cases that take a NetworkManagerTest
// parameter run with batch_apply off and on: one drain path serves both.

class NetworkManagerTest : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(BatchApply, NetworkManagerTest, ::testing::Bool());

TEST_P(NetworkManagerTest, TransientFailureRetriedWithBackoff) {
  NmFixture f({.rate_per_s = 100.0,
               .max_burst_size = 10.0,
               .retry_backoff_s = 2.0,
               .batch_apply = GetParam()});
  f.compiler.fail_first = 2;
  f.compiler.fail_code = "transient.tcam-busy";
  f.nm->enqueue(Install("k"));
  f.queue.run_until(sim::Seconds(60.0));
  ASSERT_EQ(f.compiler.applied.size(), 3u);
  EXPECT_EQ(f.nm->stats().applied, 1u);
  EXPECT_EQ(f.nm->stats().retries, 2u);
  EXPECT_EQ(f.nm->stats().transient_failures, 2u);
  EXPECT_EQ(f.nm->stats().dead_lettered, 0u);
  // Exponential retry spacing: ~2 s then ~4 s after the failures.
  EXPECT_NEAR(f.compiler.applied[1].second - f.compiler.applied[0].second, 2.0, 0.1);
  EXPECT_NEAR(f.compiler.applied[2].second - f.compiler.applied[1].second, 4.0, 0.1);
}

TEST(NetworkManagerTest, PermanentFailureDeadLettersWithoutRetry) {
  NmFixture f({.rate_per_s = 100.0, .max_burst_size = 10.0});
  f.compiler.fail_all = true;  // "F1": not transient under the default rule.
  f.nm->enqueue(Install("k"));
  f.queue.run_until(sim::Seconds(60.0));
  EXPECT_EQ(f.compiler.applied.size(), 1u);
  EXPECT_EQ(f.nm->stats().retries, 0u);
  EXPECT_EQ(f.nm->stats().permanent_failures, 1u);
  EXPECT_EQ(f.nm->stats().dead_lettered, 1u);
  ASSERT_EQ(f.nm->dead_letter().size(), 1u);
  EXPECT_EQ(f.nm->dead_letter().front().key, "k");
}

TEST_P(NetworkManagerTest, TransientExhaustsAttemptBudgetThenDeadLetters) {
  NmFixture f({.rate_per_s = 100.0,
               .max_burst_size = 10.0,
               .max_attempts = 4,
               .batch_apply = GetParam()});
  f.compiler.fail_first = 1000;  // Never recovers.
  f.compiler.fail_code = "transient.flaky";
  f.nm->enqueue(Install("k"));
  f.queue.run_until(sim::Seconds(300.0));
  EXPECT_EQ(f.compiler.applied.size(), 4u);  // First try + 3 retries.
  EXPECT_EQ(f.nm->stats().retries, 3u);
  EXPECT_EQ(f.nm->stats().dead_lettered, 1u);
  EXPECT_TRUE(f.nm->in_flight().empty());
}

TEST(NetworkManagerTest, ExhaustedRetryBudgetCountsFailuresExactlyOnce) {
  // Regression: a transient-retry-then-dead-letter path must not double count
  // — the last failed attempt is retry_budget_exhausted, not also permanent.
  NmFixture f({.rate_per_s = 100.0, .max_burst_size = 10.0, .max_attempts = 2});
  f.compiler.fail_first = 1000;  // Never recovers.
  f.compiler.fail_code = "transient.flaky";
  f.nm->enqueue(Install("k"));
  f.queue.run_until(sim::Seconds(300.0));
  const auto& stats = f.nm->stats();
  EXPECT_EQ(stats.failed, 2u);  // One per attempt, nothing else.
  EXPECT_EQ(stats.transient_failures, 2u);
  EXPECT_EQ(stats.permanent_failures, 0u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.retry_budget_exhausted, 1u);
  EXPECT_EQ(stats.dead_lettered, 1u);
}

TEST_P(NetworkManagerTest, FailureAccountingInvariantsHold) {
  // Mixed workload: permanent failures, recovered transients, and a
  // dead-lettered transient must each land in exactly one class.
  NmFixture f({.rate_per_s = 100.0,
               .max_burst_size = 10.0,
               .max_attempts = 3,
               .batch_apply = GetParam()});
  f.compiler.fail_all = true;  // "F1": permanent under the default rule.
  f.nm->enqueue(Install("p1"));
  f.nm->enqueue(Install("p2"));
  f.queue.run_until(sim::Seconds(10.0));
  f.compiler.fail_all = false;
  f.compiler.applied.clear();
  f.compiler.fail_first = 1000;  // Transient forever: exhausts the budget.
  f.compiler.fail_code = "transient.flaky";
  f.nm->enqueue(Install("t1"));
  f.queue.run_until(sim::Seconds(300.0));

  const auto& stats = f.nm->stats();
  EXPECT_EQ(stats.permanent_failures, 2u);
  EXPECT_EQ(stats.transient_failures, 3u);  // 3 attempts for t1.
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.retry_budget_exhausted, 1u);
  EXPECT_EQ(stats.failed, stats.transient_failures + stats.permanent_failures);
  EXPECT_EQ(stats.transient_failures, stats.retries + stats.retry_budget_exhausted);
  EXPECT_EQ(stats.dead_lettered,
            stats.permanent_failures + stats.retry_budget_exhausted);
}

TEST(NetworkManagerTest, CustomTransientClassifierOverridesDefault) {
  NetworkManager::Config config{.rate_per_s = 100.0, .max_burst_size = 10.0};
  config.transient_classifier = [](const util::Error& e) { return e.code == "F1"; };
  NmFixture f(config);
  f.compiler.fail_first = 1;  // One "F1" failure, then success.
  f.nm->enqueue(Install("k"));
  f.queue.run_until(sim::Seconds(60.0));
  EXPECT_EQ(f.nm->stats().applied, 1u);
  EXPECT_EQ(f.nm->stats().retries, 1u);
  EXPECT_EQ(f.nm->stats().dead_lettered, 0u);
}

TEST_P(NetworkManagerTest, BackoffChangesVisibleAsInFlight) {
  NmFixture f({.rate_per_s = 100.0,
               .max_burst_size = 10.0,
               .retry_backoff_s = 5.0,
               .batch_apply = GetParam()});
  f.compiler.fail_first = 1;
  f.compiler.fail_code = "transient.flaky";
  f.nm->enqueue(Install("k"));
  f.queue.run_until(sim::Seconds(1.0));  // Failed once; retry waits in backoff.
  const auto in_flight = f.nm->in_flight();
  ASSERT_EQ(in_flight.size(), 1u);
  EXPECT_EQ(in_flight[0].key, "k");
  f.queue.run_until(sim::Seconds(60.0));
  EXPECT_TRUE(f.nm->in_flight().empty());
  EXPECT_EQ(f.nm->stats().applied, 1u);
}

TEST_P(NetworkManagerTest, RetriesDoNotDistortWaitingTimes) {
  // Fig 10b percentiles measure queueing delay for *new* changes; a retried
  // change must contribute exactly one waiting-time sample.
  NmFixture f({.rate_per_s = 100.0, .max_burst_size = 10.0, .batch_apply = GetParam()});
  f.compiler.fail_first = 2;
  f.compiler.fail_code = "transient.flaky";
  f.nm->enqueue(Install("k"));
  f.queue.run_until(sim::Seconds(60.0));
  EXPECT_EQ(f.nm->stats().waiting_times_s.size(), 1u);
}

TEST_P(NetworkManagerTest, StaleRetryDoesNotResurrectWithdrawnRule) {
  // Regression: the newest intent for a key wins over a pending retry. A
  // stale install retry used to re-enter the queue after its backoff and
  // bring back a rule whose remove had already been applied.
  sim::EventQueue queue;
  filter::EdgeRouter er("er1", filter::TcamLimits{});
  er.add_port(11, 1000.0);
  QosConfigCompiler qos(er);
  sim::FlakyCompiler flaky(qos, /*failure_probability=*/0.0, /*seed=*/1);
  NetworkManager nm(queue, flaky,
                    {.rate_per_s = 100.0,
                     .max_burst_size = 10.0,
                     .retry_backoff_s = 2.0,
                     .batch_apply = GetParam()});

  // The remove arrives while the failed install sits out its backoff.
  flaky.fail_next(1);
  nm.enqueue(Install("k"));
  queue.run_until(sim::Seconds(0.5));
  nm.enqueue(Remove("k"));
  queue.run_until(sim::Seconds(60.0));
  // The remove is already queued when the install fails. Per change, the
  // install reaches the compiler first; batched, the pair annihilates.
  flaky.fail_next(1);
  nm.enqueue(Install("j"));
  nm.enqueue(Remove("j"));
  queue.run_until(sim::Seconds(120.0));

  EXPECT_TRUE(qos.installed_keys().empty());
  EXPECT_EQ(er.policy(11).rule_count(), 0u);
  EXPECT_TRUE(nm.in_flight().empty());
  const auto& stats = nm.stats();
  EXPECT_EQ(stats.coalesced, 2u);  // One superseded retry or pair per key.
  EXPECT_EQ(stats.failed, stats.transient_failures + stats.permanent_failures);
  EXPECT_EQ(stats.transient_failures, stats.retries + stats.retry_budget_exhausted);
  EXPECT_EQ(stats.dead_lettered, stats.permanent_failures + stats.retry_budget_exhausted);
}

TEST(NetworkManagerTest, StatsRingBuffersCapRetainedSamples) {
  NetworkManager::Config config{.rate_per_s = 1000.0, .max_burst_size = 1000.0};
  config.stats_retained_samples = 10;
  NmFixture f(config);
  for (int i = 0; i < 25; ++i) f.nm->enqueue(Install(Key(i)));
  f.queue.run_until(sim::Seconds(10.0));
  const auto& waits = f.nm->stats().waiting_times_s;
  EXPECT_EQ(waits.size(), 10u);       // Bounded retention...
  EXPECT_EQ(waits.total(), 25u);      // ...with full-history accounting.
  EXPECT_EQ(waits.evicted(), 15u);
  EXPECT_EQ(waits.capacity(), 10u);
}

TEST(NetworkManagerTest, FailureCodeRingAlsoBounded) {
  NetworkManager::Config config{.rate_per_s = 1000.0, .max_burst_size = 1000.0};
  config.stats_retained_samples = 4;
  NmFixture f(config);
  f.compiler.fail_all = true;
  for (int i = 0; i < 9; ++i) f.nm->enqueue(Install(Key(i)));
  f.queue.run_until(sim::Seconds(10.0));
  EXPECT_EQ(f.nm->stats().failure_codes.size(), 4u);
  EXPECT_EQ(f.nm->stats().failure_codes.total(), 9u);
  EXPECT_EQ(f.nm->stats().failed, 9u);
}

// ---------------------------------------------------------------------------
// QosConfigCompiler against a real edge router.

TEST(QosConfigCompilerTest, InstallRemoveLifecycle) {
  filter::EdgeRouter er("er1", filter::TcamLimits{});
  er.add_port(11, 1000.0);
  QosConfigCompiler compiler(er);

  ASSERT_TRUE(compiler.apply(Install("key1")).ok());
  EXPECT_EQ(er.policy(11).rule_count(), 1u);
  ASSERT_TRUE(compiler.rule_id("key1").has_value());

  ASSERT_TRUE(compiler.apply(Remove("key1")).ok());
  EXPECT_EQ(er.policy(11).rule_count(), 0u);
  EXPECT_FALSE(compiler.rule_id("key1").has_value());
}

TEST(QosConfigCompilerTest, ReinstallSameKeyIsIdempotent) {
  // Post-resync reconciliation re-emits installs for keys it believes are
  // missing; a duplicate install must supersede, not leak, the old rule.
  filter::EdgeRouter er("er1", filter::TcamLimits{});
  er.add_port(11, 1000.0);
  QosConfigCompiler compiler(er);
  ASSERT_TRUE(compiler.apply(Install("key1")).ok());
  const auto first_id = compiler.rule_id("key1");
  ASSERT_TRUE(compiler.apply(Install("key1")).ok());
  EXPECT_EQ(er.policy(11).rule_count(), 1u);  // No orphaned duplicate.
  ASSERT_EQ(compiler.installed_keys().size(), 1u);
  ASSERT_TRUE(compiler.rule_id("key1").has_value());
  EXPECT_NE(compiler.rule_id("key1"), first_id);  // Fresh rule replaced it.
  ASSERT_TRUE(compiler.apply(Remove("key1")).ok());
  EXPECT_EQ(er.policy(11).rule_count(), 0u);
  EXPECT_EQ(er.tcam().l3l4_in_use(), 0);  // No TCAM leak either.
}

TEST(QosConfigCompilerTest, RemoveUnknownKeyFails) {
  filter::EdgeRouter er("er1", filter::TcamLimits{});
  er.add_port(11, 1000.0);
  QosConfigCompiler compiler(er);
  EXPECT_FALSE(compiler.apply(Remove("ghost")).ok());
}

TEST(QosConfigCompilerTest, TcamErrorPropagates) {
  filter::EdgeRouter er("er1", filter::TcamLimits{.l3l4_criteria_pool = 1, .mac_filter_pool = 0});
  er.add_port(11, 1000.0);
  QosConfigCompiler compiler(er);
  const auto result = compiler.apply(Install("key1"));  // Needs 3 criteria.
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, "F1");
}

}  // namespace
}  // namespace stellar::core
