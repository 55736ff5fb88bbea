// Determinism contract of the bench trial harness: the thread-pooled
// average_over_trials must reproduce the serial path bit-for-bit, because
// every figure in EXPERIMENTS.md and every cost in a BENCH_*.json relies on
// seeds alone determining the result. Running this suite under
// -DDBS_SANITIZE=thread is the TSan proof for the pool itself.
#include "harness.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace dbs::bench {
namespace {

WorkloadConfig small_workload() {
  WorkloadConfig config;
  config.items = 60;
  config.skewness = 0.8;
  config.diversity = 2.0;
  config.seed = 0;  // overwritten per trial by the harness
  return config;
}

Options with_threads(std::size_t threads, std::size_t trials, bool quick) {
  Options options;
  options.threads = threads;
  options.trials = trials;
  options.quick = quick;
  return options;
}

// The deterministic algorithms and the seeded GA must all survive the
// serial -> parallel swap unchanged. GOPT is the interesting case: its GA
// draws millions of PRNG values, so any cross-thread state sharing or
// trial-order dependence would show up immediately.
TEST(Harness, ParallelAveragesMatchSerialBitForBit) {
  const WorkloadConfig config = small_workload();
  const std::vector<Algorithm> algorithms = {
      Algorithm::kDrp, Algorithm::kDrpCds, Algorithm::kVfk, Algorithm::kGopt};
  for (Algorithm algorithm : algorithms) {
    const bool quick = algorithm == Algorithm::kGopt;  // keep the GA cheap
    const Measurement serial = average_over_trials(
        config, algorithm, 4, 10.0, with_threads(1, 6, quick), 123);
    const Measurement parallel = average_over_trials(
        config, algorithm, 4, 10.0, with_threads(4, 6, quick), 123);
    // Bitwise equality, not EXPECT_DOUBLE_EQ: the parallel path must run the
    // exact same per-trial computations and reduce them in the same order.
    EXPECT_EQ(serial.waiting_time, parallel.waiting_time)
        << "algorithm " << static_cast<int>(algorithm);
    EXPECT_EQ(serial.cost, parallel.cost)
        << "algorithm " << static_cast<int>(algorithm);
    EXPECT_GE(parallel.elapsed_ms, 0.0);
  }
}

// Seeds are pre-assigned per trial index: trial t of a batch equals a
// standalone single-trial run at base_seed + t, so batch size and thread
// count never shift which workload a trial sees.
TEST(Harness, TrialSeedsAreIndependentOfBatchAndThreads) {
  const WorkloadConfig config = small_workload();
  const std::vector<Measurement> batch = measure_trials(
      config, Algorithm::kDrpCds, 4, 10.0, with_threads(3, 5, false), 900);
  ASSERT_EQ(batch.size(), 5u);
  for (std::size_t trial = 0; trial < batch.size(); ++trial) {
    const std::vector<Measurement> alone = measure_trials(
        config, Algorithm::kDrpCds, 4, 10.0, with_threads(1, 1, false),
        900 + trial);
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(batch[trial].cost, alone[0].cost) << "trial " << trial;
    EXPECT_EQ(batch[trial].waiting_time, alone[0].waiting_time)
        << "trial " << trial;
  }
}

// More workers than trials must not deadlock, double-run a trial, or change
// the result; zero (auto) threads must behave on any machine.
TEST(Harness, OversizedPoolAndAutoDetectAreSafe) {
  const WorkloadConfig config = small_workload();
  const Measurement serial = average_over_trials(
      config, Algorithm::kDrpCds, 4, 10.0, with_threads(1, 2, false), 77);
  const Measurement oversized = average_over_trials(
      config, Algorithm::kDrpCds, 4, 10.0, with_threads(16, 2, false), 77);
  const Measurement automatic = average_over_trials(
      config, Algorithm::kDrpCds, 4, 10.0, with_threads(0, 2, false), 77);
  EXPECT_EQ(serial.cost, oversized.cost);
  EXPECT_EQ(serial.cost, automatic.cost);
  EXPECT_EQ(serial.waiting_time, oversized.waiting_time);
  EXPECT_EQ(serial.waiting_time, automatic.waiting_time);
}

// --- run_tasks failure-path contract --------------------------------------
// measure_trials runs its trials on the run_tasks pool (common/parallel.h).
// A trial that throws must propagate out of run_tasks on the calling
// thread, after every worker has been joined — never std::terminate() a
// worker, never deadlock the pool, never leak a joinable thread (the leak
// would abort the test process at thread destruction).

TEST(RunTrials, ExecutesEveryTrialExactlyOnce) {
  constexpr std::size_t kTrials = 64;
  std::vector<std::atomic<int>> executions(kTrials);
  run_tasks(kTrials, 4, [&](std::size_t trial) {
    executions[trial].fetch_add(1);
  });
  for (std::size_t trial = 0; trial < kTrials; ++trial) {
    EXPECT_EQ(executions[trial].load(), 1) << "trial " << trial;
  }
}

TEST(RunTrials, ThrowingTrialPropagatesFromParallelPool) {
  EXPECT_THROW(
      run_tasks(16, 4,
                [](std::size_t trial) {
                  if (trial == 3) throw std::runtime_error("trial 3 boom");
                }),
      std::runtime_error);
}

TEST(RunTrials, ThrowingTrialPropagatesFromSerialPath) {
  std::size_t executed = 0;
  EXPECT_THROW(run_tasks(8, 1,
                         [&](std::size_t trial) {
                           ++executed;
                           if (trial == 2) throw std::logic_error("serial boom");
                         }),
               std::logic_error);
  // Serial execution is in trial order, so the failure cuts the run short.
  EXPECT_EQ(executed, 3u);
}

TEST(RunTrials, PoolStopsClaimingNewTrialsAfterFailure) {
  constexpr std::size_t kTrials = 64;
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(
      run_tasks(kTrials, 2,
                [&](std::size_t trial) {
                  executed.fetch_add(1);
                  if (trial == 0) throw std::runtime_error("first trial boom");
                  // Slow survivors down so the cancellation flag is visible
                  // before the other worker can drain the whole range.
                  std::this_thread::sleep_for(std::chrono::milliseconds(2));
                }),
      std::runtime_error);
  // The failing trial plus whatever was in flight — but nowhere near the
  // full range, and no worker is left running (run_tasks joined them all
  // before rethrowing, or this counter would still be moving).
  EXPECT_LT(executed.load(), kTrials);
  const std::size_t settled = executed.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(executed.load(), settled) << "a worker outlived run_tasks";
}

TEST(RunTrials, FirstExceptionWinsWhenSeveralTrialsThrow) {
  // Every trial throws; exactly one exception must come out and it must be
  // one of the thrown types (not a terminate, not a mixed/corrupted state).
  EXPECT_THROW(run_tasks(32, 4,
                         [](std::size_t) {
                           throw std::runtime_error("every trial throws");
                         }),
               std::runtime_error);
}

}  // namespace
}  // namespace dbs::bench
