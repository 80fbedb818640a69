// Thread-sharded Monte-Carlo engine tests: exact trial accounting for
// partial batches, the determinism contract (bit-identical results at
// any thread count for a fixed seed), statistical agreement with the
// single-threaded harness, and the shard driver's pool: exceptions
// and the bound on live per-shard states.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ft/experiments.h"
#include "noise/parallel_mc.h"
#include "rev/circuit.h"
#include "support/error.h"
#include "telemetry/stream.h"

namespace revft {
namespace {

Circuit single_not() {
  Circuit c(1);
  c.not_(0);
  return c;
}

// --- partial-batch accounting -----------------------------------------

TEST(PackedMc, PartialBatchCountsExactTrials) {
  // trials % 64 != 0 must count exactly `trials` trials: only the
  // first (trials % 64) lanes of the last batch may be classified.
  const Circuit c = single_not();
  for (std::uint64_t trials : {1ULL, 63ULL, 64ULL, 65ULL, 100ULL, 1000ULL, 4097ULL}) {
    ParallelMcOptions opts;
    opts.trials = trials;
    opts.threads = 1;  // classify bumps one shared counter
    std::uint64_t classified = 0;
    const auto est = run_parallel_mc(
        c, NoiseModel::uniform(0.0), opts,
        per_shard_kernel(
            [](PackedState&, Xoshiro256&, std::uint64_t) {},
            [&](const PackedState& s, int lane, std::uint64_t) {
              ++classified;
              return s.bit_lane(0, lane) == 0;  // NOT of 0 is 1: never error
            }));
    EXPECT_EQ(est.trials, trials) << "trials=" << trials;
    EXPECT_EQ(classified, trials) << "trials=" << trials;
    EXPECT_EQ(est.failures, 0u) << "trials=" << trials;
  }
}

// --- shard planning ---------------------------------------------------

TEST(ParallelMc, ShardPlanCoversTrialsExactly) {
  for (std::uint64_t trials : {1ULL, 64ULL, 100ULL, 16384ULL, 16385ULL,
                               100000ULL, 1000003ULL}) {
    const auto shards = plan_shards(trials, 0xABCDULL, 16);
    std::uint64_t covered = 0;
    std::uint64_t expected_first_batch = 0;
    for (std::size_t i = 0; i < shards.size(); ++i) {
      EXPECT_EQ(shards[i].index, i);
      EXPECT_EQ(shards[i].first_batch, expected_first_batch);
      covered += shards[i].trials;
      expected_first_batch += 16;
    }
    EXPECT_EQ(covered, trials) << "trials=" << trials;
  }
}

TEST(ParallelMc, ShardPlanIsDeterministicAndSeedsDiffer) {
  const auto a = plan_shards(200000, 7, 16);
  const auto b = plan_shards(200000, 7, 16);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 2u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    if (i > 0) {
      EXPECT_NE(a[i].seed, a[i - 1].seed);
    }
  }
}

TEST(ParallelMc, EmptyPlanForZeroTrials) {
  EXPECT_TRUE(plan_shards(0, 1, 16).empty());
}

// --- the determinism contract -----------------------------------------

ParallelMcOptions small_shard_opts(std::uint64_t trials, int threads) {
  ParallelMcOptions opts;
  opts.trials = trials;
  opts.seed = 0xD5A2005ULL;
  opts.threads = threads;
  opts.batches_per_shard = 8;  // many shards even at modest trial counts
  return opts;
}

TEST(ParallelMc, BitIdenticalAcrossThreadCounts) {
  const Circuit c = single_not();
  const NoiseModel model = NoiseModel::uniform(0.05);
  auto factory = per_shard_kernel(
      [](PackedState&, Xoshiro256&, std::uint64_t) {},
      [](const PackedState& s, int lane, std::uint64_t) {
        return s.bit_lane(0, lane) != 1;
      });
  // 100003 trials: many full shards, a short last shard, and a partial
  // final batch — the full accounting surface.
  const auto one = run_parallel_mc(c, model, small_shard_opts(100003, 1), factory);
  const auto two = run_parallel_mc(c, model, small_shard_opts(100003, 2), factory);
  const auto eight = run_parallel_mc(c, model, small_shard_opts(100003, 8), factory);
  EXPECT_EQ(one.trials, 100003u);
  EXPECT_GT(one.failures, 0u);
  EXPECT_EQ(one.failures, two.failures);
  EXPECT_EQ(one.trials, two.trials);
  EXPECT_EQ(one.failures, eight.failures);
  EXPECT_EQ(one.trials, eight.trials);
}

TEST(ParallelMc, ExperimentBitIdenticalAcrossThreadCounts) {
  // The migrated experiment drivers inherit the contract: same seed,
  // different thread counts, identical estimates.
  LogicalGateExperimentConfig config;
  config.level = 1;
  config.trials = 50000;
  config.seed = 0x5eedULL;
  const double g = 5e-3;

  config.threads = 1;
  const auto one = LogicalGateExperiment(config).run(g);
  config.threads = 3;
  const auto three = LogicalGateExperiment(config).run(g);
  config.threads = 8;
  const auto eight = LogicalGateExperiment(config).run(g);
  EXPECT_EQ(one.trials, 50000u);
  EXPECT_EQ(one.failures, three.failures);
  EXPECT_EQ(one.failures, eight.failures);
}

// --- statistical agreement with the single-threaded harness -----------

TEST(ParallelMc, MatchesKnownErrorRate) {
  // One noisy NOT on a zero input: P[wrong output] = g/2 (the failed
  // lane is re-randomized uniformly). Same physics as the
  // single-threaded MonteCarlo.MeasuresKnownErrorRate test.
  const Circuit c = single_not();
  const double g = 0.1;
  ParallelMcOptions opts;
  opts.trials = 400000;
  opts.seed = 42;
  opts.threads = 4;
  const auto est = run_parallel_mc(
      c, NoiseModel::uniform(g), opts,
      per_shard_kernel([](PackedState&, Xoshiro256&, std::uint64_t) {},
                       [](const PackedState& s, int lane, std::uint64_t) {
                         return s.bit_lane(0, lane) != 1;
                       }));
  EXPECT_EQ(est.trials, 400000u);
  EXPECT_NEAR(est.rate(), g / 2.0, 0.002);
}

TEST(ParallelMc, PartialBatchAccountingAcrossShards) {
  const Circuit c = single_not();
  for (std::uint64_t trials : {100ULL, 513ULL, 16385ULL, 100003ULL}) {
    auto opts = small_shard_opts(trials, 4);
    const auto est = run_parallel_mc(
        c, NoiseModel::uniform(0.0), opts,
        per_shard_kernel([](PackedState&, Xoshiro256&, std::uint64_t) {},
                         [](const PackedState& s, int lane, std::uint64_t) {
                           return s.bit_lane(0, lane) != 1;
                         }));
    EXPECT_EQ(est.trials, trials);
    EXPECT_EQ(est.failures, 0u);
  }
}

// --- the shard driver's pool ------------------------------------------

/// Throws from prepare in shards 3 and 5; every other shard is clean.
struct ThrowingKernel {
  std::uint64_t shard;
  void prepare(PackedState&, Xoshiro256&, std::uint64_t) const {
    if (shard == 3 || shard == 5)
      throw std::runtime_error("shard " + std::to_string(shard));
  }
  bool classify(const PackedState&, int, std::uint64_t) const { return false; }
};

std::string thrown_message(const std::function<void()>& run) {
  try {
    run();
  } catch (const std::runtime_error& err) {
    return err.what();
  }
  return "no exception";
}

TEST(ParallelMc, ShardExceptionsRethrowLowestIndexFirst) {
  const Circuit c = single_not();
  const NoiseModel model = NoiseModel::uniform(0.05);
  const auto throwing = [](std::uint64_t shard) {
    return ThrowingKernel{shard};
  };
  for (const int threads : {1, 4}) {
    const ParallelMcOptions opts = small_shard_opts(100003, threads);
    EXPECT_EQ(thrown_message([&] {
                run_parallel_mc(c, model, opts, throwing);
              }),
              "shard 3")
        << "threads=" << threads;
    telemetry::StreamOptions stream;
    stream.mc = opts;
    EXPECT_EQ(thrown_message([&] {
                telemetry::run_streaming_mc(c, model, stream, throwing);
              }),
              "shard 3")
        << "threads=" << threads;

    // The pool tore down cleanly: the next run works and is complete.
    const auto est = run_parallel_mc(
        c, model, opts, [](std::uint64_t) { return ThrowingKernel{0}; });
    EXPECT_EQ(est.trials, 100003u) << "threads=" << threads;
  }
}

/// Counts live instances (and the peak) across every shard's kernel.
struct CountingKernel {
  static inline std::atomic<int> live{0};
  static inline std::atomic<int> peak{0};

  CountingKernel() { enter(); }
  CountingKernel(const CountingKernel&) { enter(); }
  CountingKernel& operator=(const CountingKernel&) = default;
  ~CountingKernel() { --live; }

  static void enter() {
    const int now = ++live;
    int seen = peak.load();
    while (seen < now && !peak.compare_exchange_weak(seen, now)) {
    }
  }
  void prepare(PackedState&, Xoshiro256&, std::uint64_t) {}
  bool classify(const PackedState&, int, std::uint64_t) const { return false; }
};

TEST(ParallelMc, FullRunHoldsAtMostThreadsLiveKernels) {
  const Circuit c = single_not();
  ParallelMcOptions opts;
  opts.trials = 64 * 2 * 64;  // 64 shards of 2 batches
  opts.batches_per_shard = 2;
  opts.threads = 4;
  CountingKernel::live = 0;
  CountingKernel::peak = 0;
  const auto est =
      run_parallel_mc(c, NoiseModel::uniform(0.05), opts,
                      [](std::uint64_t) { return CountingKernel{}; });
  EXPECT_EQ(plan_shards(opts.trials, opts.seed, opts.batches_per_shard).size(),
            64u);
  EXPECT_EQ(est.trials, opts.trials);
  EXPECT_GE(CountingKernel::peak.load(), 1);
  EXPECT_LE(CountingKernel::peak.load(), 4);
  EXPECT_EQ(CountingKernel::live.load(), 0);
}

// --- REVFT_THREADS parsing ---------------------------------------------

TEST(ParallelMc, ThreadsEnvTakesWholeDecimalOrHexOnly) {
  const char* saved = std::getenv("REVFT_THREADS");
  const std::string restore = saved != nullptr ? saved : "";
  auto resolve_with = [](const char* value) {
    ::setenv("REVFT_THREADS", value, 1);
    return resolve_thread_count(0);
  };
  EXPECT_EQ(resolve_with("010"), 10);  // decimal, not octal
  EXPECT_EQ(resolve_with("0x10"), 16);
  EXPECT_EQ(resolve_with("3"), 3);
  EXPECT_GE(resolve_with("0"), 1);  // 0 = hardware concurrency
  for (const char* bad : {"4x", "1e3", "-1", "", "2147483648"})
    EXPECT_THROW(resolve_with(bad), Error) << '"' << bad << '"';
  try {
    resolve_with("4x");
    ADD_FAILURE() << "4x did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("REVFT_THREADS"), std::string::npos);
  }
  EXPECT_EQ(resolve_thread_count(5), 5);  // an explicit count wins
  if (saved != nullptr)
    ::setenv("REVFT_THREADS", restore.c_str(), 1);
  else
    ::unsetenv("REVFT_THREADS");
}

}  // namespace
}  // namespace revft
