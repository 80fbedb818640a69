// Tests for the streaming observation layer (telemetry/stream.h +
// telemetry/convergence.h) — the PR 10 determinism suite:
//
//   * a no-stop streaming run reproduces the legacy full-run estimate
//     EXACTLY for all three engines (plain, checked, recovering) —
//     streaming is pure observation, never perturbation;
//   * early-stopped estimates — trials consumed, failures, rail and
//     cost counters, the whole struct — are bit-identical across
//     worker counts {1, 3, 8}, and the convergence trajectory
//     (snapshots + stop decision) passes deterministic_equal;
//   * the same bit-identity holds at every lane_words tier (each W is
//     its own determinism key; within a W, threads never matter);
//   * decide_stop unit semantics: burn-in, the three criteria and
//     their precedence, the min_failures gate on the relative target;
//   * snapshot-series invariants (monotone trials, exhaustion), the
//     on_snapshot callback contract, and the CONV/Chrome JSON shapes
//     telemetry_check enforces in CI.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/checked_mc.h"
#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "noise/parallel_mc.h"
#include "rev/gate.h"
#include "support/json.h"
#include "telemetry/convergence.h"
#include "telemetry/stream.h"

namespace revft {
namespace {

using telemetry::ConvergenceSnapshot;
using telemetry::ConvergenceTrajectory;
using telemetry::EarlyStopPolicy;
using telemetry::StopReason;
using telemetry::StreamOptions;

// --- shared workloads -------------------------------------------------

Circuit bare_toffoli() {
  Circuit c(3);
  c.push(Gate{GateKind::kToffoli, {0, 1, 2}});
  return c;
}

/// Plain-engine kernel on the bare Toffoli: random inputs per lane,
/// failure = any of the three physical output bits wrong.
struct ToffoliKernel {
  std::array<std::uint64_t, 3 * kMaxLaneWords> lane_inputs{};

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    for (unsigned k = 0; k < 3; ++k) {
      for (unsigned w = 0; w < W; ++w) lane_inputs[k * W + w] = rng.next();
      std::uint64_t* dst = state.words(k);
      for (unsigned w = 0; w < W; ++w) dst[w] = lane_inputs[k * W + w];
    }
  }

  bool classify(const PackedState& state, int lane, std::uint64_t) const {
    const unsigned W = state.lane_words();
    const unsigned wi = static_cast<unsigned>(lane) >> 6;
    const unsigned sh = static_cast<unsigned>(lane) & 63u;
    unsigned input = 0;
    for (unsigned k = 0; k < 3; ++k)
      input |= static_cast<unsigned>((lane_inputs[k * W + wi] >> sh) & 1u)
               << k;
    const unsigned expected = gate_apply_local(GateKind::kToffoli, input);
    for (unsigned k = 0; k < 3; ++k)
      if (state.bit_lane(k, lane) != ((expected >> k) & 1u)) return true;
    return false;
  }
};

ParallelMcOptions plain_mc_options(unsigned lane_words = 1) {
  ParallelMcOptions mc;
  mc.trials = 50000;
  mc.seed = 0x572ea3ULL;
  mc.batches_per_shard = 64;  // 13 shards, ~832-trial rounds at W=1
  mc.lane_words = lane_words;
  return mc;
}

Circuit routed_toffoli3() {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  return logical;
}

// --- decide_stop semantics --------------------------------------------

TEST(EarlyStop, DisabledPolicyNeverStops) {
  const EarlyStopPolicy policy;  // all targets zero
  EXPECT_FALSE(policy.enabled());
  EXPECT_EQ(telemetry::decide_stop(policy, 1u << 20, {0, 1u << 20}),
            StopReason::kNone);
}

TEST(EarlyStop, BurnInGatesEveryCriterion) {
  EarlyStopPolicy policy;
  policy.target_half_width = 0.5;  // satisfied by almost anything
  policy.min_trials = 1000;
  EXPECT_EQ(telemetry::decide_stop(policy, 999, {1, 999}), StopReason::kNone);
  EXPECT_EQ(telemetry::decide_stop(policy, 1000, {1, 1000}),
            StopReason::kHalfWidth);
}

TEST(EarlyStop, AbsoluteTargetComparesTheWilsonHalfWidth) {
  EarlyStopPolicy policy;
  policy.target_half_width = 0.01;
  const BernoulliEstimate wide{50, 1000};    // hw ~ 0.0136
  const BernoulliEstimate tight{500, 10000}; // hw ~ 0.0043
  EXPECT_GT(wide.half_width(policy.z), policy.target_half_width);
  EXPECT_EQ(telemetry::decide_stop(policy, wide.trials, wide),
            StopReason::kNone);
  EXPECT_LE(tight.half_width(policy.z), policy.target_half_width);
  EXPECT_EQ(telemetry::decide_stop(policy, tight.trials, tight),
            StopReason::kHalfWidth);
}

TEST(EarlyStop, RelativeTargetIsGatedOnMinFailures) {
  EarlyStopPolicy policy;
  policy.target_rel_half_width = 0.5;
  policy.min_failures = 20;
  // Rate 0: hw <= rel * 0 is unsatisfiable anyway, but a tiny nonzero
  // rate below the failure floor must not trigger either.
  EXPECT_EQ(telemetry::decide_stop(policy, 100000, {19, 100000}),
            StopReason::kNone);
  const BernoulliEstimate enough{400, 100000};  // hw/rate ~ 0.1
  EXPECT_EQ(telemetry::decide_stop(policy, enough.trials, enough),
            StopReason::kRelHalfWidth);
}

TEST(EarlyStop, UpperBoundCertifiesSubThresholdRates) {
  EarlyStopPolicy policy;
  policy.target_upper_bound = 0.02;
  // 0 failures in 1000: wilson hi ~ 0.0038 — certified.
  EXPECT_EQ(telemetry::decide_stop(policy, 1000, {0, 1000}),
            StopReason::kUpperBound);
  // 0 failures in 100: hi ~ 0.037 — not yet.
  EXPECT_EQ(telemetry::decide_stop(policy, 100, {0, 100}), StopReason::kNone);
  // A zero-denominator headline (all trials aborted) never certifies.
  EXPECT_EQ(telemetry::decide_stop(policy, 1000, {0, 0}), StopReason::kNone);
}

TEST(EarlyStop, CriteriaFireInEnumOrder) {
  EarlyStopPolicy policy;
  policy.target_half_width = 0.5;
  policy.target_rel_half_width = 10.0;
  policy.target_upper_bound = 0.9;
  // All three satisfied — the absolute criterion wins.
  EXPECT_EQ(telemetry::decide_stop(policy, 1000, {100, 1000}),
            StopReason::kHalfWidth);
}

TEST(EarlyStop, StopReasonNamesAreStable) {
  EXPECT_STREQ(telemetry::stop_reason_name(StopReason::kNone), "none");
  EXPECT_STREQ(telemetry::stop_reason_name(StopReason::kExhausted),
               "exhausted");
  EXPECT_STREQ(telemetry::stop_reason_name(StopReason::kHalfWidth),
               "half_width");
  EXPECT_STREQ(telemetry::stop_reason_name(StopReason::kRelHalfWidth),
               "rel_half_width");
  EXPECT_STREQ(telemetry::stop_reason_name(StopReason::kUpperBound),
               "upper_bound");
}

// --- no-stop streaming == legacy full run -----------------------------

TEST(StreamPlain, NoStopReproducesLegacyEstimateExactly) {
  const Circuit circuit = bare_toffoli();
  const NoiseModel model = NoiseModel::uniform(0.05);
  const ParallelMcOptions mc = plain_mc_options();

  const BernoulliEstimate legacy = run_parallel_mc(
      circuit, model, mc, [](std::uint64_t) { return ToffoliKernel{}; });

  StreamOptions opts;
  opts.mc = mc;  // default policy: never stops
  const auto streamed = telemetry::run_streaming_mc(
      circuit, model, opts, [](std::uint64_t) { return ToffoliKernel{}; });

  EXPECT_EQ(streamed.estimate.failures, legacy.failures);
  EXPECT_EQ(streamed.estimate.trials, legacy.trials);
  EXPECT_FALSE(streamed.stopped_early());
  EXPECT_EQ(streamed.stop_reason(), StopReason::kExhausted);
  EXPECT_EQ(streamed.trajectory.trials_consumed(), mc.trials);
}

TEST(StreamChecked, NoStopReproducesLegacyEstimateExactly) {
  const auto program = CheckedMachine1d(3, true, recovering_machine_options())
                           .compile(routed_toffoli3());
  CheckedMachineExperiment::Config config;
  config.trials = 20000;
  const CheckedMachineExperiment exp(program, routed_toffoli3(), config);

  const detect::DetectionEstimate legacy = exp.run(0.01);
  const auto streamed = exp.run_streaming(0.01, StreamOptions{});
  EXPECT_EQ(streamed.estimate, legacy);
  EXPECT_EQ(streamed.stop_reason(), StopReason::kExhausted);
}

TEST(StreamRecovering, NoStopReproducesLegacyEstimateExactly) {
  const auto program = CheckedMachine1d(3, true, recovering_machine_options())
                           .compile(routed_toffoli3());
  RecoveryExperiment::Config config;
  config.trials = 20000;
  const RecoveryExperiment exp(program, routed_toffoli3(), config);
  const auto policy = recover::RetryPolicy::block_local();

  const recover::RecoveryEstimate legacy = exp.run(0.01, policy);
  const auto streamed = exp.run_streaming(0.01, policy, StreamOptions{});
  EXPECT_EQ(streamed.estimate, legacy);
  EXPECT_EQ(streamed.stop_reason(), StopReason::kExhausted);
}

// --- early-stopped estimates are bit-identical across threads ---------

telemetry::StreamResult<BernoulliEstimate> stopped_plain_run(
    int threads, unsigned lane_words = 1) {
  StreamOptions opts;
  opts.mc = plain_mc_options(lane_words);
  opts.mc.threads = threads;
  opts.stop.target_rel_half_width = 0.2;
  opts.stop.min_failures = 30;
  opts.stop.min_trials = 1024;
  return telemetry::run_streaming_mc(
      bare_toffoli(), NoiseModel::uniform(0.05), opts,
      [](std::uint64_t) { return ToffoliKernel{}; });
}

TEST(StreamPlain, StoppedEstimateBitIdenticalAcrossThreads) {
  const auto t1 = stopped_plain_run(1);
  ASSERT_TRUE(t1.stopped_early());
  EXPECT_EQ(t1.stop_reason(), StopReason::kRelHalfWidth);
  // An early stop must actually save trials against the budget.
  EXPECT_LT(t1.trajectory.trials_consumed(), plain_mc_options().trials);

  for (const int threads : {3, 8}) {
    const auto tn = stopped_plain_run(threads);
    EXPECT_EQ(tn.estimate.failures, t1.estimate.failures) << threads;
    EXPECT_EQ(tn.estimate.trials, t1.estimate.trials) << threads;
    EXPECT_TRUE(tn.trajectory.deterministic_equal(t1.trajectory)) << threads;
  }
}

TEST(StreamPlain, StoppedEstimateBitIdenticalAtEveryLaneTier) {
  for (const unsigned lane_words : {1u, 2u, 4u}) {
    const auto t1 = stopped_plain_run(1, lane_words);
    const auto t8 = stopped_plain_run(8, lane_words);
    ASSERT_TRUE(t1.stopped_early()) << "W=" << lane_words;
    EXPECT_EQ(t8.estimate.failures, t1.estimate.failures)
        << "W=" << lane_words;
    EXPECT_EQ(t8.estimate.trials, t1.estimate.trials) << "W=" << lane_words;
    EXPECT_TRUE(t8.trajectory.deterministic_equal(t1.trajectory))
        << "W=" << lane_words;
  }
}

TEST(StreamChecked, StoppedEstimateBitIdenticalAcrossThreads) {
  const auto program = CheckedMachine1d(3, true, recovering_machine_options())
                           .compile(routed_toffoli3());

  const auto run_at = [&](int threads) {
    CheckedMachineExperiment::Config config;
    config.trials = 40000;
    config.threads = threads;
    const CheckedMachineExperiment exp(program, routed_toffoli3(), config);
    StreamOptions opts;
    opts.mc.batches_per_shard = 64;
    opts.stop.target_upper_bound = 0.02;  // certify the silent rate
    opts.stop.min_trials = 4096;
    return exp.run_streaming(0.01, opts);
  };

  const auto t1 = run_at(1);
  ASSERT_TRUE(t1.stopped_early());
  EXPECT_EQ(t1.stop_reason(), StopReason::kUpperBound);
  EXPECT_LT(t1.trajectory.trials_consumed(), 40000u);

  for (const int threads : {3, 8}) {
    const auto tn = run_at(threads);
    // Whole-struct equality: trials, all four outcome counts AND the
    // per-rail detected counters.
    EXPECT_EQ(tn.estimate, t1.estimate) << threads;
    EXPECT_TRUE(tn.trajectory.deterministic_equal(t1.trajectory)) << threads;
  }
}

TEST(StreamRecovering, StoppedEstimateBitIdenticalAcrossThreads) {
  const auto program = CheckedMachine1d(3, true, recovering_machine_options())
                           .compile(routed_toffoli3());
  const auto policy = recover::RetryPolicy::block_local();

  const auto run_at = [&](int threads) {
    RecoveryExperiment::Config config;
    config.trials = 40000;
    config.threads = threads;
    const RecoveryExperiment exp(program, routed_toffoli3(), config);
    StreamOptions opts;
    opts.mc.batches_per_shard = 64;
    opts.stop.target_upper_bound = 0.02;  // certify delivered quality
    opts.stop.min_trials = 4096;
    return exp.run_streaming(0.01, policy, opts);
  };

  const auto t1 = run_at(1);
  ASSERT_TRUE(t1.stopped_early());
  EXPECT_LT(t1.trajectory.trials_consumed(), 40000u);

  for (const int threads : {3, 8}) {
    const auto tn = run_at(threads);
    // Retries, per-rail events, op accounting — the whole struct.
    EXPECT_EQ(tn.estimate, t1.estimate) << threads;
    EXPECT_TRUE(tn.trajectory.deterministic_equal(t1.trajectory)) << threads;
  }
}

// --- snapshot-series and callback contracts ---------------------------

TEST(StreamTrajectory, SnapshotsAreMonotoneAndRoundStamped) {
  const auto run = stopped_plain_run(3);
  const ConvergenceTrajectory& traj = run.trajectory;
  ASSERT_FALSE(traj.snapshots.empty());
  for (std::size_t i = 0; i < traj.snapshots.size(); ++i) {
    const ConvergenceSnapshot& s = traj.snapshots[i];
    EXPECT_EQ(s.round, i);
    if (i > 0) {
      EXPECT_GT(s.trials, traj.snapshots[i - 1].trials) << "round " << i;
    }
  }
  EXPECT_EQ(traj.snapshots.back().trials, traj.trials_consumed());
  // The stop decision is made ON the final snapshot.
  EXPECT_EQ(traj.rounds(), traj.snapshots.size());
}

TEST(StreamTrajectory, OnSnapshotFiresOncePerRound) {
  std::uint64_t calls = 0;
  StreamOptions opts;
  opts.mc = plain_mc_options();
  opts.mc.threads = 2;
  opts.on_snapshot = [&](const ConvergenceSnapshot& snap,
                         const ConvergenceTrajectory& traj) {
    EXPECT_EQ(snap.round, calls);
    EXPECT_EQ(snap, traj.snapshots.back());
    ++calls;
  };
  const auto run = telemetry::run_streaming_mc(
      bare_toffoli(), NoiseModel::uniform(0.05), opts,
      [](std::uint64_t) { return ToffoliKernel{}; });
  EXPECT_EQ(calls, run.trajectory.snapshots.size());
}

TEST(StreamTrajectory, WallProfileIsExcludedFromDeterministicEqual) {
  auto a = stopped_plain_run(1);
  auto b = stopped_plain_run(8);
  a.trajectory.wall.round_seconds = {1.0, 2.0};
  b.trajectory.wall.round_seconds = {9.0};
  EXPECT_TRUE(a.trajectory.deterministic_equal(b.trajectory));
}

TEST(StreamTrajectory, WallProfileRecordsOneRoundPerSnapshot) {
  StreamOptions full;
  full.mc = plain_mc_options();
  full.mc.threads = 2;  // default policy: runs the whole budget
  const auto exhausted = telemetry::run_streaming_mc(
      bare_toffoli(), NoiseModel::uniform(0.05), full,
      [](std::uint64_t) { return ToffoliKernel{}; });
  ASSERT_EQ(exhausted.stop_reason(), StopReason::kExhausted);
  const auto stopped = stopped_plain_run(2);
  ASSERT_TRUE(stopped.stopped_early());

  for (const auto* traj : {&exhausted.trajectory, &stopped.trajectory}) {
    ASSERT_FALSE(traj->snapshots.empty());
    EXPECT_EQ(traj->wall.round_seconds.size(), traj->snapshots.size());
    for (const double s : traj->wall.round_seconds) EXPECT_GE(s, 0.0);
  }
  EXPECT_LT(stopped.trajectory.snapshots.size(),
            exhausted.trajectory.snapshots.size());
}

// --- artifact shapes --------------------------------------------------

TEST(StreamArtifacts, ConvergenceJsonParsesStrictlyWithTheExpectedKeys) {
  const auto run = stopped_plain_run(2);
  const auto parsed = json::parse(run.trajectory.to_json().dump(2));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  const json::Value& doc = parsed.value;
  for (const char* key :
       {"name", "git_sha", "compiler", "engine", "determinism_key", "policy",
        "snapshots", "stop", "wall"})
    EXPECT_NE(doc.find(key), nullptr) << key;
  EXPECT_EQ(doc.find("engine")->as_string(), "plain");
  const json::Value* stop = doc.find("stop");
  ASSERT_NE(stop, nullptr);
  EXPECT_EQ(stop->find("reason")->as_string(), "rel_half_width");
  EXPECT_TRUE(stop->find("stopped_early")->as_bool());
  EXPECT_EQ(stop->find("trials_consumed")->as_uint(),
            run.trajectory.trials_consumed());
  const json::Value* snaps = doc.find("snapshots");
  ASSERT_NE(snaps, nullptr);
  EXPECT_EQ(snaps->size(), run.trajectory.snapshots.size());
}

TEST(StreamArtifacts, ChromeCounterSeriesLeadsWithMetadataThenCounters) {
  const auto run = stopped_plain_run(2);
  const json::Value doc =
      telemetry::convergence_chrome_json(run.trajectory, "test_stream");
  const json::Value* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->size(), 1 + 3 * run.trajectory.snapshots.size());
  EXPECT_EQ(events->elements().front().find("ph")->as_string(), "M");
  for (std::size_t i = 1; i < events->elements().size(); ++i) {
    const json::Value& ev = events->elements()[i];
    EXPECT_EQ(ev.find("ph")->as_string(), "C");
    ASSERT_NE(ev.find("args"), nullptr);
  }
  // Round-trips through the strict parser (the telemetry_check gate).
  EXPECT_TRUE(json::parse(doc.dump(2)).ok);
}

}  // namespace
}  // namespace revft
