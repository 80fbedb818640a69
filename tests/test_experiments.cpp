// Monte-Carlo experiment driver tests: statistical sanity of the
// threshold experiments at small trial counts (kept light so the
// suite stays fast; the benches run the full sweeps).
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/threshold.h"
#include "ft/detect_experiment.h"
#include "ft/experiments.h"
#include "local/scheme1d.h"
#include "local/scheme2d.h"

namespace revft {
namespace {

LogicalGateExperimentConfig config_for(int level, std::uint64_t trials) {
  LogicalGateExperimentConfig config;
  config.level = level;
  config.trials = trials;
  config.seed = 0x5eedULL + static_cast<std::uint64_t>(level);
  return config;
}

TEST(Experiments, Level0AnchorsToPhysicalErrorScale) {
  // An unencoded toffoli fails visibly with probability g * 7/8 *
  // P[corruption changes the output] — bounded by g. Check the
  // measured rate is within [g/2, g] for a moderate g.
  const LogicalGateExperiment exp(config_for(0, 200000));
  const double g = 0.02;
  const auto est = exp.run(g);
  EXPECT_GT(est.rate(), 0.4 * g);
  EXPECT_LT(est.rate(), 1.1 * g);
}

TEST(Experiments, ZeroNoiseZeroErrors) {
  for (int level : {0, 1, 2}) {
    const LogicalGateExperiment exp(config_for(level, 5000));
    EXPECT_EQ(exp.run(0.0).failures, 0u) << "level " << level;
  }
}

TEST(Experiments, Level1SuppressesErrorsBelowThreshold) {
  // At g = rho/10 the level-1 logical error rate must be well below g.
  const LogicalGateExperiment exp(config_for(1, 300000));
  const double rho = threshold_for_ops(11);
  const double g = rho / 10;
  const auto est = exp.run(g);
  EXPECT_LT(est.wilson().lo, g) << "logical error not below physical!";
  EXPECT_LT(est.rate(), g * 0.8);
}

TEST(Experiments, Level1WorseAboveSaturation) {
  // Far above threshold, encoding hurts: logical error rate exceeds
  // the bare-gate visible error rate.
  const LogicalGateExperiment level1(config_for(1, 50000));
  const LogicalGateExperiment level0(config_for(0, 50000));
  const double g = 0.2;
  EXPECT_GT(level1.run(g).rate(), level0.run(g).rate());
}

TEST(Experiments, Level2BeatsLevel1DeepBelowThreshold) {
  const double g = 1e-3;  // ~rho/6 for G=11
  const LogicalGateExperiment level1(config_for(1, 400000));
  const LogicalGateExperiment level2(config_for(2, 400000));
  const auto e1 = level1.run(g);
  const auto e2 = level2.run(g);
  // Level 2 should be clearly better (Eq. 2 predicts ~squared).
  EXPECT_LT(e2.wilson().lo, e1.wilson().hi);
  EXPECT_LT(e2.rate(), e1.rate());
}

TEST(Experiments, QuadraticScalingAtLevel1) {
  // p(2g)/p(g) ~ 4 below threshold. Wide tolerance: MC noise. The
  // measured constant sits far below the paper's 3 C(G,2) bound, so g
  // must be largish to gather counts.
  const LogicalGateExperiment exp(config_for(1, 2000000));
  const auto lo = exp.run(3e-3);
  const auto hi = exp.run(6e-3);
  ASSERT_GT(lo.failures, 50u);
  const double ratio = hi.rate() / lo.rate();
  EXPECT_GT(ratio, 2.8);
  EXPECT_LT(ratio, 5.5);
}

TEST(Experiments, PerfectInitHelps) {
  // G = 9 vs G = 11: fewer fallible ops, lower logical error.
  LogicalGateExperimentConfig noisy = config_for(1, 400000);
  LogicalGateExperimentConfig perfect = config_for(1, 400000);
  perfect.noisy_init = false;
  const double g = 3e-3;
  const auto noisy_est = LogicalGateExperiment(noisy).run(g);
  const auto perfect_est = LogicalGateExperiment(perfect).run(g);
  EXPECT_LT(perfect_est.rate(), noisy_est.rate());
}

TEST(Experiments, SweepProducesMonotoneCurve) {
  const LogicalGateExperiment exp(config_for(1, 100000));
  const auto points = sweep_gate_error(exp, {1e-3, 3e-3, 1e-2, 3e-2});
  ASSERT_EQ(points.size(), 4u);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GT(points[i].logical_error.rate(),
              points[i - 1].logical_error.rate())
        << "logical error should grow with g in this range";
}

TEST(Experiments, DeterministicGivenSeed) {
  const LogicalGateExperiment exp(config_for(1, 20000));
  const auto a = exp.run(5e-3);
  const auto b = exp.run(5e-3);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.trials, b.trials);
}

TEST(Experiments, ModuleShapeMatchesLevel) {
  const LogicalGateExperiment exp(config_for(2, 1));
  EXPECT_EQ(exp.module().physical.width(), 243u);
  EXPECT_EQ(exp.module().level, 2);
  EXPECT_EQ(exp.module().blocks.size(), 3u);
}

TEST(Memory, CircuitShape) {
  MemoryExperiment::Config config;
  config.rounds = 5;
  const MemoryExperiment exp(config);
  // 5 recovery stages with init: 5 * 8 ops on 9 bits.
  EXPECT_EQ(exp.circuit().size(), 40u);
  EXPECT_EQ(exp.circuit().width(), 9u);
}

TEST(Memory, NoiselessStorageIsPerfect) {
  MemoryExperiment::Config config;
  config.rounds = 20;
  config.trials = 5000;
  const MemoryExperiment exp(config);
  EXPECT_EQ(exp.run(0.0).failures, 0u);
}

TEST(Memory, ErrorAccumulatesRoughlyLinearly) {
  const double g = 8e-3;
  MemoryExperiment::Config short_config;
  short_config.rounds = 4;
  short_config.trials = 600000;
  MemoryExperiment::Config long_config;
  long_config.rounds = 16;
  long_config.trials = 600000;
  const double p_short = MemoryExperiment(short_config).run(g).rate();
  const double p_long = MemoryExperiment(long_config).run(g).rate();
  ASSERT_GT(p_short, 0.0);
  const double ratio = p_long / p_short;
  // 4x the rounds: expect ~4x the failures (wide MC tolerance).
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.5);
}

TEST(Memory, StorageBeatsUnprotectedBitAtLowNoise) {
  // An unprotected bit touched by R noisy identity ops fails ~R*g/2;
  // the encoded memory at the same g should do much better.
  const double g = 2e-3;
  MemoryExperiment::Config config;
  config.rounds = 10;
  config.trials = 500000;
  const double p = MemoryExperiment(config).run(g).rate();
  EXPECT_LT(p, 10.0 * g / 2.0 * 0.5);
}

// --- exact-count pins of the experiments' Monte-Carlo streams ---------
//
// One fixed seed per experiment at lane_words = 1, each run at 1 and 3
// workers, 20000 trials. The counts were recorded before the
// experiments moved onto the one workload kernel (ft/machine_kernel.h);
// they hold only while every experiment draws its inputs and judges its
// outputs exactly as before.

constexpr std::uint64_t kPinTrials = 20000;

template <typename Run>
void expect_pinned(const char* name, std::uint64_t failures, Run&& run) {
  for (const int threads : {1, 3}) {
    const BernoulliEstimate est = run(threads);
    EXPECT_EQ(est.trials, kPinTrials) << name << ", " << threads << " threads";
    EXPECT_EQ(est.failures, failures) << name << ", " << threads << " threads";
  }
}

struct DetectionPin {
  std::uint64_t detected, detected_failures, silent_failures, zero_checks;
};

void expect_detection(const char* name, int threads,
                      const detect::DetectionEstimate& est, DetectionPin pin) {
  EXPECT_EQ(est.trials, kPinTrials) << name << ", " << threads << " threads";
  EXPECT_EQ(est.detected, pin.detected) << name << ", " << threads;
  EXPECT_EQ(est.detected_failures, pin.detected_failures)
      << name << ", " << threads;
  EXPECT_EQ(est.silent_failures, pin.silent_failures)
      << name << ", " << threads;
  EXPECT_EQ(est.zero_check_detected, pin.zero_checks)
      << name << ", " << threads;
}

// The level-2 rows at g = 5e-2 draw their masks on the threshold path
// (p >= 0.03). They were re-pinned when that path became the bit-plane
// draw (Xoshiro256::next_bernoulli_mask): same Bernoulli law, different
// RNG stream. `before` keeps the counts of the one-draw-per-lane
// sampler, and each re-pinned count must lie within 5 sigma of it. The
// level-1 rows run on the geometric path and did not move.
TEST(ExperimentPins, LogicalGateLevels1And2) {
  const struct {
    int level;
    bool noisy_init;
    double g;
    std::uint64_t failures, before;
  } pins[] = {{1, true, 2e-2, 110, 110},
              {1, false, 2e-2, 78, 78},
              {2, true, 5e-2, 155, 123},
              {2, false, 5e-2, 58, 46}};
  for (const auto& pin : pins) {
    const char* name = pin.noisy_init ? "noisy init" : "perfect init";
    expect_pinned(name, pin.failures, [&](int threads) {
      LogicalGateExperimentConfig config = config_for(pin.level, kPinTrials);
      config.noisy_init = pin.noisy_init;
      config.threads = threads;
      return LogicalGateExperiment(config).run(pin.g);
    });
    // Two independent binomial counts: sigma of the difference is
    // sqrt(2 k (1 - k/n)) at the old count k.
    const double k = static_cast<double>(pin.before);
    const double sigma = std::sqrt(2.0 * k * (1.0 - k / kPinTrials));
    EXPECT_LE(std::abs(static_cast<double>(pin.failures) - k), 5.0 * sigma)
        << name << ", level " << pin.level;
  }
}

TEST(ExperimentPins, Memory) {
  expect_pinned("memory", 187, [](int threads) {
    MemoryExperiment::Config config;
    config.rounds = 6;
    config.trials = kPinTrials;
    config.threads = threads;
    return MemoryExperiment(config).run(2e-2);
  });
}

TEST(ExperimentPins, CodewordCycleRunAndRunChecked) {
  const Cycle1d c1 = make_cycle_1d(GateKind::kToffoli, true);
  const Cycle2d c2 = make_cycle_2d(GateKind::kToffoli, true);
  CodewordCycleExperiment::Config config;
  config.trials = kPinTrials;
  auto cycle1d = [&](int threads) {
    CodewordCycleExperiment::Config c = config;
    c.threads = threads;
    return CodewordCycleExperiment(c1.circuit, c1.data, c1.data, c,
                                   c1.recovery_boundaries);
  };
  auto cycle2d = [&](int threads) {
    CodewordCycleExperiment::Config c = config;
    c.threads = threads;
    return CodewordCycleExperiment(c2.circuit, c2.data_before, c2.data_after,
                                   c, c2.recovery_boundaries);
  };
  expect_pinned("1D run", 600,
                [&](int threads) { return cycle1d(threads).run(1e-2); });
  expect_pinned("2D run", 78,
                [&](int threads) { return cycle2d(threads).run(1e-2); });
  for (const int threads : {1, 3}) {
    // run_checked takes the worker count explicitly.
    expect_detection("1D run_checked", threads,
                     cycle1d(0).run_checked(1e-2, threads),
                     {10828, 771, 0, 9997});
    expect_detection("2D run_checked", threads,
                     cycle2d(0).run_checked(1e-2, threads),
                     {7078, 153, 0, 5878});
  }
}

TEST(ExperimentPins, DetectVsCorrectBothArms) {
  for (const int threads : {1, 3}) {
    DetectVsCorrectConfig config;
    config.gate_budget = 600;
    config.trials = kPinTrials;
    config.threads = threads;
    const DetectVsCorrectPoint point =
        DetectVsCorrectExperiment(config).run(2e-3);
    EXPECT_EQ(point.correction.trials, kPinTrials);
    EXPECT_EQ(point.correction.failures, 71u) << threads << " threads";
    expect_detection("detection arm", threads, point.detection,
                     {9016, 7796, 3449, 0});
  }
}

}  // namespace
}  // namespace revft
