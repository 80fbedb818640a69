// Multi-word packed engine tests: the lane_words ∈ {1,2,4,8} widening
// of the 64-lane Monte-Carlo core.
//
// The two pinned contracts of the widening:
//   1. lane_words = 1 IS the legacy engine — same RNG stream, same
//      masks, same estimates bit for bit. The pinned constants below
//      were recorded on the pre-widening tree (the legacy code is
//      gone, so these numbers are the only ground truth).
//   2. Any fixed lane_words is bit-identical across REVFT_THREADS:
//      the width is part of the determinism key (like
//      batches_per_shard), the thread count never is.
//
// Plus: batched mask draws consume the identical RNG stream as
// sequential draws (the geometric gap spans word boundaries), ideal
// gate kernels agree with the scalar reference simulator at every
// width, different widths agree statistically (they run DIFFERENT
// trials — same distribution, different stream), checkpoint spans
// evaluate identically to the group walk (and a circuit without them
// is rejected), and multi-word checkpoint blends move exactly the
// masked lanes.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "detect/checked_mc.h"
#include "detect/rail.h"
#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "local/machine.h"
#include "noise/lanes.h"
#include "noise/packed_sim.h"
#include "noise/parallel_mc.h"
#include "recover/checkpoint.h"
#include "recovery_pins.h"
#include "rev/simulator.h"
#include "rev/synthesis.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/stats.h"
#include "telemetry/trace.h"

namespace revft {
namespace {

/// The scattered 10-bit workload of bench_local_checked/bench_recover
/// — also the workload the legacy baselines below were recorded on.
Circuit scattered10() {
  Circuit logical(10);
  logical.maj(9, 4, 0)
      .toffoli(0, 7, 9)
      .majinv(4, 1, 8)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return logical;
}

// --- LaneMask ---------------------------------------------------------

TEST(LaneMask, FirstNBuildsPartialLiveMasks) {
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    EXPECT_EQ(LaneMask::first_n(W, 0).popcount(), 0u);
    EXPECT_TRUE(LaneMask::first_n(W, 0).none());
    EXPECT_EQ(LaneMask::first_n(W, 64 * W).popcount(), 64 * W);
    const LaneMask partial = LaneMask::first_n(W, 64 * W - 3);
    EXPECT_EQ(partial.popcount(), 64 * W - 3);
    EXPECT_TRUE(partial.test(0));
    EXPECT_FALSE(partial.test(static_cast<int>(64 * W - 1)));
  }
  // A partial word in the middle of the run.
  const LaneMask m = LaneMask::first_n(4, 70);
  EXPECT_EQ(m.word(0), ~0ULL);
  EXPECT_EQ(m.word(1), 0x3FULL);
  EXPECT_EQ(m.word(2), 0ULL);
}

TEST(LaneMask, SetResetRemoveAndOperators) {
  LaneMask a(4);
  a.set(1);
  a.set(64);
  a.set(255);
  EXPECT_EQ(a.popcount(), 3u);
  EXPECT_TRUE(a.test(64));
  a.reset(64);
  EXPECT_FALSE(a.test(64));

  LaneMask b(4);
  b.set(1);
  b.set(200);
  const LaneMask both = a | b;
  EXPECT_EQ(both.popcount(), 3u);  // {1, 200, 255}
  LaneMask c = both;
  c.remove(b);  // strip {1, 200}
  EXPECT_EQ(c.popcount(), 1u);
  EXPECT_TRUE(c.test(255));
  EXPECT_EQ((a & b).popcount(), 1u);
  EXPECT_TRUE((a & b).test(1));
}

// --- mask-stream pinning (legacy values, recorded pre-widening) -------

// The threshold-path words were re-recorded when the one-draw-per-lane
// comparison became the bit-plane draw: same law, different stream.
// BitPlaneDrawIsExactThresholdComparison below carries the proof.
TEST(MaskStream, ThresholdPathPinnedToLegacyStream) {
  Xoshiro256 rng(42);
  BernoulliMaskStream s(0.2, &rng);
  const std::uint64_t expected[4] = {0x283245192400081ULL, 0x209000460c403008ULL,
                                     0x20a00a81284a100ULL, 0x404ca1223a8200ULL};
  for (const std::uint64_t e : expected) EXPECT_EQ(s.next_mask(), e);
}

TEST(MaskStream, GeometricPathPinnedToLegacyStream) {
  Xoshiro256 rng(42);
  BernoulliMaskStream s(0.01, &rng);
  const std::uint64_t expected[16] = {
      0x0ULL,          0x0ULL,  0x0ULL,     0x40000000000000ULL,
      0x0ULL,          0x4000000000800000ULL,
      0x4000000c0ULL,  0x1000000100008ULL,
      0x4000000000ULL, 0x2000ULL,
      0x0ULL,          0x80000100ULL,
      0x0ULL,          0x8004000000010000ULL,
      0x1000000000000ULL, 0x1000000002ULL};
  for (const std::uint64_t e : expected) EXPECT_EQ(s.next_mask(), e);
}

TEST(MaskStream, BatchedDrawMatchesSequentialDraws) {
  for (const unsigned W : {2u, 4u, 8u}) {
    for (const double p : {0.0005, 0.01, 0.03, 0.05, 0.08, 0.2}) {
      Xoshiro256 ra(123), rb(123);
      BernoulliMaskStream batched(p, &ra), sequential(p, &rb);
      std::uint64_t batch[kMaxLaneWords];
      for (int round = 0; round < 200; ++round) {
        batched.next_masks(batch, W);
        for (unsigned w = 0; w < W; ++w)
          ASSERT_EQ(batch[w], sequential.next_mask())
              << "W=" << W << " p=" << p << " round=" << round << " w=" << w;
      }
      // The streams must also be in the same STATE afterwards — the
      // draw-free fast path (gap spans the whole batch) has to leave
      // the pending gap counter where sequential consumption would.
      for (int i = 0; i < 16; ++i)
        ASSERT_EQ(batched.next_mask(), sequential.next_mask());
    }
  }
}

// p = 0 rides the gap path with a gap that never runs out: every draw
// takes next_masks' inline draw-free branch and no RNG word moves.
TEST(MaskStream, NoiselessStreamDrawsNothing) {
  Xoshiro256 rng(5), untouched(5);
  BernoulliMaskStream s(0.0, &rng);
  std::uint64_t batch[kMaxLaneWords];
  for (int round = 0; round < 1000; ++round) {
    s.next_masks(batch, 8);
    for (unsigned w = 0; w < 8; ++w) ASSERT_EQ(batch[w], 0u);
  }
  EXPECT_EQ(s.skip_clean(1000000, 8), 1000000u);
  EXPECT_EQ(s.next_mask(), 0u);
  EXPECT_EQ(rng.next(), untouched.next());
}

// skip_clean jumps the gap counter exactly as that many draw-free
// next_masks calls would, and stops at the first mask with a failure.
TEST(MaskStream, SkipCleanMatchesDrawFreeMasks) {
  for (const unsigned W : {1u, 2u, 4u, 8u}) {
    Xoshiro256 ra(77), rb(77);
    BernoulliMaskStream skipping(1e-3, &ra), drawing(1e-3, &rb);
    std::uint64_t a[kMaxLaneWords], b[kMaxLaneWords];
    for (int round = 0; round < 200; ++round) {
      const std::uint64_t skipped = skipping.skip_clean(1000, W);
      for (std::uint64_t k = 0; k < skipped; ++k) {
        drawing.next_masks(b, W);
        for (unsigned w = 0; w < W; ++w) ASSERT_EQ(b[w], 0u);
      }
      skipping.next_masks(a, W);
      drawing.next_masks(b, W);
      std::uint64_t any = 0;
      for (unsigned w = 0; w < W; ++w) {
        ASSERT_EQ(a[w], b[w]) << "W=" << W << " round=" << round;
        any |= a[w];
      }
      if (skipped < 1000) {
        ASSERT_NE(any, 0u);
      }
    }
    EXPECT_EQ(ra.next(), rb.next());
  }
}

TEST(MaskStream, GeometricGapStatisticsSpanWordBoundaries) {
  // Batched draws at W=8 with a gap that regularly spans several
  // words: the realized failure rate must match p (exact sampler, no
  // per-word truncation). 5-sigma tolerance on ~2M lanes.
  const double p = 0.003;
  Xoshiro256 rng(99);
  BernoulliMaskStream s(p, &rng);
  std::uint64_t batch[kMaxLaneWords];
  std::uint64_t set_bits = 0;
  const int rounds = 4000;
  for (int i = 0; i < rounds; ++i) {
    s.next_masks(batch, 8);
    for (int w = 0; w < 8; ++w) set_bits += std::popcount(batch[w]);
  }
  const double lanes = static_cast<double>(rounds) * 512.0;
  const double sigma = std::sqrt(p * (1.0 - p) * lanes);
  EXPECT_NEAR(static_cast<double>(set_bits), p * lanes, 5.0 * sigma);
}

// --- exactness of the bit-plane threshold draw -----------------------
//
// Xoshiro256::next_bernoulli_mask draws bit-plane k of all 64 lanes'
// uniforms with its k-th next() and stops once every lane differs from
// the threshold. A twin generator on the same seed replays those
// planes, so the test can rebuild every lane's 64-bit uniform and
// check the verdict against the plain comparison u < threshold.

std::uint64_t mask_threshold(double p) {
  return static_cast<std::uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
}

/// Mean and variance of the number of planes one mask draws. A lane is
/// undecided after k planes with probability 2^-k whatever p is, so
/// P(planes > k) = 1 - (1 - 2^-k)^64.
struct PlaneCountLaw {
  double mean = 0.0, var = 0.0;
};
PlaneCountLaw plane_count_law() {
  double mean = 0.0, second = 0.0;
  for (int k = 0; k < 64; ++k) {
    const double tail = 1.0 - std::pow(1.0 - std::ldexp(1.0, -k), 64);
    mean += tail;
    second += (2.0 * k + 1.0) * tail;
  }
  return {mean, second - mean * mean};
}

/// Replays one mask's planes on `twin`: fills u[lane] with the bits the
/// mask read, most significant first, and returns how many planes that
/// took (until every lane's prefix differs from the threshold's).
int replay_planes(Xoshiro256& twin, std::uint64_t threshold,
                  std::array<std::uint64_t, 64>& u) {
  u.fill(0);
  std::uint64_t undecided = ~0ULL;
  int planes = 0;
  for (int b = 63; b >= 0 && undecided != 0; --b) {
    const std::uint64_t plane = twin.next();
    ++planes;
    for (int lane = 0; lane < 64; ++lane) {
      u[lane] |= ((plane >> lane) & 1ULL) << b;
      if ((u[lane] >> b) != (threshold >> b)) undecided &= ~(1ULL << lane);
    }
  }
  return planes;
}

TEST(MaskStream, BitPlaneDrawIsExactThresholdComparison) {
  const PlaneCountLaw law = plane_count_law();
  EXPECT_NEAR(law.mean, 7.344, 1e-3);
  const int masks = 10000;
  for (const double p :
       {0.03, 0.05, 0.08, 0.2, 0.5, 0.9, 1.0 - 0x1.0p-53}) {
    const std::uint64_t threshold = mask_threshold(p);
    Xoshiro256 rng(77), twin(77), filler(78);
    std::array<std::uint64_t, 64> u{};
    std::uint64_t planes_total = 0;
    for (int i = 0; i < masks; ++i) {
      const std::uint64_t mask = rng.next_bernoulli_mask(p);
      const int planes = replay_planes(twin, threshold, u);
      planes_total += static_cast<std::uint64_t>(planes);
      for (int lane = 0; lane < 64; ++lane) {
        // The low bits the mask never read cannot change the verdict.
        if (planes < 64) u[lane] |= filler.next() >> planes;
        ASSERT_EQ((mask >> lane) & 1ULL, u[lane] < threshold ? 1ULL : 0ULL)
            << "p=" << p << " mask " << i << " lane " << lane;
      }
      // The mask read exactly the planes the twin replayed.
      Xoshiro256 after_mask = rng, after_twin = twin;
      ASSERT_EQ(after_mask.next(), after_twin.next())
          << "p=" << p << " mask " << i << " drew a different plane count";
    }
    const double mean_planes = static_cast<double>(planes_total) / masks;
    EXPECT_NEAR(mean_planes, law.mean, 5.0 * std::sqrt(law.var / masks))
        << "p=" << p;
  }
}

TEST(MaskStream, BitPlaneTieLaneStaysClear) {
  // Find a seed whose first 64 planes give some lane a uniform u with
  // at most 53 significant bits, so p = u / 2^64 is exact and that
  // lane ties the threshold on every plane: all 64 planes are drawn,
  // and u == threshold must leave the lane clear (u < threshold fails).
  for (std::uint64_t seed = 1; seed < 10000; ++seed) {
    Xoshiro256 planes(seed);
    std::array<std::uint64_t, 64> u{};
    for (int b = 63; b >= 0; --b) {
      const std::uint64_t plane = planes.next();
      for (int lane = 0; lane < 64; ++lane)
        u[lane] |= ((plane >> lane) & 1ULL) << b;
    }
    for (int tie = 0; tie < 64; ++tie) {
      if (u[tie] == 0 || (u[tie] & 0x7ffULL) != 0) continue;
      const double p = std::ldexp(static_cast<double>(u[tie]), -64);
      ASSERT_EQ(mask_threshold(p), u[tie]);
      Xoshiro256 rng(seed);
      const std::uint64_t mask = rng.next_bernoulli_mask(p);
      for (int lane = 0; lane < 64; ++lane)
        EXPECT_EQ((mask >> lane) & 1ULL, u[lane] < u[tie] ? 1ULL : 0ULL)
            << "seed " << seed << " tie lane " << tie << " lane " << lane;
      EXPECT_EQ(rng.next(), planes.next()) << "seed " << seed;
      return;
    }
  }
  FAIL() << "no seed below 10000 gives a lane an exact-double uniform";
}

// --- ideal kernels vs the scalar reference, every width ---------------

TEST(PackedWide, IdealKernelsMatchScalarSimulatorAtEveryWidth) {
  // A circuit touching every gate kind the kernels dispatch.
  Circuit c(6);
  c.not_(0)
      .cnot(0, 1)
      .swap(1, 2)
      .toffoli(0, 1, 3)
      .fredkin(3, 2, 4)
      .swap3(0, 4, 5)
      .maj(1, 3, 5)
      .majinv(1, 3, 5)
      .f2g(2, 0, 4)
      .nft(5, 1, 2)
      .init3(0, 2, 4);

  Xoshiro256 rng(0xABCDEFULL);
  for (const unsigned W : {1u, 2u, 4u, 8u}) {
    PackedState state(c.width(), W);
    // Random per-lane inputs, recorded so each lane can be replayed
    // through the scalar simulator.
    std::vector<std::uint64_t> inputs(c.width() * W);
    for (std::uint32_t bit = 0; bit < c.width(); ++bit)
      for (unsigned w = 0; w < W; ++w) {
        inputs[bit * W + w] = rng.next();
        state.words(bit)[w] = inputs[bit * W + w];
      }
    PackedSimulator::apply_ideal(state, c);

    for (const int lane : {0, 1, 63, 64, static_cast<int>(64 * W - 1)}) {
      if (lane >= static_cast<int>(64 * W)) continue;
      StateVector sv(c.width());
      for (std::uint32_t bit = 0; bit < c.width(); ++bit)
        sv.set_bit(bit, static_cast<std::uint8_t>(
                            (inputs[bit * W + (lane >> 6)] >> (lane & 63)) & 1u));
      for (const Gate& g : c.ops()) sv.apply(g);
      for (std::uint32_t bit = 0; bit < c.width(); ++bit)
        ASSERT_EQ(state.bit_lane(bit, lane), sv.bit(bit))
            << "W=" << W << " lane=" << lane << " bit=" << bit;
    }
  }
}

// --- W=1 end-to-end pinning (legacy estimates, recorded pre-widening) -

TEST(WideEngine, LaneWords1ReproducesLegacyPlainEstimate) {
  const Circuit logical = scattered10();
  const CheckedMachineProgram prog = CheckedMachine1d(10).compile(logical);
  const auto truth = machine_truth_table(logical);
  ParallelMcOptions opts;
  opts.trials = 20000;
  opts.seed = 0xD5A2005ULL;
  opts.threads = 1;
  const auto est = run_parallel_mc(
      prog.checked.circuit, NoiseModel::uniform(1e-3), opts,
      [&](std::uint64_t) { return make_machine_kernel(prog, truth); });
  EXPECT_EQ(est.trials, 20000u);
  EXPECT_EQ(est.failures, 931u);  // recorded on the pre-widening tree
}

TEST(WideEngine, LaneWords1ReproducesLegacyCheckedEstimate) {
  const Circuit logical = scattered10();
  CheckedMachineExperiment::Config config;
  config.trials = 20000;
  config.seed = 0xD5A2005ULL;
  const CheckedMachineExperiment exp(CheckedMachine1d(10).compile(logical),
                                     logical, config);
  const auto e = exp.run(1e-3, 1);
  EXPECT_EQ(e.detected, 17368u);
  EXPECT_EQ(e.detected_failures, 931u);
  EXPECT_EQ(e.silent_failures, 0u);
  EXPECT_EQ(e.zero_check_detected, 17176u);
  const std::vector<std::uint64_t> rails = {3248, 2030, 2015, 1312, 3089,
                                            1665, 2210, 2789, 2762, 4063};
  EXPECT_EQ(e.rail_detected, rails);
}

// The block-local estimate at W=1, re-pinned twice by the same rule.
// Each change kept the per-lane protocol's law and consumed the RNG in
// a different order, so the exact counts moved; the counts before each
// change are kept below, and every re-pinned count must lie within
// 5 sigma of both.
//   * legacy_grouped(): before each (segment, attempt) became one union
//     replay over all outstanding lanes instead of one replay per
//     distinct fired-component set.
//   * one_attempt_per_pass(): before a restart pass ran a pending
//     lane's attempts side by side in the batch's idle lanes instead of
//     one attempt per pending lane per pass.
recover::RecoveryEstimate legacy_grouped() {
  return {.trials = 20000,
          .accepted = 19934,
          .rejected = 66,
          .silent_failures = 0,
          .detected_trials = 17393,
          .local_retries = 41600,
          .program_restarts = 1044,
          .fallbacks = 204,
          .rail_events = {7332, 3638, 3695, 1368, 4215, 3762, 4067, 4035,
                          4138, 8227},
          .zero_check_events = 38997,
          .ops_main = 47960778,
          .ops_local = 2425117,
          .ops_restart = 1130171,
          .segment_replays = {},
          .segment_replay_ops = {}};
}

recover::RecoveryEstimate one_attempt_per_pass() {
  return {.trials = 20000,
          .accepted = 19955,
          .rejected = 45,
          .silent_failures = 3,
          .detected_trials = 17433,
          .local_retries = 41419,
          .program_restarts = 910,
          .fallbacks = 181,
          .rail_events = {7322, 3666, 3699, 1398, 4311, 3630, 4145, 3959,
                          4091, 8223},
          .zero_check_events = 38668,
          .ops_main = 47980316,
          .ops_local = 2428611,
          .ops_restart = 1013580,
          .segment_replays = {},
          .segment_replay_ops = {}};
}

TEST(WideEngine, LaneWords1ReproducesLegacyRecoveringEstimate) {
  const Circuit logical = scattered10();
  RecoveryExperiment::Config config;
  config.trials = 20000;
  config.seed = 0xD5A2005ULL;
  const auto program =
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical);
  const RecoveryExperiment exp(program, logical, config);
  const auto e = exp.run(1e-3, recover::RetryPolicy::block_local(), 1);
  EXPECT_EQ(e.accepted, 19941u);
  EXPECT_EQ(e.silent_failures, 2u);
  EXPECT_EQ(e.detected_trials, 17510u);
  EXPECT_EQ(e.local_retries, 41643u);
  EXPECT_EQ(e.program_restarts, 969u);
  EXPECT_EQ(e.fallbacks, 190u);
  EXPECT_EQ(e.rejected, 59u);
  EXPECT_EQ(e.ops_main, 47972902u);
  EXPECT_EQ(e.ops_local, 2430024u);
  EXPECT_EQ(e.ops_restart, 1064535u);
  EXPECT_EQ(e.zero_check_events, 39065u);
  const std::vector<std::uint64_t> rails = {7474, 3635, 3754, 1324, 4279,
                                            3690, 4190, 4004, 4103, 8113};
  EXPECT_EQ(e.rail_events, rails);

  const std::uint64_t ops = program.checked.circuit.size();
  test::expect_recovery_within_5_sigma(e, legacy_grouped(), ops, "vs grouped");
  test::expect_recovery_within_5_sigma(e, one_attempt_per_pass(), ops,
                                       "vs one attempt per pass");
}

// With at most one whole-program attempt per trial a restart pass has
// no second attempt to place in an idle lane, so the pass is the one a
// restart always ran: these estimates were recorded before restart
// attempts ran side by side and must reproduce field for field. Their
// restart_accepts, counted since, is accepted - (trials -
// detected_trials) under whole-program and fallbacks - rejected under
// block-local.
TEST(WideEngine, SingleProgramAttemptEstimatesAreUnchanged) {
  const Circuit logical = scattered10();
  const std::vector<std::uint64_t> none(27, 0);
  const struct {
    unsigned lane_words;
    recover::RetryPolicy policy;
    recover::RecoveryEstimate want;
  } cases[] = {
      {1, recover::RetryPolicy::whole_program(1),
       {.trials = 20000, .accepted = 4752, .rejected = 15248,
        .silent_failures = 0, .detected_trials = 17475, .local_retries = 0,
        .program_restarts = 17475, .fallbacks = 0, .restart_accepts = 2227,
        .rail_events = {3676, 1658, 1271, 709, 2072, 1202, 1518, 1894, 1605,
                        4396},
        .zero_check_events = 17268, .ops_main = 21507127, .ops_local = 0,
        .ops_restart = 18746121, .segment_replays = none,
        .segment_replay_ops = none}},
      {1, recover::RetryPolicy::block_local(3, 1),
       {.trials = 20000, .accepted = 19820, .rejected = 180,
        .silent_failures = 1, .detected_trials = 17379,
        .local_retries = 41483, .program_restarts = 206, .fallbacks = 206,
        .restart_accepts = 26,
        .rail_events = {7352, 3653, 3552, 1387, 4245, 3637, 4003, 3989, 4068,
                        8105},
        .zero_check_events = 38842, .ops_main = 47946277,
        .ops_local = 2441124, .ops_restart = 210499,
        .segment_replays = {1819, 1467, 1501, 1509, 2985, 1002, 1542, 1545,
                            1736, 863, 1472, 1575, 1528, 1555, 1974, 1010,
                            2259, 2173, 1459, 1458, 1048, 988, 1497, 1476,
                            1488, 1674, 880},
        .segment_replay_ops = {86208, 67635, 68310, 69030, 468645, 18528,
                               70515, 70740, 168392, 14016, 67365, 72900,
                               70110, 71595, 215166, 17536, 105030, 100845,
                               66870, 67140, 63928, 16544, 68625, 67950,
                               67905, 157356, 42240}}},
      {8, recover::RetryPolicy::whole_program(1),
       {.trials = 20000, .accepted = 4760, .rejected = 15240,
        .silent_failures = 1, .detected_trials = 17470, .local_retries = 0,
        .program_restarts = 17470, .fallbacks = 0, .restart_accepts = 2230,
        .rail_events = {3668, 1573, 1218, 758, 2095, 1289, 1456, 1799, 1692,
                        4297},
        .zero_check_events = 17386, .ops_main = 21445630, .ops_local = 0,
        .ops_restart = 18738508, .segment_replays = none,
        .segment_replay_ops = none}},
      {8, recover::RetryPolicy::block_local(3, 1),
       {.trials = 20000, .accepted = 19850, .rejected = 150,
        .silent_failures = 1, .detected_trials = 17401,
        .local_retries = 41281, .program_restarts = 168, .fallbacks = 168,
        .restart_accepts = 18,
        .rail_events = {7478, 3733, 3575, 1338, 4120, 3743, 4095, 3977, 3977,
                        8039},
        .zero_check_events = 38728, .ops_main = 47988363,
        .ops_local = 2413854, .ops_restart = 162687,
        .segment_replays = {1791, 1510, 1484, 1499, 2807, 987, 1523, 1517, 1724,
                            837, 1506, 1524, 1540, 1579, 1873, 958, 2233, 2183,
                            1510, 1527, 1063, 979, 1518, 1514, 1511, 1742, 842},
        .segment_replay_ops = {85602, 69300, 67950, 69165, 440699, 18432, 69750,
                               69795, 167228, 13984, 68715, 70065, 70650,
                               72225, 204157, 16784, 103995, 101925, 69300,
                               69660, 64843, 16576, 69885, 69435, 69570,
                               163748, 40416}}},
  };
  for (const auto& c : cases) {
    RecoveryExperiment::Config config;
    config.trials = 20000;
    config.seed = 0xD5A2005ULL;
    config.lane_words = c.lane_words;
    const RecoveryExperiment exp(
        CheckedMachine1d(10, true, recovering_machine_options())
            .compile(logical),
        logical, config);
    test::expect_same_recovery(
        exp.run(1e-3, c.policy, 1), c.want,
        "W=" + std::to_string(c.lane_words) + " local " +
            std::to_string(c.policy.max_local_attempts));
  }
}

// --- cross-width agreement and determinism ----------------------------

TEST(WideEngine, WidthsAgreeStatistically) {
  // Different widths consume the mask stream in different batch
  // shapes, so they run DIFFERENT trials — the contract is equal
  // distribution, not equal streams. Compare detected rates pairwise
  // against W=1 at 5 combined sigmas.
  const Circuit logical = scattered10();
  const double g = 1e-3;
  const std::uint64_t trials = 20000;

  BernoulliEstimate detected[4] = {};
  const unsigned widths[] = {1, 2, 4, 8};
  for (int i = 0; i < 4; ++i) {
    CheckedMachineExperiment::Config config;
    config.trials = trials;
    config.seed = 0xD5A2005ULL;
    config.lane_words = widths[i];
    const CheckedMachineExperiment exp(CheckedMachine1d(10).compile(logical),
                                       logical, config);
    const auto e = exp.run(g, 1);
    EXPECT_EQ(e.trials, trials);
    // Silent failures need several faults to cancel every rail; at
    // g=1e-3 that's vanishingly rare but not impossible (the stream
    // differs per width), so bound it instead of demanding zero.
    EXPECT_LE(e.silent_failures, 5u) << "W=" << widths[i];
    detected[i] = BernoulliEstimate{e.detected, e.trials};
  }
  // Two independent estimates agree when their rates sit within the
  // combined 5-sigma Wilson half-widths (added in quadrature).
  for (int i = 1; i < 4; ++i) {
    const double tol =
        std::hypot(detected[0].half_width(5.0), detected[i].half_width(5.0));
    EXPECT_NEAR(detected[i].rate(), detected[0].rate(), tol)
        << "W=" << widths[i];
  }
}

TEST(WideEngine, CheckedThreadCountInvariantAtEveryWidth) {
  const Circuit logical = scattered10();
  const CheckedMachineProgram program = CheckedMachine1d(10).compile(logical);
  for (const unsigned W : {1u, 2u, 4u, 8u}) {
    CheckedMachineExperiment::Config config;
    config.trials = 20000;
    config.seed = 0xD5A2005ULL;
    config.lane_words = W;
    const CheckedMachineExperiment exp(program, logical, config);
    const auto e1 = exp.run(1e-3, 1);
    const auto e3 = exp.run(1e-3, 3);
    const auto e8 = exp.run(1e-3, 8);
    EXPECT_EQ(e1, e3) << "W=" << W;
    EXPECT_EQ(e1, e8) << "W=" << W;
  }
}

TEST(WideEngine, RecoveringThreadCountInvariantWide) {
  const Circuit logical = scattered10();
  const auto program =
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical);
  for (const unsigned W : {2u, 8u}) {
    RecoveryExperiment::Config config;
    config.trials = 10000;
    config.seed = 0xD5A2005ULL;
    config.lane_words = W;
    const RecoveryExperiment exp(program, logical, config);
    const auto e1 = exp.run(1e-3, recover::RetryPolicy::block_local(), 1);
    const auto e3 = exp.run(1e-3, recover::RetryPolicy::block_local(), 3);
    const auto e8 = exp.run(1e-3, recover::RetryPolicy::block_local(), 8);
    EXPECT_EQ(e1, e3) << "W=" << W;
    EXPECT_EQ(e1, e8) << "W=" << W;
    EXPECT_EQ(e1.trials, 10000u);
    // The protocol actually engaged at this width (not a vacuous run).
    EXPECT_GT(e1.detected_trials, 0u);
    EXPECT_GT(e1.local_retries, 0u);
  }
}

// --- the word judge vs the per-lane reference -------------------------

/// Majority decode of one lane over the n = 3^L cells at `cells`.
unsigned decode_lane(const PackedState& s, int lane,
                     const std::uint32_t* cells, std::uint32_t n) {
  if (n == 1) return s.bit_lane(cells[0], lane);
  n /= 3;
  const unsigned votes = decode_lane(s, lane, cells, n) +
                         decode_lane(s, lane, cells + n, n) +
                         decode_lane(s, lane, cells + 2 * n, n);
  return votes >= 2 ? 1u : 0u;
}

/// The per-lane judge the word judge replaced: gather the lane's input
/// bits, look its expected outputs up in `truth` and compare each
/// output's decoded exit cells.
bool reference_wrong(const MachineWorkloadKernel& kernel,
                     const std::vector<unsigned>& truth, const PackedState& s,
                     int lane) {
  const MachineWorkloadKernel::Io& io = *kernel.io;
  const unsigned W = s.lane_words();
  unsigned input = 0;
  for (std::uint32_t k = 0; k < io.inputs; ++k)
    input |= static_cast<unsigned>(
                 (kernel.lane_inputs[k * W + lane / 64] >> (lane % 64)) & 1u)
             << k;
  for (std::uint32_t k = 0; k < io.outputs; ++k)
    if (decode_lane(s, lane, io.exit.data() + k * io.exit_stride,
                    io.exit_stride) != ((truth[input] >> k) & 1u))
      return true;
  return false;
}

// Every kernel shape: 1-cell exits (a bare circuit), 3-cell codewords
// (the checked 2D machine), 3^L leaves (a level-2 module) and an adder
// whose inputs and outputs differ. Noisy runs at two error rates give
// lanes of both verdicts; the word judge, the judge the loops call
// over a partial last-batch mask and the per-lane reference through
// the same adaptor must all agree lane for lane.
TEST(MachineKernel, WordJudgeMatchesPerLaneReference) {
  struct Case {
    const char* name;
    Circuit circuit;  ///< run noisily over the prepared lanes
    MachineWorkloadKernel kernel;
    std::vector<unsigned> truth;
  };
  const Circuit logical = scattered10();
  const std::vector<unsigned> truth10 = machine_truth_table(logical);
  const CheckedMachineProgram machine = CheckedMachine2d(10).compile(logical);
  Circuit toffoli(3);
  toffoli.toffoli(0, 1, 2);
  const CompiledModule module = concat_compile(toffoli, 2);
  const RippleAdder adder = cuccaro_adder(2);
  const CompiledModule adder_module = concat_compile(adder.circuit, 1);
  std::vector<unsigned> sums;  // inputs a0, b0, a1, b1; outputs b, carry
  for (unsigned in = 0; in < 16; ++in)
    sums.push_back(((in & 1u) | ((in >> 1) & 2u)) +
                   (((in >> 1) & 1u) | ((in >> 2) & 2u)));
  std::vector<Case> cases;
  cases.push_back({"circuit", logical, make_circuit_kernel(logical), truth10});
  cases.push_back({"machine2d", machine.checked.circuit,
                   make_machine_kernel(machine, truth10), truth10});
  cases.push_back({"module L2", module.physical,
                   make_module_kernel(module, {0, 1, 2}, {0, 1, 2},
                                      machine_truth_table(toffoli)),
                   machine_truth_table(toffoli)});
  cases.push_back(
      {"adder", adder_module.physical,
       make_module_kernel(adder_module,
                          {adder.a_bits[0], adder.b_bits[0], adder.a_bits[1],
                           adder.b_bits[1]},
                          {adder.b_bits[0], adder.b_bits[1], adder.carry_out},
                          sums),
       sums});
  for (Case& c : cases) {
    std::uint64_t wrong_lanes = 0, lanes_seen = 0;
    for (const unsigned W : {1u, 8u}) {
      for (const double g : {3e-3, 3e-2}) {
        PackedSimulator sim(NoiseModel::uniform(g), 0x3dULL + W);
        PackedState state(c.circuit.width(), W);
        for (std::uint64_t batch = 0; batch < 4; ++batch) {
          state.clear();
          c.kernel.prepare(state, sim.rng(), batch);
          sim.apply_noisy_span(state, c.circuit, 0, c.circuit.size());
          LaneMask wrong;
          c.kernel.classify_words(state, batch, wrong);
          ASSERT_EQ(wrong.words(), W);
          for (unsigned lane = 0; lane < 64 * W; ++lane)
            ASSERT_EQ(wrong.test(lane),
                      reference_wrong(c.kernel, c.truth, state,
                                      static_cast<int>(lane)))
                << c.name << " W=" << W << " g=" << g << " lane " << lane;
          const LaneMask live = LaneMask::first_n(W, 64 * W - 37);
          const LaneMask judged = detail::judge_lanes(
              detail::kernel_classify(c.kernel), state, batch, live);
          const LaneMask reference = detail::judge_lanes(
              [&](const PackedState& s, int lane, std::uint64_t) {
                return reference_wrong(c.kernel, c.truth, s, lane);
              },
              state, batch, live);
          EXPECT_TRUE(judged == (wrong & live)) << c.name << " W=" << W;
          EXPECT_TRUE(judged == reference) << c.name << " W=" << W;
          wrong_lanes += wrong.popcount();
          lanes_seen += 64 * W;
        }
      }
    }
    EXPECT_GT(wrong_lanes, 0u) << c.name;
    EXPECT_LT(wrong_lanes, lanes_seen) << c.name;
  }
}

// The per-lane adaptor calls a per-lane judge once per counted lane,
// in ascending lane order within a batch, batches in order — a partial
// last batch included — and only on the lanes it is given.
TEST(MachineKernel, PerLaneAdaptorCallsEachCountedLaneOnceInOrder) {
  const unsigned W = 8;
  const std::uint64_t lanes_per_batch = 64 * W;
  const std::uint64_t trials = 3 * lanes_per_batch + 37;
  std::vector<std::pair<std::uint64_t, int>> calls;
  ParallelMcOptions opts;
  opts.trials = trials;
  opts.threads = 1;
  opts.lane_words = W;
  const auto est = run_parallel_mc(
      Circuit(1), NoiseModel::uniform(0.0), opts,
      per_shard_kernel([](PackedState&, Xoshiro256&, std::uint64_t) {},
                       [&calls](const PackedState&, int lane,
                                std::uint64_t batch) {
                         calls.emplace_back(batch, lane);
                         return lane % 3 == 0;
                       }));
  ASSERT_EQ(calls.size(), trials);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    ASSERT_EQ(calls[i].first, i / lanes_per_batch) << i;
    ASSERT_EQ(calls[i].second, static_cast<int>(i % lanes_per_batch)) << i;
  }
  EXPECT_EQ(est.trials, trials);
  EXPECT_EQ(est.failures, 3 * (lanes_per_batch / 3 + 1) + 13);

  LaneMask lanes(W);
  for (const unsigned lane : {511u, 3u, 64u, 200u}) lanes.set(lane);
  std::vector<int> seen;
  const LaneMask wrong = detail::judge_lanes(
      [&seen](const PackedState&, int lane, std::uint64_t) {
        seen.push_back(lane);
        return lane % 2 == 0;
      },
      PackedState(1, W), 0, lanes);
  EXPECT_EQ(seen, (std::vector<int>{3, 64, 200, 511}));
  EXPECT_EQ(wrong.popcount(), 2u);
  EXPECT_TRUE(wrong.test(64) && wrong.test(200));
}

// --- checkpoint spans vs the group walk -------------------------------

/// Reference for the checked walk: the per-op noisy walk the engine
/// ran before it drew each batch's faults first — the simulator's
/// span loop between checks (identical RNG consumption), each rail
/// evaluated word by word off CheckpointSpan::group instead of through
/// the engine's evaluator. `fired` (nullable) gets the per-rail masks,
/// then the zero checks', laid out like apply_noisy_checked_words'.
void apply_noisy_checked_group_walk(PackedSimulator& sim, PackedState& state,
                                    const detect::CheckedCircuit& checked,
                                    std::uint64_t* detected,
                                    std::uint64_t* fired = nullptr) {
  const unsigned W = state.lane_words();
  const std::size_t rails = checked.rails.size();
  std::fill(detected, detected + W, 0);
  if (fired != nullptr) std::fill(fired, fired + (rails + 1) * W, 0);
  const std::size_t end = checked.circuit.size();
  const std::size_t n_cp = checked.checkpoints.size();
  const std::size_t n_zc = checked.zero_checks.size();
  std::size_t pos = 0, ci = 0, zi = 0;
  while (ci < n_cp || zi < n_zc) {
    const std::size_t stop =
        std::min(ci < n_cp ? checked.checkpoints[ci] : end,
                 zi < n_zc ? checked.zero_checks[zi].op_index : end);
    sim.apply_noisy_span(state, checked.circuit, pos, stop + 1);
    pos = stop + 1;
    for (; zi < n_zc && checked.zero_checks[zi].op_index == stop; ++zi)
      for (const std::uint32_t bit : checked.zero_checks[zi].bits)
        for (unsigned w = 0; w < W; ++w) {
          detected[w] |= state.words(bit)[w];
          if (fired != nullptr) fired[rails * W + w] |= state.words(bit)[w];
        }
    for (; ci < n_cp && checked.checkpoints[ci] == stop; ++ci) {
      const detect::CheckpointSpan& span = checked.checkpoint_spans[ci];
      for (std::size_t r = 0; r < rails; ++r) {
        for (unsigned w = 0; w < W; ++w) {
          std::uint64_t acc = state.words(checked.rails[r].rail_bit)[w];
          for (const std::uint32_t bit : span.group(r))
            acc ^= state.words(bit)[w];
          detected[w] |= acc;
          if (fired != nullptr) fired[r * W + w] |= acc;
        }
      }
    }
  }
  sim.apply_noisy_span(state, checked.circuit, pos, end);
}

/// Dense random SWAP/SWAP3 routing over four 3-bit rail groups with a
/// checkpoint after every op: membership moves between all of them.
detect::CheckedCircuit chained_routing_circuit() {
  Xoshiro256 rng(0x5eed5a11ULL);
  Circuit routing(12);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<std::uint32_t>(rng.next_below(12));
    auto b = static_cast<std::uint32_t>(rng.next_below(12));
    while (b == a) b = static_cast<std::uint32_t>(rng.next_below(12));
    if (rng.next_below(2) == 0) {
      routing.swap(a, b);
    } else {
      auto c = static_cast<std::uint32_t>(rng.next_below(12));
      while (c == a || c == b) c = static_cast<std::uint32_t>(rng.next_below(12));
      routing.swap3(a, b, c);
    }
  }
  detect::ParityRailOptions opts;
  opts.check_every = 1;
  opts.rail_partition = detect::partition_into_blocks(12, 3);
  return detect::to_parity_rail(routing, opts);
}

// The reference reads each checkpoint's cells (checkpoint_spans, which
// migrate); the engine reads each rail's fixed slot set. They must
// agree wherever membership moves between checkpoints.
void expect_engine_matches_group_walk(const char* name,
                                      const detect::CheckedCircuit& checked) {
  for (const unsigned W : {1u, 4u}) {
    PackedSimulator sim_a(NoiseModel::uniform(3e-3), 2024);
    PackedSimulator sim_b(NoiseModel::uniform(3e-3), 2024);
    PackedState state_a(checked.circuit.width(), W);
    PackedState state_b(checked.circuit.width(), W);
    std::uint64_t det_a[kMaxLaneWords], det_b[kMaxLaneWords];
    for (int round = 0; round < 32; ++round) {
      detect::apply_noisy_checked_words(sim_a, state_a, checked, det_a);
      apply_noisy_checked_group_walk(sim_b, state_b, checked, det_b);
      for (unsigned w = 0; w < W; ++w)
        ASSERT_EQ(det_a[w], det_b[w])
            << name << " W=" << W << " round=" << round;
      for (std::uint32_t bit = 0; bit < state_a.width(); ++bit)
        for (unsigned w = 0; w < W; ++w)
          ASSERT_EQ(state_a.words(bit)[w], state_b.words(bit)[w]) << name;
      state_a.clear();
      state_b.clear();
    }
  }
}

TEST(CheckpointSpans, SpanEvaluationMatchesGroupWalk) {
  Circuit logical(4);
  logical.toffoli(0, 1, 2).maj(1, 2, 3);
  expect_engine_matches_group_walk(
      "1D machine", CheckedMachine1d(4).compile(logical).checked);
  CheckedMachineOptions every_boundary;
  every_boundary.rail_check_every_boundary = true;
  const auto boundaries =
      CheckedMachine1d(4, true, every_boundary).compile(logical).checked;
  ASSERT_GT(boundaries.checkpoints.size(), 1u);
  expect_engine_matches_group_walk("1D machine, every boundary", boundaries);
  // A checked circuit need not end at a check: the walk also runs the
  // ops after its last check stop.
  detect::CheckedCircuit tail = boundaries;
  tail.checkpoints.pop_back();
  detect::index_walk(tail);
  ASSERT_LT(std::max(tail.checkpoints.back(),
                     tail.zero_checks.back().op_index) + 1,
            tail.circuit.size());
  expect_engine_matches_group_walk("1D machine, unchecked tail", tail);
  expect_engine_matches_group_walk("chained routing",
                                   chained_routing_circuit());
}

// --- draw, compact, walk ----------------------------------------------

/// The scattered workload on the checked 2D machine — perfbench's
/// machine2d_checked_w8 program: 1248 ops, most of them routing, 119
/// zero checks and one rail checkpoint over 10 rails.
const CheckedMachineProgram& checked_2d_program() {
  static const CheckedMachineProgram program =
      CheckedMachine2d(10, true).compile(scattered10());
  return program;
}

// The draw-then-walk engine against the per-op reference walk, from
// identical random states (every cell random, so checks fire too):
// the faults drawn up front must be the ones the per-op walk draws,
// word for word, on the gap path (g < 0.03, including the never-failing
// p = 0 gap) and the bit-plane path (g = 3e-2), with and without
// failing inits.
TEST(CheckedWalk, DrawThenWalkMatchesPerOpWalk) {
  const detect::CheckedCircuit& checked = checked_2d_program().checked;
  const std::size_t slots = checked.rails.size() + 1;
  for (const bool noisy_init : {true, false})
    for (const double g : {0.0, 1e-5, 1e-3, 3e-2})
      for (const unsigned W : {1u, 2u, 4u, 8u}) {
        NoiseModel model = NoiseModel::uniform(g);
        if (!noisy_init) model.with_perfect_init();
        PackedSimulator sim_a(model, 2029), sim_b(model, 2029);
        PackedState a(checked.circuit.width(), W);
        PackedState b(checked.circuit.width(), W);
        Xoshiro256 fill(W * 1000 + static_cast<unsigned>(noisy_init));
        std::uint64_t det_a[kMaxLaneWords], det_b[kMaxLaneWords];
        std::vector<std::uint64_t> fired_a(slots * W), fired_b(slots * W);
        for (int round = 0; round < 6; ++round) {
          for (std::uint32_t bit = 0; bit < a.width(); ++bit)
            for (unsigned w = 0; w < W; ++w)
              a.words(bit)[w] = b.words(bit)[w] = fill.next();
          detect::apply_noisy_checked_words(sim_a, a, checked, det_a,
                                            fired_a.data());
          apply_noisy_checked_group_walk(sim_b, b, checked, det_b,
                                         fired_b.data());
          const std::string where = "noisy_init=" + std::to_string(noisy_init) +
                                    " g=" + std::to_string(g) +
                                    " W=" + std::to_string(W) +
                                    " round=" + std::to_string(round);
          for (unsigned w = 0; w < W; ++w)
            ASSERT_EQ(det_a[w], det_b[w]) << where;
          ASSERT_EQ(fired_a, fired_b) << where;
          for (std::uint32_t bit = 0; bit < a.width(); ++bit)
            for (unsigned w = 0; w < W; ++w)
              ASSERT_EQ(a.words(bit)[w], b.words(bit)[w])
                  << where << " bit=" << bit;
          ASSERT_EQ(sim_a.faults_drawn(), sim_b.faults_drawn()) << where;
        }
        EXPECT_EQ(sim_a.rng().next(), sim_b.rng().next())
            << "noisy_init=" << noisy_init << " g=" << g << " W=" << W;
      }
}

/// 64-bit FNV-1a over a traced run's events — test_trace_pins' shape.
std::uint64_t trace_fingerprint(const telemetry::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  add(trace.events().size());
  for (const telemetry::Event& e : trace.events()) {
    add(static_cast<std::uint64_t>(e.kind));
    add(e.shard);
    add(e.rail);
    add(e.segment);
    add(e.batch);
    add(e.lanes);
    add(e.value);
  }
  add(trace.emitted());
  add(trace.dropped());
  return h;
}

// The span loop walks only the lanes that drew a fault (plus one
// sentinel), compacted to the narrowest width that holds them, and
// counts every other lane accepted and correct. These estimates and
// trace fingerprints were recorded on the engine that walked and judged
// every lane. The rates put the dirty lanes of a W=8 batch near 0, 64,
// 128, 256 and all 512 (g = 3e-3); 40963 trials leave a last batch of
// 3 live lanes at W=8 and at W=1, so some batches have no clean lane.
TEST(CheckedCompaction, EstimatesAndTraceMatchTheEveryLaneEngine) {
  struct Pin {
    bool noisy_init;
    unsigned lane_words;
    double g;
    detect::DetectionEstimate est;
    std::uint64_t fingerprint;
  };
  const Pin pins[] = {
      {true, 8, 1e-5,
       {40963, 393, 0, 0,
        {22, 32, 14, 13, 36, 11, 19, 28, 27, 35},
        361},
       0x846ecc53464552adull},
      {true, 8, 1e-4,
       {40963, 3851, 6, 0,
        {319, 278, 139, 123, 325, 156, 235, 247, 325, 533},
        3599},
       0xd566d57c2fa8f4baull},
      {true, 8, 3e-4,
       {40963, 10816, 18, 0,
        {994, 735, 356, 355, 1015, 411, 690, 680, 916, 1508},
        10178},
       0x441bf5b386b07027ull},
      {true, 8, 1e-3,
       {40963, 26225, 264, 0,
        {3023, 2455, 1241, 1074, 3181, 1301, 2168, 2060, 2970, 4766},
        25135},
       0xfa82d8a6d65d99b8ull},
      {true, 8, 3e-3,
       {40963, 39004, 2073, 1,
        {7991, 6570, 3469, 3271, 8358, 3656, 5816, 5649, 7620, 11020},
        38532},
       0xe80468ab4054eeb6ull},
      {true, 1, 1e-5,
       {40963, 419, 0, 0,
        {30, 23, 16, 14, 29, 16, 24, 21, 33, 66},
        392},
       0x52b11c0784378c09ull},
      {true, 1, 1e-4,
       {40963, 3912, 3, 0,
        {321, 262, 137, 102, 344, 132, 233, 214, 312, 495},
        3666},
       0x239c39cb0ae77b0aull},
      {true, 1, 3e-4,
       {40963, 10860, 26, 0,
        {971, 777, 347, 364, 1046, 402, 671, 674, 981, 1548},
        10190},
       0x5fae47bc91c4080bull},
      {true, 1, 1e-3,
       {40963, 26099, 245, 1,
        {3146, 2451, 1246, 1092, 3237, 1297, 2205, 2070, 2904, 4686},
        25048},
       0xfd8d071dbf3679d2ull},
      {true, 1, 3e-3,
       {40963, 39049, 2126, 1,
        {8015, 6508, 3474, 3384, 8232, 3728, 5866, 5646, 7472, 11043},
        38563},
       0xdc5fc600ea2f2feaull},
      {false, 8, 3e-4,
       {40963, 10226, 26, 0,
        {910, 693, 322, 348, 992, 352, 679, 657, 873, 1478},
        9598},
       0x032259a98e25df72ull},
      {false, 1, 3e-4,
       {40963, 10270, 36, 0,
        {880, 730, 362, 360, 965, 334, 619, 656, 841, 1473},
        9586},
       0x3225c23898dc2437ull},
  };
  for (const Pin& pin : pins) {
    CheckedMachineExperiment::Config config;
    config.noisy_init = pin.noisy_init;
    config.trials = pin.est.trials;
    config.lane_words = pin.lane_words;
    const CheckedMachineExperiment exp(checked_2d_program(), scattered10(),
                                       config);
    telemetry::TraceConfig ring;
    ring.ring_capacity = 1 << 20;
    telemetry::Trace trace(ring);
    const detect::DetectionEstimate est = exp.run(pin.g, 2, &trace);
    EXPECT_EQ(est, pin.est) << "noisy_init=" << pin.noisy_init
                            << " W=" << pin.lane_words << " g=" << pin.g;
    EXPECT_EQ(trace.dropped(), 0u);
    EXPECT_EQ(trace_fingerprint(trace), pin.fingerprint)
        << "noisy_init=" << pin.noisy_init << " W=" << pin.lane_words
        << " g=" << pin.g << ": got 0x" << std::hex
        << trace_fingerprint(trace);
  }
}

/// Runs the checked 2D machine's span loop on `kernel` at g = 1e-5 and
/// returns the error it throws ("" when it throws none). `stuck_cell`
/// (optional) is set in every lane after prepare.
std::string span_error(const MachineWorkloadKernel& kernel,
                       std::optional<std::uint32_t> stuck_cell = {}) {
  const detect::CheckedCircuit& checked = checked_2d_program().checked;
  PackedSimulator sim(NoiseModel::uniform(1e-5), 17);
  PackedState state(checked.circuit.width(), 8);
  MachineWorkloadKernel k = kernel;
  try {
    detect::detail::run_checked_mc_span(
        sim, state, checked, 0, 4 * 512,
        [&](PackedState& s, Xoshiro256& rng, std::uint64_t b) {
          k.prepare(s, rng, b);
          if (stuck_cell) s.fill_bit(*stuck_cell, true);
        },
        detail::kernel_classify(k));
  } catch (const Error& err) {
    return err.what();
  }
  return "";
}

// The premise behind skipping the fault-free lanes is checked on the
// sentinel lane: a judge that calls a fault-free output wrong, or a
// check that fires without a fault, makes the engine throw instead of
// counting the skipped lanes accepted and correct.
TEST(CheckedCompaction, SentinelCatchesABrokenPremise) {
  const CheckedMachineProgram& program = checked_2d_program();
  std::vector<unsigned> truth = machine_truth_table(scattered10());
  const MachineWorkloadKernel good = make_machine_kernel(program, truth);
  EXPECT_EQ(span_error(good), "");

  for (unsigned& t : truth) t ^= 1u;  // output 0 is wrong on every input
  const std::string judged = span_error(make_machine_kernel(program, truth));
  EXPECT_NE(judged.find("drew no fault but was judged wrong"),
            std::string::npos)
      << judged;

  // Rail 0 entering at 1: its invariant fires in every lane.
  const std::string fired =
      span_error(good, program.checked.rails[0].rail_bit);
  EXPECT_NE(fired.find("drew no fault but fired a check"), std::string::npos)
      << fired;
}

// --- multi-word checkpoint and blends ---------------------------------

TEST(WideCheckpoint, CaptureRestoreRoundTrip) {
  const unsigned W = 4;
  PackedState state(6, W);
  Xoshiro256 rng(11);
  for (std::uint32_t bit = 0; bit < 6; ++bit)
    for (unsigned w = 0; w < W; ++w) state.words(bit)[w] = rng.next();

  recover::PackedCheckpoint ckpt;
  ckpt.capture(state);
  EXPECT_EQ(ckpt.width(), 6u);
  EXPECT_EQ(ckpt.lane_words(), W);

  PackedState scratch(6, W);
  ckpt.restore_all(scratch);
  for (std::uint32_t bit = 0; bit < 6; ++bit)
    for (unsigned w = 0; w < W; ++w)
      EXPECT_EQ(scratch.words(bit)[w], state.words(bit)[w]);
}

TEST(WideCheckpoint, LaneMaskBlendMovesExactlyTheMaskedLanes) {
  const unsigned W = 4;
  PackedState dst(3, W), src(3, W);
  for (std::uint32_t bit = 0; bit < 3; ++bit) src.fill_bit(bit, true);

  LaneMask mask(W);
  mask.set(0);
  mask.set(63);
  mask.set(64);   // crosses the word boundary
  mask.set(200);

  recover::blend_cells_lanes(dst, src, {0, 1, 2}, mask);
  for (std::uint32_t bit = 0; bit < 3; ++bit)
    for (int lane = 0; lane < static_cast<int>(64 * W); ++lane)
      EXPECT_EQ(dst.bit_lane(bit, lane), mask.test(lane) ? 1 : 0)
          << "bit=" << bit << " lane=" << lane;

  // Cell-restricted blend: only the listed cells move.
  PackedState dst2(3, W);
  recover::blend_cells_lanes(dst2, src, {1}, mask);
  for (int lane = 0; lane < static_cast<int>(64 * W); ++lane) {
    EXPECT_EQ(dst2.bit_lane(0, lane), 0);
    EXPECT_EQ(dst2.bit_lane(1, lane), mask.test(lane) ? 1 : 0);
    EXPECT_EQ(dst2.bit_lane(2, lane), 0);
  }
}

}  // namespace
}  // namespace revft
