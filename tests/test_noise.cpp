// Tests for the noise layer: the model, the exact Bernoulli mask
// stream, packed-vs-scalar simulator equivalence, the paper's failure
// semantics, and deterministic fault injection.
#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "noise/injection.h"
#include "noise/model.h"
#include "noise/packed_sim.h"
#include "noise/parallel_mc.h"
#include "rev/simulator.h"
#include "support/error.h"

namespace revft {
namespace {

// --- NoiseModel -------------------------------------------------------

TEST(NoiseModel, UniformAppliesToAllKinds) {
  const NoiseModel m = NoiseModel::uniform(0.01);
  EXPECT_DOUBLE_EQ(m.error_for(GateKind::kMaj), 0.01);
  EXPECT_DOUBLE_EQ(m.error_for(GateKind::kInit3), 0.01);
  EXPECT_DOUBLE_EQ(m.error_for(GateKind::kSwap3), 0.01);
}

TEST(NoiseModel, PerfectInitOverride) {
  NoiseModel m = NoiseModel::uniform(0.01);
  m.with_perfect_init();
  EXPECT_DOUBLE_EQ(m.error_for(GateKind::kInit3), 0.0);
  EXPECT_DOUBLE_EQ(m.error_for(GateKind::kMaj), 0.01);
}

TEST(NoiseModel, ValidatesProbabilities) {
  EXPECT_THROW(NoiseModel::uniform(-0.1), Error);
  EXPECT_THROW(NoiseModel::uniform(1.1), Error);
  NoiseModel m = NoiseModel::uniform(0.5);
  EXPECT_THROW(m.set_kind(GateKind::kMaj, 2.0), Error);
}

TEST(NoiseModel, NoiselessDetection) {
  EXPECT_TRUE(NoiseModel::uniform(0.0).is_noiseless());
  EXPECT_FALSE(NoiseModel::uniform(0.1).is_noiseless());
  NoiseModel m = NoiseModel::uniform(0.0);
  m.set_kind(GateKind::kMaj, 0.2);
  EXPECT_FALSE(m.is_noiseless());
}

// --- BernoulliMaskStream -----------------------------------------------

TEST(BernoulliMaskStream, ZeroAndOne) {
  Xoshiro256 rng(1);
  BernoulliMaskStream zeros(0.0, &rng);
  BernoulliMaskStream ones(1.0, &rng);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zeros.next_mask(), 0u);
    EXPECT_EQ(ones.next_mask(), ~0ULL);
  }
}

class BernoulliMaskDensity : public ::testing::TestWithParam<double> {};

TEST_P(BernoulliMaskDensity, MatchesP) {
  // Covers both the geometric (small p) and threshold (large p) paths.
  const double p = GetParam();
  Xoshiro256 rng(0xbe27u);
  BernoulliMaskStream stream(p, &rng);
  const std::uint64_t masks = 400000;
  std::uint64_t set_bits = 0;
  for (std::uint64_t i = 0; i < masks; ++i)
    set_bits += static_cast<std::uint64_t>(
        __builtin_popcountll(stream.next_mask()));
  const double observed =
      static_cast<double>(set_bits) / (64.0 * static_cast<double>(masks));
  // 5-sigma band on the binomial estimate.
  const double sigma = std::sqrt(p * (1 - p) / (64.0 * static_cast<double>(masks)));
  EXPECT_NEAR(observed, p, 5.0 * sigma + 1e-9) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(SmallAndLargeP, BernoulliMaskDensity,
                         ::testing::Values(1e-4, 1e-3, 1e-2, 0.029, 0.031, 0.2,
                                           0.5, 0.9));

TEST(BernoulliMaskStream, GeometricPathLaneIndependence) {
  // Bits within one mask must be independent: check the joint rate of
  // adjacent-lane double failures is ~p^2, which a buggy stream that
  // clusters failures would violate.
  const double p = 0.01;
  Xoshiro256 rng(0x1a7eu);
  BernoulliMaskStream stream(p, &rng);
  std::uint64_t pairs = 0;
  const std::uint64_t masks = 2000000;
  for (std::uint64_t i = 0; i < masks; ++i) {
    const std::uint64_t m = stream.next_mask();
    pairs += static_cast<std::uint64_t>(__builtin_popcountll(m & (m >> 1)));
  }
  const double per_pair =
      static_cast<double>(pairs) / (63.0 * static_cast<double>(masks));
  // 5-sigma band: sigma ~= sqrt(p^2 / (63 * masks)) ~= 2.8e-6.
  EXPECT_NEAR(per_pair, p * p, 1.5e-5);
}

// --- packed vs scalar -----------------------------------------------------

TEST(PackedSim, IdealMatchesScalarOnAllGateKinds) {
  Circuit c(6);
  c.not_(0).cnot(0, 1).swap(1, 2).toffoli(0, 1, 3).fredkin(3, 4, 5)
      .swap3(0, 2, 4).maj(1, 3, 5).majinv(1, 3, 5).init3(0, 1, 2);
  Xoshiro256 rng(0x9acced);
  PackedState ps(6);
  std::array<std::uint64_t, 6> inputs{};
  for (std::uint32_t b = 0; b < 6; ++b) {
    inputs[b] = rng.next();
    ps.word(b) = inputs[b];
  }
  PackedSimulator::apply_ideal(ps, c);
  for (int lane = 0; lane < 64; ++lane) {
    StateVector sv(6);
    for (std::uint32_t b = 0; b < 6; ++b)
      sv.set_bit(b, static_cast<std::uint8_t>((inputs[b] >> lane) & 1u));
    sv.apply(c);
    for (std::uint32_t b = 0; b < 6; ++b)
      ASSERT_EQ(sv.bit(b), ps.bit_lane(b, lane)) << "lane " << lane << " bit " << b;
  }
}

TEST(PackedSim, NoiselessNoisyPathEqualsIdeal) {
  Circuit c(4);
  c.maj(0, 1, 2).toffoli(1, 2, 3).swap3(0, 1, 2);
  PackedSimulator sim(NoiseModel::uniform(0.0), 99);
  PackedState noisy(4), ideal(4);
  for (std::uint32_t b = 0; b < 4; ++b) {
    noisy.word(b) = 0x0f0f0f0f0f0f0f0fULL * (b + 1);
    ideal.word(b) = noisy.word(b);
  }
  sim.apply_noisy_span(noisy, c, 0, c.size());
  PackedSimulator::apply_ideal(ideal, c);
  for (std::uint32_t b = 0; b < 4; ++b) EXPECT_EQ(noisy.word(b), ideal.word(b));
  EXPECT_EQ(sim.faults_drawn(), 0u);
}

TEST(PackedSim, FaultRateMatchesModel) {
  Circuit c(3);
  for (int i = 0; i < 100; ++i) c.maj(0, 1, 2);
  const double g = 0.02;
  PackedSimulator sim(NoiseModel::uniform(g), 0x7a57e);
  PackedState ps(3);
  const int reps = 2000;
  for (int r = 0; r < reps; ++r) sim.apply_noisy_span(ps, c, 0, c.size());
  const double expected = g * 100.0 * 64.0 * reps;
  const double observed = static_cast<double>(sim.faults_drawn());
  EXPECT_NEAR(observed / expected, 1.0, 0.03);
}

TEST(PackedSim, FailedGateRandomizesUniformly) {
  // With g = 1 every application fails; the touched bits must be
  // uniform — in particular a failed init3 is NOT a reset.
  Circuit c(3);
  c.init3(0, 1, 2);
  PackedSimulator sim(NoiseModel::uniform(1.0), 0xdead);
  std::array<std::uint64_t, 8> histogram{};
  for (int rep = 0; rep < 2000; ++rep) {
    PackedState ps(3);
    sim.apply_noisy_span(ps, c, 0, c.size());
    for (int lane = 0; lane < 64; ++lane) {
      const unsigned v = ps.bit_lane(0, lane) |
                         (ps.bit_lane(1, lane) << 1) |
                         (ps.bit_lane(2, lane) << 2);
      ++histogram[v];
    }
  }
  const double total = 2000.0 * 64.0;
  for (unsigned v = 0; v < 8; ++v)
    EXPECT_NEAR(static_cast<double>(histogram[v]) / total, 0.125, 0.01)
        << "outcome " << v;
}

TEST(PackedSim, SameSeedReproducesExactly) {
  Circuit c(3);
  for (int i = 0; i < 50; ++i) c.maj(0, 1, 2);
  const NoiseModel m = NoiseModel::uniform(0.05);
  PackedSimulator s1(m, 123), s2(m, 123);
  PackedState p1(3), p2(3);
  s1.apply_noisy_span(p1, c, 0, c.size());
  s2.apply_noisy_span(p2, c, 0, c.size());
  for (std::uint32_t b = 0; b < 3; ++b) EXPECT_EQ(p1.word(b), p2.word(b));
}

// --- fault injection ---------------------------------------------------

TEST(Injection, NoFaultsEqualsPlainSimulation) {
  Circuit c(3);
  c.maj(0, 1, 2).swap3(0, 1, 2);
  const StateVector in(3, 0b101);
  EXPECT_EQ(apply_with_faults(c, in, {}).to_integer(), simulate(c, 0b101));
}

TEST(Injection, FaultReplacesTouchedBits) {
  Circuit c(3);
  c.maj(0, 1, 2);
  // Fault the only op with value 0b110: bits (q0,q1,q2) = (0,1,1).
  const StateVector out =
      apply_with_faults(c, StateVector(3, 0b000), {{0, 0b110}});
  EXPECT_EQ(out.to_integer(), 0b110u);
}

TEST(Injection, FaultOnlyAffectsTouchedBits) {
  Circuit c(4);
  c.cnot(0, 1);
  const StateVector out =
      apply_with_faults(c, StateVector(4, 0b1000), {{0, 0b11}});
  EXPECT_EQ(out.bit(0), 1);
  EXPECT_EQ(out.bit(1), 1);
  EXPECT_EQ(out.bit(2), 0);  // untouched
  EXPECT_EQ(out.bit(3), 1);  // untouched
}

TEST(Injection, ValidatesFaults) {
  Circuit c(3);
  c.maj(0, 1, 2);
  EXPECT_THROW(apply_with_faults(c, StateVector(3), {{5, 0}}), Error);
  EXPECT_THROW(apply_with_faults(c, StateVector(3), {{0, 8}}), Error);
  EXPECT_THROW(apply_with_faults(c, StateVector(3), {{0, 1}, {0, 2}}), Error);
}

TEST(Injection, EnumerationCoversOpsTimesValues) {
  Circuit c(3);
  c.maj(0, 1, 2).cnot(0, 1).not_(2);
  const auto faults = enumerate_single_faults(c);
  EXPECT_EQ(faults.size(), 8u + 4u + 2u);
}

// --- monte carlo harness ----------------------------------------------

TEST(MonteCarlo, MeasuresKnownErrorRate) {
  // One noisy gate: error prob is g * 7/8 on the touched bits pattern
  // ... simplest observable: gate "fails visibly" when output differs
  // from the ideal. For NOT on a zero input under total randomization,
  // P[wrong] = g/2.
  Circuit c(1);
  c.not_(0);
  ParallelMcOptions opts;
  opts.trials = 400000;
  opts.seed = 42;
  opts.threads = 1;
  const double g = 0.1;
  const auto est = run_parallel_mc(
      c, NoiseModel::uniform(g), opts,
      per_shard_kernel([](PackedState&, Xoshiro256&, std::uint64_t) {},
                       [](const PackedState& s, int lane, std::uint64_t) {
                         return s.bit_lane(0, lane) != 1;
                       }));
  EXPECT_NEAR(est.rate(), g / 2.0, 0.002);
}

}  // namespace
}  // namespace revft
