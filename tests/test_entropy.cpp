// Tests for §4's entropy results: the κ constant, the per-gate and
// per-level bounds, the usable-depth cap (L <= 2.3 at g = 10⁻²,
// E = 11), Landauer conversion, the NAND dissipation figures (2 bits
// via Toffoli, 3/2 via MAJ⁻¹, 3/2 optimal by brute force), and the
// measured ancilla entropy of the Fig 2 stage sitting between the
// analytic bounds.
#include <gtest/gtest.h>

#include <cmath>

#include "entropy/dissipation.h"
#include "entropy/empirical.h"
#include "entropy/nand_cost.h"
#include "support/error.h"

namespace revft {
namespace {

TEST(Dissipation, KappaValue) {
  // κ = 2 sqrt(7/8) + (7/8) log2 7 ≈ 4.3273.
  EXPECT_NEAR(dissipation_kappa(),
              2.0 * std::sqrt(7.0 / 8.0) + 0.875 * std::log2(7.0), 1e-15);
  EXPECT_NEAR(dissipation_kappa(), 4.327, 0.001);
}

TEST(Dissipation, GateEntropyExactAtEndpoints) {
  EXPECT_DOUBLE_EQ(gate_entropy_exact(0.0), 0.0);
  // At g = 1 a gate always randomizes: H over 8 outcomes where the
  // "correct" one has weight 1/8 too => exactly 3 bits.
  EXPECT_NEAR(gate_entropy_exact(1.0), 3.0, 1e-12);
}

TEST(Dissipation, SqrtBoundDominatesExact) {
  for (double g = 0.0; g <= 1.0; g += 0.01)
    EXPECT_GE(gate_entropy_sqrt_bound(g) + 1e-12, gate_entropy_exact(g))
        << "g=" << g;
}

TEST(Dissipation, H1BoundsScaleWithGateCount) {
  const double g = 1e-3;
  EXPECT_NEAR(h1_upper(g, 8), 8.0 * gate_entropy_exact(g), 1e-15);
  EXPECT_NEAR(h1_upper(g, 8, true), 8.0 * gate_entropy_sqrt_bound(g), 1e-15);
}

TEST(Dissipation, HlBoundsExponentialInLevel) {
  const double g = 1e-4;
  const int g_tilde = 11, ec = 8;
  for (int level = 1; level <= 4; ++level) {
    EXPECT_NEAR(hl_upper(g, g_tilde, level + 1) / hl_upper(g, g_tilde, level),
                g_tilde, 1e-9);
    EXPECT_NEAR(hl_lower(g, ec, level + 1) / hl_lower(g, ec, level), 3.0 * ec,
                1e-9);
  }
  // Lower bound at L = 1 is g itself.
  EXPECT_DOUBLE_EQ(hl_lower(g, ec, 1), g);
}

TEST(Dissipation, LowerNeverExceedsUpper) {
  // (3E)^{L-1} g <= G̃^L κ sqrt(g) with G̃ = 3 + E.
  for (double g : {1e-6, 1e-4, 1e-2}) {
    for (int level = 1; level <= 3; ++level) {
      EXPECT_LE(hl_lower(g, 8, level), hl_upper(g, 11, level))
          << "g=" << g << " L=" << level;
    }
  }
}

TEST(Dissipation, PaperMaxLevelExample) {
  // "if g = 10^-2, and E = 11, we have L <= 2.3".
  EXPECT_NEAR(max_level_for_constant_entropy(1e-2, 11), 2.3, 0.05);
}

TEST(Dissipation, MaxLevelGrowsLogarithmically) {
  // L_max ~ log(1/g): halving g adds a constant.
  const int E = 8;
  const double step = max_level_for_constant_entropy(1e-4, E) -
                      max_level_for_constant_entropy(1e-3, E);
  const double step2 = max_level_for_constant_entropy(1e-5, E) -
                       max_level_for_constant_entropy(1e-4, E);
  EXPECT_NEAR(step, step2, 1e-9);
  EXPECT_GT(step, 0.0);
}

TEST(Dissipation, LandauerConversion) {
  // 1 bit at 300 K: k_B T ln 2 ≈ 2.87e-21 J.
  EXPECT_NEAR(landauer_energy_joules(1.0, 300.0), 2.871e-21, 5e-24);
  EXPECT_DOUBLE_EQ(landauer_energy_joules(0.0, 300.0), 0.0);
  // Linear in both arguments.
  EXPECT_NEAR(landauer_energy_joules(2.0, 300.0),
              2.0 * landauer_energy_joules(1.0, 300.0), 1e-30);
}

// --- NAND embedding dissipation -------------------------------------------

TEST(NandCost, ToffoliEmbeddingDissipatesTwoBits) {
  const auto d = nand_dissipation(nand_via_toffoli());
  EXPECT_NEAR(d.garbage_entropy, 2.0, 1e-12);
}

TEST(NandCost, MajInvEmbeddingDissipatesThreeHalves) {
  // Footnote 4: the optimal 3/2 bits "may be achieved using the MAJ⁻¹
  // gate".
  const auto d = nand_dissipation(nand_via_majinv());
  EXPECT_NEAR(d.garbage_entropy, 1.5, 1e-12);
}

TEST(NandCost, ConditionalEntropyMatchesInformationTheory) {
  // H(garbage | out) = H(inputs) - H(out) = 2 - H(1/4) ≈ 1.1887 for
  // any reversible embedding that keeps only the NAND bit.
  const double expected = 2.0 - (-0.25 * std::log2(0.25) -
                                 0.75 * std::log2(0.75));
  EXPECT_NEAR(nand_dissipation(nand_via_toffoli()).garbage_entropy_given_output,
              expected, 1e-12);
  EXPECT_NEAR(nand_dissipation(nand_via_majinv()).garbage_entropy_given_output,
              expected, 1e-12);
}

TEST(NandCost, BruteForceOptimumIsThreeHalves) {
  // Footnote 4's optimality claim, verified over all 8! reversible
  // 3-bit maps x ancilla presets x output positions.
  EXPECT_NEAR(optimal_nand_garbage_entropy(), 1.5, 1e-12);
}

TEST(NandCost, RejectsNonNandEmbedding) {
  NandEmbedding wrong = nand_via_toffoli();
  wrong.ancilla_value = 0;  // computes AND-ish, not NAND
  EXPECT_THROW(nand_dissipation(wrong), Error);
}

// --- empirical ancilla entropy ---------------------------------------------

TEST(Empirical, NoiselessStageDissipatesNothing) {
  const auto r = measure_ec_ancilla_entropy(0.0, true, 20000, 7);
  EXPECT_DOUBLE_EQ(r.entropy_plugin, 0.0);
}

TEST(Empirical, MeasuredEntropyBetweenPaperBounds) {
  // g <= H_measured <= G̃ (H(7g/8) + (7g/8) log2 7). Use a g large
  // enough for the plug-in estimator to resolve.
  for (double g : {0.01, 0.03}) {
    const auto r = measure_ec_ancilla_entropy(g, true, 400000, 11);
    EXPECT_GE(r.entropy_miller_madow, g) << "g=" << g;
    EXPECT_LE(r.entropy_plugin,
              h1_upper(g, static_cast<int>(r.noisy_ops)))
        << "g=" << g;
  }
}

TEST(Empirical, EntropyGrowsWithNoise) {
  const auto lo = measure_ec_ancilla_entropy(0.005, true, 300000, 13);
  const auto hi = measure_ec_ancilla_entropy(0.05, true, 300000, 13);
  EXPECT_LT(lo.entropy_plugin, hi.entropy_plugin);
}

// The histogram is a per-lane judge: the engine's adaptor calls it
// once per counted trial, a partial last batch included.
TEST(Empirical, HistogramCountsEveryTrialOnce) {
  const auto r = measure_ec_ancilla_entropy(0.02, true, 3 * 64 + 37, 5);
  std::uint64_t sum = 0;
  for (const std::uint64_t c : r.counts) sum += c;
  EXPECT_EQ(r.counts.size(), 64u);
  EXPECT_EQ(sum, r.trials);
}

TEST(Empirical, PerfectInitReducesOpCount) {
  const auto with_init = measure_ec_ancilla_entropy(0.01, true, 10000, 3);
  const auto perfect = measure_ec_ancilla_entropy(0.01, false, 10000, 3);
  EXPECT_EQ(with_init.noisy_ops, 8u);
  EXPECT_EQ(perfect.noisy_ops, 6u);
}

}  // namespace
}  // namespace revft
