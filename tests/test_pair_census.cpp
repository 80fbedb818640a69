// Tests for the exhaustive pair-fault census and the exact-tail
// threshold refinement: the machinery that turns the paper's
// worst-case C(G,2) counting into exact constants.
#include <gtest/gtest.h>

#include "analysis/threshold.h"
#include "detect/checker.h"
#include "ft/concat.h"
#include "ft/ec_circuit.h"
#include "rev/simulator.h"
#include "code/repetition.h"
#include "support/error.h"

namespace revft {
namespace {

TEST(PairCensus, CountsAllPairs) {
  // A 3-op circuit has C(3,2) = 3 pairs; scenario count = values x
  // values x inputs.
  Circuit c(3);
  c.maj(0, 1, 2).not_(0).cnot(0, 1);
  std::vector<StateVector> inputs{StateVector(3, 0)};
  const auto census = detect::pair_fault_census(
      c, inputs, [](const StateVector&, std::size_t) { return false; });
  EXPECT_EQ(census.pairs_total, 3u);
  // Pairs: (maj,not): 8*2=16; (maj,cnot): 8*4=32; (not,cnot): 2*4=8.
  EXPECT_EQ(census.scenarios_total, 16u + 32u + 8u);
  EXPECT_EQ(census.scenarios_fatal, 0u);
  EXPECT_DOUBLE_EQ(census.quadratic_coefficient, 0.0);
}

TEST(PairCensus, AllFatalGivesPairCount) {
  Circuit c(3);
  c.maj(0, 1, 2).cnot(0, 1).not_(2).swap(1, 2);
  std::vector<StateVector> inputs{StateVector(3, 0), StateVector(3, 5)};
  const auto census = detect::pair_fault_census(
      c, inputs, [](const StateVector&, std::size_t) { return true; });
  // Every pair fully fatal: coefficient = number of pairs = C(4,2).
  EXPECT_DOUBLE_EQ(census.quadratic_coefficient, 6.0);
}

TEST(PairCensus, RequiresInputs) {
  Circuit c(2);
  c.cnot(0, 1);
  EXPECT_THROW(detect::pair_fault_census(c, {},
                                 [](const StateVector&, std::size_t) {
                                   return false;
                                 }),
               Error);
}

TEST(PairCensus, Fig2StageCoefficientBelowPaperBound) {
  // The recovery stage alone (8 ops, with init): its exact pair-fault
  // coefficient must be well under the all-pairs count C(8,2) = 28.
  const EcStage stage = make_fig2_ec(true);
  std::vector<StateVector> inputs;
  for (int logical = 0; logical <= 1; ++logical) {
    StateVector sv(9);
    for (auto bit : stage.before.data)
      sv.set_bit(bit, static_cast<std::uint8_t>(logical));
    inputs.push_back(std::move(sv));
  }
  const auto census = detect::pair_fault_census(
      stage.circuit, inputs, [&](const StateVector& out, std::size_t input) {
        const int expected = static_cast<int>(input);
        const int decoded = majority3(out.bit(stage.after.data[0]),
                                      out.bit(stage.after.data[1]),
                                      out.bit(stage.after.data[2]));
        return decoded != expected;
      });
  EXPECT_GT(census.quadratic_coefficient, 0.0)
      << "some pairs must defeat a distance-3 code";
  EXPECT_LT(census.quadratic_coefficient, 28.0 / 3.0)
      << "far fewer than all pairs are fatal";
}

TEST(PairCensus, Level1ModuleCoefficientMatchesKnownValue) {
  // The level-1 Toffoli module: exact quadratic coefficient. Pinned as
  // a regression value (it also matches the Monte-Carlo low-g fit of
  // ~11.5 in bench_fig2_threshold within MC error).
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  const auto module = concat_compile(logical, 1);
  std::vector<StateVector> inputs;
  for (unsigned input = 0; input < 8; ++input) {
    StateVector sv(27);
    for (std::uint32_t k = 0; k < 3; ++k) {
      const auto tree = BlockTree::canonical(1, k * 9);
      encode_block(tree, static_cast<int>((input >> k) & 1u),
                   [&](std::uint32_t b, int v) {
                     sv.set_bit(b, static_cast<std::uint8_t>(v));
                   });
    }
    inputs.push_back(std::move(sv));
  }
  const auto census = detect::pair_fault_census(
      module.physical, inputs, [&](const StateVector& out, std::size_t input) {
        const unsigned expected = gate_apply_local(
            GateKind::kToffoli, static_cast<unsigned>(input));
        for (std::uint32_t k = 0; k < 3; ++k) {
          const int decoded =
              decode_block(module.blocks[k], [&](std::uint32_t b) {
                return static_cast<int>(out.bit(b));
              });
          if (decoded != static_cast<int>((expected >> k) & 1u)) return true;
        }
        return false;
      });
  EXPECT_EQ(census.pairs_total, 351u);  // C(27,2)
  // Paper bound: 3 C(11,2) = 165 per-pair-all-fatal accounting.
  EXPECT_LT(census.quadratic_coefficient, 165.0);
  EXPECT_GT(census.quadratic_coefficient, 5.0);
  // Regression band around the exact value (~11-12, consistent with
  // the MC fit of 11.5).
  EXPECT_NEAR(census.quadratic_coefficient, 11.5, 2.0);
  // The exact census, pinned: 351 pairs x 64 fault values x 8 inputs,
  // and c2 = fatal / (values x inputs) = 6600 / 512 is the coefficient
  // bench_fig2_threshold prints.
  EXPECT_EQ(census.scenarios_total, 179712u);
  EXPECT_EQ(census.scenarios_fatal, 6600u);
  EXPECT_DOUBLE_EQ(census.quadratic_coefficient, 12.890625);
}

TEST(ExactThreshold, TailDominatesQuadraticBound) {
  // P_bit exact <= C(G,2) g^2 for small g, approaching it from below.
  for (int G : {9, 11, 14, 16, 40}) {
    for (double g : {1e-4, 1e-3, 1e-2}) {
      const double exact = exact_bit_error(g, G);
      const double bound =
          3.0 * (G * (G - 1) / 2.0) * g * g / 3.0;  // C(G,2) g^2
      EXPECT_LE(exact, bound * (1 + 1e-9)) << "G=" << G << " g=" << g;
      EXPECT_GT(exact, 0.0);
    }
  }
}

TEST(ExactThreshold, ExactMapBelowUnionBoundMap) {
  for (int G : {9, 11, 16}) {
    for (double g : {1e-3, 5e-3, 1e-2})
      EXPECT_LE(exact_logical_error_one_level(g, G),
                logical_error_one_level(g, G) * (1 + 1e-9))
          << "G=" << G << " g=" << g;
  }
}

TEST(ExactThreshold, ImprovesOnPaperThreshold) {
  // "a tighter bound will result in an improved error threshold".
  for (int G : {9, 11, 14, 16, 38, 40}) {
    const double paper = threshold_for_ops(G);
    const double exact = exact_threshold_for_ops(G);
    EXPECT_GT(exact, paper) << "G=" << G;
    // Same order of magnitude (the refinement is modest).
    EXPECT_LT(exact, paper * 3.0) << "G=" << G;
  }
}

TEST(ExactThreshold, FixedPointProperty) {
  const int G = 11;
  const double star = exact_threshold_for_ops(G);
  EXPECT_NEAR(exact_logical_error_one_level(star, G), star, star * 1e-6);
  // Strictly improving just below, strictly worsening just above.
  EXPECT_LT(exact_logical_error_one_level(star * 0.9, G), star * 0.9);
  EXPECT_GT(exact_logical_error_one_level(star * 1.1, G), star * 1.1);
}

}  // namespace
}  // namespace revft
