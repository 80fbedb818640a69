// bench_entropy — reproduces §4 (entropy dissipation).
//
//   * the κ constant and the per-gate entropy chain
//     H(7g/8) + (7g/8) log2 7  <=  κ sqrt(g);
//   * the level-L sandwich (3E)^{L-1} g <= H_L <= G̃^L κ sqrt(g);
//   * the usable-depth cap L <= log(1/g)/log(3E) + 1, including the
//     paper's worked example g = 10⁻², E = 11 -> L <= 2.3;
//   * Landauer heat at 300 K;
//   * NAND-simulation cost: Toffoli garbage = 2 bits, MAJ⁻¹ garbage =
//     3/2 bits, and 3/2 is optimal over all 8! reversible 3-bit maps
//     (footnote 4) — verified by brute force;
//   * measured: the joint entropy of the six bits the Fig 2 stage
//     discards, sitting between the analytic lower and upper bounds.
#include <cstdio>

#include "bench_common.h"
#include "entropy/dissipation.h"
#include "entropy/empirical.h"
#include "entropy/nand_cost.h"
#include "rev/synthesis.h"
#include "support/table.h"

using namespace revft;

namespace {

void print_analytic() {
  benchutil::print_header("§4: entropy dissipation of noisy reversible logic",
                          "Section 4");

  std::printf("kappa = 2 sqrt(7/8) + (7/8) log2 7 = %.4f\n\n",
              dissipation_kappa());

  AsciiTable per_gate({"g", "H(7g/8)+(7g/8)log2(7) [exact]",
                       "kappa*sqrt(g) [paper bound]", "bound holds"});
  for (double g : {1e-6, 1e-4, 1e-2, 1e-1}) {
    const double exact = gate_entropy_exact(g);
    const double bound = gate_entropy_sqrt_bound(g);
    per_gate.add_row({AsciiTable::sci(g, 0), AsciiTable::sci(exact, 3),
                      AsciiTable::sci(bound, 3),
                      exact <= bound ? "yes" : "NO"});
  }
  std::printf("per-gate entropy generation:\n%s\n", per_gate.str().c_str());

  const int g_tilde = 11, ec = 8;
  AsciiTable sandwich({"L", "lower (3E)^(L-1) g", "upper G~^L kappa sqrt(g)",
                       "ratio upper/lower"});
  const double g = 1e-4;
  for (int level = 1; level <= 4; ++level) {
    const double lo = hl_lower(g, ec, level);
    const double hi = hl_upper(g, g_tilde, level);
    sandwich.add_row({AsciiTable::cell(static_cast<std::int64_t>(level)),
                      AsciiTable::sci(lo, 2), AsciiTable::sci(hi, 2),
                      AsciiTable::sci(hi / lo, 1)});
  }
  std::printf("H_L sandwich at g = 1e-4 (G~ = 11, E = 8):\n%s\n",
              sandwich.str().c_str());

  AsciiTable depth({"g", "E", "max L for O(1) entropy/gate"});
  depth.add_row({"1e-2", "11",
                 AsciiTable::fixed(max_level_for_constant_entropy(1e-2, 11), 2) +
                     "   [paper: 2.3]"});
  for (double gg : {1e-4, 1e-6, 1e-8})
    depth.add_row({AsciiTable::sci(gg, 0), "8",
                   AsciiTable::fixed(max_level_for_constant_entropy(gg, 8), 2)});
  std::printf("usable concatenation depth (O(log 1/g) levels):\n%s\n",
              depth.str().c_str());

  std::printf(
      "Landauer: dissipating 1 bit at 300 K costs >= %.3e J; a module\n"
      "dissipating H_2 = %.2e bits/gate at g = 1e-4 costs >= %.3e J/gate.\n\n",
      landauer_energy_joules(1.0, 300.0), hl_upper(1e-4, 11, 2),
      landauer_energy_joules(hl_upper(1e-4, 11, 2), 300.0));

  // NAND embedding dissipation (footnote 4).
  const auto toffoli_cost = nand_dissipation(nand_via_toffoli());
  const auto majinv_cost = nand_dissipation(nand_via_majinv());
  AsciiTable nand({"embedding", "garbage entropy [measured]", "[paper]"});
  nand.add_row({"Toffoli (a, b kept as garbage)",
                AsciiTable::fixed(toffoli_cost.garbage_entropy, 4), "2 bits"});
  nand.add_row({"MAJ^-1 (a^out, b^out garbage)",
                AsciiTable::fixed(majinv_cost.garbage_entropy, 4),
                "3/2 bits (optimal)"});
  nand.add_row({"brute-force optimum over all 8! maps",
                AsciiTable::fixed(optimal_nand_garbage_entropy(), 4),
                "3/2 bits"});
  std::printf("NAND-simulation dissipation per cycle (uniform inputs):\n%s",
              nand.str().c_str());
  std::printf(
      "(with the kept output usable as side information both embeddings\n"
      "reach H(garbage|out) = %.4f bits — the information-theoretic floor)\n",
      majinv_cost.garbage_entropy_given_output);
}

void print_measured() {
  const std::uint64_t trials = benchutil::trials_from_env(400000);
  std::printf(
      "\nmeasured ancilla entropy of one Fig 2 recovery stage (%llu trials):\n",
      static_cast<unsigned long long>(trials));
  AsciiTable table({"g", "H(discarded 6 bits) [measured, MM-corrected]",
                    "lower bound g", "upper bound G~*(H(7g/8)+(7g/8)log2 7)",
                    "inside bounds?"});
  for (double g : {1e-3, 3e-3, 1e-2, 3e-2, 1e-1}) {
    const auto r = measure_ec_ancilla_entropy(g, true, trials,
                                              benchutil::seed_from_env());
    const double upper = h1_upper(g, static_cast<int>(r.noisy_ops));
    const bool inside = r.entropy_miller_madow >= g * 0.9 &&
                        r.entropy_plugin <= upper * 1.01;
    table.add_row({AsciiTable::sci(g, 0),
                   AsciiTable::fixed(r.entropy_miller_madow, 5),
                   AsciiTable::sci(g, 0), AsciiTable::sci(upper, 2),
                   inside ? "yes" : "NO"});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "[paper shape] the measured entropy rises with g between the §4\n"
      "bounds — the entropy-saving advantage of reversible computing decays\n"
      "as g approaches the threshold.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::reject_args(argc, argv);
  print_analytic();
  print_measured();
  return 0;
}
