// bench_fig4_local2d — reproduces §3.1 (Fig 4, the 2D local scheme).
//
// Verifies the construction's headline properties mechanically:
//   * the 2D recovery stage needs ZERO swaps (encode along rows,
//     decode along columns of the 3x3 block) and is fully
//     nearest-neighbour, initialization included;
//   * a full logical cycle costs 12 SWAPs = 6 SWAP3 of perpendicular
//     interleave (at most 3 SWAP3 per codeword each way);
//   * the per-encoded-bit operation count — paper's stated G = 14/16
//     (ρ₂ = 1/273, 1/360) next to the strict recount G = 15/17 of the
//     construction as described (see DESIGN.md);
//   * exhaustive single-fault tolerance of the whole 2D cycle;
//   * Monte-Carlo: the 2D cycle's logical error is modestly above the
//     non-local cycle's (extra routing ops), both quadratic in g.
#include <cstdio>

#include "analysis/threshold.h"
#include "bench_common.h"
#include "code/repetition.h"
#include "ft/experiments.h"
#include "local/lattice.h"
#include "local/scheme2d.h"
#include "noise/injection.h"
#include "rev/render.h"
#include "rev/simulator.h"
#include "support/table.h"

using namespace revft;

namespace {

void print_construction() {
  benchutil::print_header("Fig 4 / §3.1: the 2D nearest-neighbour scheme",
                          "Figure 4, Section 3.1");

  const Ec2d ec = make_ec_2d(Orientation2d::kRow, true);
  std::printf("2D recovery stage on one 3x3 block (bit = 3*row + col):\n%s",
              render_ascii(ec.circuit).c_str());
  const auto h = ec.circuit.histogram();
  std::printf(
      "swap ops in recovery: %llu   [paper: recovery needs no SWAPs]\n",
      static_cast<unsigned long long>(h.of(GateKind::kSwap) +
                                      h.of(GateKind::kSwap3)));
  LocalityOptions strict;
  strict.allow_nonlocal_init = false;
  std::printf("nearest-neighbour on the 3x3 grid (init included): %s\n",
              check_locality_2d(ec.circuit, 3, 3, strict).ok ? "yes" : "NO");
  std::printf("recovery ops: %llu with init / %llu without  [paper: 8 / 6]\n",
              static_cast<unsigned long long>(
                  make_ec_2d(Orientation2d::kRow, true).circuit.size()),
              static_cast<unsigned long long>(
                  make_ec_2d(Orientation2d::kRow, false).circuit.size()));

  const Cycle2d cycle = make_cycle_2d(GateKind::kToffoli, true);
  std::printf(
      "\nfull cycle on a 9x3 grid: %llu SWAP3 interleave one-way "
      "[paper: 12 SWAPs = 6 SWAP3], locality: %s\n",
      static_cast<unsigned long long>(cycle.interleave_swap3),
      check_locality_2d(cycle.circuit, Cycle2d::kRows, Cycle2d::kCols, strict).ok
          ? "ok"
          : "VIOLATED");

  // Per-encoded-bit accounting and thresholds.
  AsciiTable acc({"accounting", "G", "threshold 1/(3 C(G,2))"});
  acc.add_row({"paper §3.1, with init", "16",
               AsciiTable::reciprocal(threshold_for_ops(16))});
  acc.add_row({"paper §3.1, perfect init", "14",
               AsciiTable::reciprocal(threshold_for_ops(14))});
  acc.add_row({"strict recount (3+3+3+8), with init", "17",
               AsciiTable::reciprocal(threshold_for_ops(17))});
  acc.add_row({"strict recount (3+3+3+6), perfect init", "15",
               AsciiTable::reciprocal(threshold_for_ops(15))});
  std::printf("\n%s", acc.str().c_str());
  std::printf("paper's \"approximately 0.4%%\" check: 1/273 = %.4f%%\n",
              100.0 * threshold_for_ops(14));

  // Exhaustive single-fault tolerance of the whole cycle.
  std::size_t fatal = 0, scenarios = 0;
  for (unsigned input = 0; input < 8; ++input) {
    const unsigned expected = gate_apply_local(GateKind::kToffoli, input);
    StateVector prepared(27);
    for (std::uint32_t b = 0; b < 3; ++b)
      for (auto bit : cycle.data_before[b])
        prepared.set_bit(bit, static_cast<std::uint8_t>((input >> b) & 1u));
    for (const auto& fault : enumerate_single_faults(cycle.circuit)) {
      ++scenarios;
      const StateVector out = apply_with_faults(cycle.circuit, prepared, {fault});
      for (std::uint32_t b = 0; b < 3; ++b) {
        const int decoded = majority3(out.bit(cycle.data_after[b][0]),
                                      out.bit(cycle.data_after[b][1]),
                                      out.bit(cycle.data_after[b][2]));
        if (decoded != static_cast<int>((expected >> b) & 1u)) {
          ++fatal;
          break;
        }
      }
    }
  }
  std::printf(
      "\nexhaustive single-fault injection over the full 2D cycle:\n"
      "  %zu fatal of %zu scenarios  [expected: 0 — contrast with 1D, see "
      "bench_fig7_local1d]\n",
      fatal, scenarios);
}

void print_monte_carlo() {
  const std::uint64_t trials = benchutil::trials_from_env(1000000);
  std::printf("\nMonte-Carlo: logical error per cycle, %llu trials/point\n",
              static_cast<unsigned long long>(trials));

  benchutil::JsonResultWriter json("fig4_local2d");
  benchutil::stamp_run_meta(json, trials, benchutil::seed_from_env());

  const Cycle2d cycle = make_cycle_2d(GateKind::kToffoli, true);
  CodewordCycleExperiment::Config config;
  config.trials = trials;
  config.seed = benchutil::seed_from_env();
  const CodewordCycleExperiment local2d(cycle.circuit, cycle.data_before,
                                        cycle.data_after, config,
                                        cycle.recovery_boundaries);

  LogicalGateExperimentConfig nonlocal_config;
  nonlocal_config.level = 1;
  nonlocal_config.trials = trials;
  nonlocal_config.seed = benchutil::seed_from_env() + 7;
  const LogicalGateExperiment nonlocal(nonlocal_config);

  AsciiTable table({"g", "non-local p_L [meas]", "2D local p_L [meas]",
                    "2D/non-local", "2D detect", "2D silent", "ordering ok?"});
  for (double g : {2e-3, 5e-3, 1e-2, 2e-2, 4e-2}) {
    const double p_nl = nonlocal.run(g).rate();
    const double p_2d = local2d.run(g).rate();
    // The same cycle through the checked engine: detected / silent
    // splits from the parity rail + recovery-boundary zero checks.
    const auto checked = local2d.run_checked(g);
    const double silent = checked.silent_rate();
    json.add("nonlocal", AsciiTable::sci(g, 1), p_nl);
    json.add("local2d", AsciiTable::sci(g, 1), p_2d);
    json.add("local2d_detected", AsciiTable::sci(g, 1), checked.detected_rate());
    json.add("local2d_silent", AsciiTable::sci(g, 1), silent);
    table.add_row({AsciiTable::sci(g, 1), AsciiTable::sci(p_nl, 2),
                   AsciiTable::sci(p_2d, 2),
                   p_nl > 0 ? AsciiTable::fixed(p_2d / p_nl, 2) : "-",
                   AsciiTable::fixed(checked.detected_rate(), 3),
                   AsciiTable::sci(silent, 2),
                   p_2d >= p_nl * 0.8 ? "yes" : "unexpected"});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "[paper shape] 2D locality costs extra routing ops per cycle, so its\n"
      "logical error sits above the non-local scheme's at the same g and its\n"
      "threshold is lower (1/273 vs 1/108 in paper accounting) — the measured\n"
      "ratio reflects the (14/9)^2 ~ 2.4x accounting prediction loosely.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::reject_args(argc, argv);
  print_construction();
  print_monte_carlo();
  return 0;
}
