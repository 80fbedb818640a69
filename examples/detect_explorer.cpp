// examples/detect_explorer.cpp
//
// A tour of the online error-detection subsystem (src/detect/):
//   1. the parity-preserving gate set — F2G and NFT next to Fredkin —
//      and what "parity-preserving" buys;
//   2. a small circuit rewritten into parity-rail form, drawn before
//      and after, with the conserved invariant spelled out;
//   3. a single injected fault caught by the checker, and one that
//      escapes it (even-weight corruption) — detection's blind spot;
//   4. a Monte-Carlo sweep of the abort-and-retry protocol: detected /
//      silent / accepted counts and the post-selected error rate as
//      the gate error rate g varies.
//
// Run:  ./detect_explorer
#include <cstdio>

#include "detect/checked_mc.h"
#include "detect/checker.h"
#include "detect/parity.h"
#include "detect/rail.h"
#include "ft/detect_experiment.h"
#include "rev/render.h"
#include "rev/simulator.h"

using namespace revft;

namespace {

void print_gate_set() {
  std::printf("== 1. The parity-preserving gate set ==\n");
  std::printf("kind      arity  conserves XOR of its bits?\n");
  for (int k = 0; k < kNumGateKinds; ++k) {
    const auto kind = static_cast<GateKind>(k);
    std::printf("  %-8s  %d     %s\n", gate_name(kind), gate_arity(kind),
                detect::parity_preserving(kind) ? "yes" : "no");
  }
  std::printf(
      "\nF2G, (a,b,c) -> (a, a^b, a^c), and NFT, a controlled negate-swap,\n"
      "compute useful logic without ever changing total parity — so in a\n"
      "circuit built from them, ANY odd-weight corruption is visible in\n"
      "one final parity check.\n\n");
}

detect::CheckedCircuit demo_checked() {
  Circuit c(3);
  c.maj(0, 1, 2).cnot(2, 0).f2g(1, 0, 2);
  detect::ParityRailOptions opts;
  opts.check_every = 1;
  return detect::to_parity_rail(c, opts);
}

void print_rail_transform() {
  std::printf("== 2. The parity-rail transform ==\n");
  Circuit c(3);
  c.maj(0, 1, 2).cnot(2, 0).f2g(1, 0, 2);
  std::printf("original (3 data rails):\n%s", render_ascii(c).c_str());
  const auto checked = demo_checked();
  RenderOptions ropts;
  ropts.labels = {"d0", "d1", "d2", "par"};
  std::printf(
      "\nrailed (+1 parity rail, %llu rail ops, %zu checkpoints):\n%s",
      static_cast<unsigned long long>(checked.rail_ops),
      checked.checkpoints.size(),
      render_ascii(checked.circuit, ropts).c_str());
  std::printf(
      "\ninvariant: par ^ d0 ^ d1 ^ d2 == 0 at every checkpoint of a\n"
      "fault-free run — each gate's parity delta is mirrored onto the\n"
      "rail (MAJ needs one Toffoli, parity-preserving gates none).\n\n");
}

void print_fault_demo() {
  std::printf("== 3. One fault caught, one fault missed ==\n");
  const auto checked = demo_checked();
  const StateVector input(3, 0b101);

  // Find the MAJ op inside the railed circuit.
  std::size_t maj_op = 0;
  for (std::size_t i = 0; i < checked.circuit.size(); ++i)
    if (checked.circuit.op(i).kind == GateKind::kMaj) maj_op = i;

  // Odd-weight corruption: flip one output bit of the MAJ.
  {
    StateVector ref = detect::widen_input(checked, input);
    Circuit prefix(checked.circuit.width());
    for (std::size_t i = 0; i < maj_op; ++i)
      prefix.push(checked.circuit.op(i));
    ref.apply(prefix);
    unsigned correct = 0;
    for (int k = 0; k < 3; ++k)
      correct |= static_cast<unsigned>(
                     ref.bit(checked.circuit.op(maj_op).bits[
                         static_cast<std::size_t>(k)]))
                 << k;
    correct = gate_apply_local(GateKind::kMaj, correct);
    const auto odd = detect::checked_run(
        checked, input, {{maj_op, correct ^ 0b001u}});
    std::printf("  flip 1 bit of MAJ's output  -> detected: %s\n",
                odd.detected ? "YES (invariant broke)" : "no");
    const auto even = detect::checked_run(
        checked, input, {{maj_op, correct ^ 0b011u}});
    std::printf("  flip 2 bits of MAJ's output -> detected: %s\n",
                even.detected ? "yes" : "NO (even weight: parity blind)");
  }
  std::printf(
      "the even-weight escape is why detection alone cannot replace the\n"
      "paper's majority-vote correction — it can only abort-and-retry.\n\n");
}

void print_mc_sweep() {
  std::printf("== 4. Abort-and-retry under the paper's noise model ==\n");
  DetectVsCorrectConfig config;
  config.gate_budget = 600;
  config.trials = 100000;
  const DetectVsCorrectExperiment exp(config);
  std::printf(
      "workload: %d scrambler rounds, %llu fallible ops (railed), vs the\n"
      "level-1 corrected arm at %llu ops\n\n",
      exp.detection_rounds(),
      static_cast<unsigned long long>(exp.detection_ops()),
      static_cast<unsigned long long>(exp.correction_ops()));
  std::printf("     g     detected  silent  accepted  post-sel err  corrected p_L\n");
  for (double g : {1e-3, 3e-3, 1e-2}) {
    const auto point = exp.run(g);
    std::printf("  %7.0e  %8llu  %6llu  %8llu  %11.2e  %13.2e\n", g,
                static_cast<unsigned long long>(point.detection.detected),
                static_cast<unsigned long long>(point.detection.silent_failures),
                static_cast<unsigned long long>(point.detection.accepted()),
                point.detection.post_selected_error_rate(),
                point.correction.rate());
  }
  std::printf(
      "\ndetected/silent/accepted are bit-identical for any REVFT_THREADS —\n"
      "the detection mask rides the same sharded engine as every other\n"
      "Monte-Carlo in revft.\n");
}

}  // namespace

int main() {
  print_gate_set();
  print_rail_transform();
  print_fault_demo();
  print_mc_sweep();
  return 0;
}
