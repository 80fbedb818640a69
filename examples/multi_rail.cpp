// examples/multi_rail.cpp
//
// Rail-partition localization on a checked 1D machine: one parity rail
// per 9-cell block (the default CheckedMachineOptions), so when the
// checker fires it also names WHICH block took the damage. The demo
//
//   1. injects a concrete cross-codeword interleave fault — the class
//      a single global rail cannot see (even total weight) — and shows
//      the per-block rails catching and localizing it;
//   2. runs the checked Monte-Carlo and prices retries: a
//      whole-program retry costs checked_ops / acceptance (geometric
//      model), while a block-local re-run of the suspect block would
//      pay roughly a 1/B share per fired rail.
//
// Run:  ./multi_rail [trials]
#include <cstdio>
#include <cstdlib>

#include "example_args.h"
#include "detect/checker.h"
#include "detect/retry_model.h"
#include "ft/experiments.h"
#include "local/checked_machine.h"
#include "noise/injection.h"
#include "rev/simulator.h"
#include "support/error.h"
#include "support/table.h"

using namespace revft;

int main(int argc, char** argv) {
  const std::uint64_t trials = u64_arg(argc, argv, 1, "trials", 100000);

  Circuit logical(5);
  logical.maj(4, 2, 0).toffoli(0, 3, 4).majinv(2, 1, 4).swap3(0, 2, 4);

  // Per-block rails (default) and the global-rail ablation, zero
  // checks off in both so the rails alone are compared on the
  // injected fault.
  CheckedMachineOptions rails_only;
  rails_only.zero_checks = false;
  rails_only.check_every = 1;
  CheckedMachineOptions global_only = rails_only;
  global_only.rails = RailGranularity::kGlobal;
  const auto block_program =
      CheckedMachine1d(5, true, rails_only).compile(logical);
  const auto global_program =
      CheckedMachine1d(5, true, global_only).compile(logical);

  std::printf("1D machine, 5 encoded bits: %llu physical ops, %llu rails, "
              "%llu rail ops (%.3fx)\n\n",
              static_cast<unsigned long long>(block_program.stats.total_ops),
              static_cast<unsigned long long>(block_program.stats.rails),
              static_cast<unsigned long long>(block_program.stats.rail_ops),
              block_program.stats.gate_overhead());

  // 1. Find and show an interleave fault the global rail misses: a
  // corrupted routing/interleave SWAP whose damage lands in two
  // different blocks' groups. Both programs wrap the machine program's
  // ops; source_position maps its op `op` into each rail form, and the
  // printed "physical op" is that index.
  const Circuit physical =
      Machine(BlockLayout::k1d, 5).compile(logical).physical;
  const StateVector input = machine_data_input(block_program, 0x1f);
  const detect::CheckedCircuit& block_checked = block_program.checked;
  const detect::CheckedCircuit& global_checked = global_program.checked;
  bool shown = false;
  for (std::size_t op = 0; op < block_checked.source_position.size() && !shown;
       ++op) {
    const Gate& gate = block_checked.circuit.op(block_checked.source_position[op]);
    REVFT_CHECK(physical.op(op) == gate);
    REVFT_CHECK(global_checked.circuit.op(global_checked.source_position[op]) ==
                gate);
    const GateKind kind = gate.kind;
    if (kind != GateKind::kSwap && kind != GateKind::kSwap3) continue;
    for (unsigned v = 0; v < (1u << gate.arity()) && !shown; ++v) {
      const auto global_run = detect::checked_run(
          global_checked, input, {{global_checked.source_position[op], v}});
      if (global_run.detected) continue;
      const auto block_run = detect::checked_run(
          block_checked, input, {{block_checked.source_position[op], v}});
      int fired = 0;
      for (const auto f : block_run.rail_fired) fired += f != 0;
      if (!block_run.detected || fired < 2) continue;
      std::printf("injected fault: %s at physical op %zu, corrupted local "
                  "value %u\n",
                  gate_name(kind), op, v);
      std::printf("  global rail  : NOT detected (even total weight)\n");
      std::printf("  per-block    : detected, rails fired:");
      for (std::size_t r = 0; r < block_run.rail_fired.size(); ++r)
        if (block_run.rail_fired[r]) std::printf(" %zu", r);
      std::printf("  -> re-run those blocks, not the program\n\n");
      shown = true;
    }
  }
  if (!shown)
    std::printf("(no globally-silent cross-block swap fault on this input — "
                "try another workload)\n\n");

  // 2. Retry economics under noise, shipped configuration (per-block
  // rails + boundary zero checks).
  CheckedMachineExperiment::Config config;
  config.trials = trials;
  const CheckedMachineExperiment exp(CheckedMachine1d(5).compile(logical),
                                     logical, config);
  const std::uint64_t ops = exp.program().checked.circuit.size();
  const std::uint64_t blocks = exp.program().stats.rails;

  AsciiTable table({"g", "abort rate", "zero-check share", "top rail",
                    "top rail rate", "E[ops/accept] whole",
                    "block-local model"});
  for (const double g : {1e-4, 1e-3, 3e-3}) {
    const auto est = exp.run(g);
    // Which block's rail fires most often at this noise level?
    std::size_t top = 0;
    for (std::size_t r = 1; r < est.rail_detected.size(); ++r)
      if (est.rail_detected[r] > est.rail_detected[top]) top = r;
    // Block-local model (detect/retry_model.h, shared with
    // bench_local_checked and bench_recover): every accepted attempt
    // pays the program once; each aborted attempt is replaced by
    // re-running only the fired rails' blocks (a 1/B share each)
    // instead of the whole program.
    const auto model = detect::retry_cost_model(est, ops, blocks);
    table.add_row(
        {AsciiTable::sci(g, 1), AsciiTable::fixed(est.detected_rate(), 4),
         AsciiTable::fixed(est.detected ? static_cast<double>(
                                              est.zero_check_detected) /
                                              static_cast<double>(est.detected)
                                        : 0.0,
                           3),
         "rail " + std::to_string(top),
         AsciiTable::fixed(est.rail_detected_rate(top), 4),
         AsciiTable::sci(model.whole_program, 2),
         AsciiTable::sci(model.block_local, 2)});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\na fired rail names the suspect block: a block-local retry re-runs\n"
      "one 9-cell block (1/%llu of the machine) instead of all %llu checked\n"
      "ops — the gap between the last two columns is what localization is\n"
      "worth. These are MODEL numbers (detect::retry_cost_model); the\n"
      "src/recover/ subsystem implements the protocol for real — a\n"
      "checkpoint at every accepted recovery boundary, component replay\n"
      "when a rail fires — and bench_recover measures its true\n"
      "E[ops/accept] against this model.\n",
      static_cast<unsigned long long>(blocks),
      static_cast<unsigned long long>(ops));
  return 0;
}
