// examples/checked_machine.cpp
//
// A self-checking fault-tolerant local machine: the logical_machine
// example's 1D computer with the detect/ parity rail threaded through
// its compiled program. The routing fabric (81 adjacent swaps per
// block transposition) is parity-preserving, so it checks itself at
// zero gate cost; every block-recovery boundary carries a zero check
// on the recovered syndromes. The run reports how often detection
// fires, what slips through silently, and what an abort-and-retry
// consumer would see.
//
// Run:  ./checked_machine [trials]
#include <cstdio>

#include "example_args.h"
#include "ft/experiments.h"
#include "local/checked_machine.h"
#include "support/table.h"

using namespace revft;

int main(int argc, char** argv) {
  const std::uint64_t trials = u64_arg(argc, argv, 1, "trials", 100000);

  // The logical program: operands deliberately far apart.
  Circuit logical(5);
  logical.maj(4, 2, 0).toffoli(0, 3, 4).majinv(2, 1, 4).swap3(0, 2, 4);

  for (const bool two_d : {false, true}) {
    CheckedMachineProgram program =
        two_d ? CheckedMachine2d(5).compile(logical)
              : CheckedMachine1d(5).compile(logical);
    std::printf("%s machine, %u encoded bits:\n", two_d ? "2D" : "1D",
                program.logical_bits);
    std::printf(
        "  %llu physical ops, %.1f%% self-checking for free "
        "(%llu routing swaps), %llu rail ops added (%.3fx), %llu zero "
        "checks\n",
        static_cast<unsigned long long>(program.stats.total_ops),
        100.0 * program.stats.free_fraction(),
        static_cast<unsigned long long>(program.stats.routing_ops),
        static_cast<unsigned long long>(program.stats.rail_ops),
        program.stats.gate_overhead(),
        static_cast<unsigned long long>(program.stats.zero_checks));

    CheckedMachineExperiment::Config config;
    config.trials = trials;
    const CheckedMachineExperiment exp(std::move(program), logical, config);
    const std::uint64_t checked_ops = exp.program().checked.circuit.size();

    AsciiTable table({"g", "detected", "silent fail", "accepted",
                      "post-sel error", "E[ops/accept]"});
    for (const double g : {1e-4, 1e-3, 3e-3, 1e-2}) {
      const auto est = exp.run(g);
      table.add_row({AsciiTable::sci(g, 1),
                     AsciiTable::fixed(est.detected_rate(), 4),
                     AsciiTable::cell(est.silent_failures),
                     AsciiTable::cell(est.accepted()),
                     AsciiTable::sci(est.post_selected_error_rate(), 2),
                     AsciiTable::sci(est.expected_ops_to_accept(checked_ops),
                                     2)});
    }
    std::printf("%s\n", table.str().c_str());
  }
  std::printf(
      "every non-benign single fault of these programs is detected or\n"
      "harmless (see tests/test_local_checked.cpp for the exhaustive\n"
      "census); the silent failures above need two or more faults.\n");
  return 0;
}
