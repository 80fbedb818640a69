// circuit_lint — the static lint pass over checked circuits.
//
// Runs verify::lint_checked_circuit over the repo's standard
// constructions (which should come back clean of errors) and over a
// set of deliberately mis-configured ones, one per lint code:
//
//   * a rail partition that watches only one block of the MAJ cycle
//     (rail-coverage-hole);
//   * the cycle railed WITHOUT the known-zero promise, so encoder
//     compensation provably never toggles (dead-compensation);
//   * a zero check asserted on a cell that provably carries data
//     (spurious-check);
//   * the checked 1D machine, whose routing glues rails into shared
//     replay components (glued-replay-components — a true finding
//     about the shipped construction, not a doctored one).
//
// Everything here is static: no fault is injected, no trial simulated.
#include <cstdio>

#include "detect/rail.h"
#include "ft/ec_circuit.h"
#include "local/checked_machine.h"
#include "rev/circuit.h"
#include "verify/lint.h"

using namespace revft;

namespace {

void print_report(const char* title, const verify::LintReport& report) {
  std::printf("== %s ==\n", title);
  if (report.clean()) {
    std::printf("  (clean — no findings)\n\n");
    return;
  }
  for (const auto& f : report.findings) {
    std::printf("  [%s] %s @ op %zu: %s\n",
                verify::lint_severity_name(f.severity),
                verify::lint_code_name(f.code), f.position,
                f.message.c_str());
    if (!f.cells.empty()) {
      std::printf("      cells:");
      for (const auto c : f.cells) std::printf(" %u", c);
      std::printf("\n");
    }
    if (!f.ops.empty()) {
      std::printf("      ops:");
      for (const auto o : f.ops) std::printf(" %zu", o);
      std::printf("\n");
    }
  }
  std::printf("  %zu error(s), %zu warning(s), %zu info(s)\n\n",
              report.errors(), report.warnings(), report.infos());
}

/// The cycle's entry binding: the logical bit on the data triple,
/// zeros on the six ancillas.
std::vector<verify::Poly> cycle_entry(const EcStage& stage) {
  std::vector<verify::Poly> entry(9, verify::Poly::zero());
  for (const auto bit : stage.before.data)
    entry[bit] = verify::Poly::var(0);
  return entry;
}

}  // namespace

int main() {
  const EcStage stage = make_fig2_ec(/*with_init=*/true);
  const auto entry = cycle_entry(stage);

  // The shipped configuration: known-zero armed, full coverage.
  detect::ParityRailOptions good;
  good.check_every = 1;
  good.known_zero = detect::known_zero_outside(
      9, {stage.before.data[0], stage.before.data[1], stage.before.data[2]});
  print_report("MAJ cycle, shipped configuration",
               verify::lint_checked_circuit(
                   detect::to_parity_rail(stage.circuit, good), entry));

  // Same cycle without the promise: compensation for the init gates
  // provably never toggles.
  detect::ParityRailOptions noelide;
  noelide.check_every = 1;
  print_report("MAJ cycle without the known-zero promise",
               verify::lint_checked_circuit(
                   detect::to_parity_rail(stage.circuit, noelide), entry));

  // A partition watching one block only: six cells uncovered.
  detect::ParityRailOptions hole;
  hole.check_every = 1;
  hole.rail_partition = {{0, 1, 2}};
  print_report("MAJ cycle, rails over one block only",
               verify::lint_checked_circuit(
                   detect::to_parity_rail(stage.circuit, hole), entry));

  // A zero check asserted where data provably lives.
  auto spurious = detect::to_parity_rail(stage.circuit, noelide);
  detect::add_zero_check(spurious, stage.circuit.size() - 1,
                         {stage.after.data[0]});
  print_report("MAJ cycle with a zero check on a data cell",
               verify::lint_checked_circuit(spurious, entry));

  // The checked 1D machine: clean of errors, but its routing glues
  // rails into shared replay components — a real warning.
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine1d(3).compile(logical);
  print_report("checked 1D machine (toffoli workload)",
               verify::lint_checked_circuit(program.checked,
                                            verify::machine_entry(program)));

  return 0;
}
