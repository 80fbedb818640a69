// revft/ft/detect_experiment.h
//
// Detection vs correction at equal gate counts. Both arms repeatedly
// apply the same 3-bit scrambler round — a mix of MAJ, rotation and
// CNOT so faults propagate nontrivially — under the paper's noise
// model, each consuming (approximately) the same budget of fallible
// physical operations:
//
//   correction arm  — the round chain compiled to concatenation
//                     level 1 (paper §2.1: transversal gates + Fig 2
//                     recovery); failure = any logical output bit
//                     majority-decodes wrong.
//   detection arm   — the bare round chain in parity-rail form
//                     (src/detect/), run under the packed checked
//                     engine; a fired checker aborts the trial
//                     (post-selection), and the survivors' quality is
//                     the post-selected error rate.
//
// Because one level-1 logical round costs ~30x more ops than one
// railed round, the detection arm runs correspondingly more rounds —
// the comparison is error per gate budget, the currency the threshold
// theorem is priced in. Detection buys its low overhead with two
// weaknesses the numbers expose: even-weight corruptions escape the
// parity check (silent failures survive post-selection) and every
// abort costs a retry (acceptance decays with the budget).
#pragma once

#include <cstdint>

#include "detect/checked_mc.h"
#include "detect/checker.h"
#include "ft/concat.h"
#include "ft/machine_kernel.h"
#include "local/checked_machine.h"
#include "noise/parallel_mc.h"
#include "support/stats.h"

namespace revft {

struct DetectVsCorrectConfig {
  /// Target number of fallible physical ops per arm. Each arm rounds
  /// DOWN to a whole number of its rounds (at least one), so the
  /// realized counts — correction_ops()/detection_ops() — differ by
  /// at most one round from the target.
  std::uint64_t gate_budget = 2000;
  /// Charge gate error to recovery initializations (G = 11 regime).
  bool noisy_init = true;
  std::uint64_t trials = 100000;
  std::uint64_t seed = 0xdec7c0deULL;
  int threads = 0;  ///< see LogicalGateExperimentConfig::threads
};

/// One point of the detection-vs-correction curve.
struct DetectVsCorrectPoint {
  double g = 0.0;
  BernoulliEstimate correction;          ///< logical error, correction arm
  detect::DetectionEstimate detection;   ///< outcome counts, detection arm
};

/// The acceptance-proof census, shared by tests/test_detect.cpp (the
/// ctest gate) and bench_detect (the printed table) so the two cannot
/// drift apart: exhaustive single-fault classification of the
/// parity-checked Fig 2 MAJ recovery cycle (checkpoint after every op
/// group), over both logical inputs, where "error" means the recovered
/// codeword majority-decodes wrong. fault_secure() must hold.
/// `rail_partition` selects the rail layout (empty = the classic single
/// rail; the refinement tests and bench_detect's partition table pass
/// the three 3-cell majority blocks).
detect::DetectionCensus checked_maj_cycle_census(
    const std::vector<std::vector<std::uint32_t>>& rail_partition = {});

/// The machine-level analogue, likewise shared by
/// tests/test_local_checked.cpp (the ctest gate) and
/// bench_local_checked (the printed table): exhaustive single-fault
/// detection census of a checked local-machine program over every
/// logical input, where "error" means some logical bit
/// majority-decodes wrong at its final slot. `logical` must be the
/// circuit the program was compiled from (width <= 16).
detect::DetectionCensus machine_detection_census(
    const CheckedMachineProgram& program, const Circuit& logical);

/// Compile both arms once, then sweep g with run().
class DetectVsCorrectExperiment {
 public:
  explicit DetectVsCorrectExperiment(const DetectVsCorrectConfig& config);

  DetectVsCorrectPoint run(double g) const;

  /// The detection arm alone, with an explicit worker count (0 =
  /// auto). Used by determinism checks that only need the detected /
  /// silent / accepted counts — the correction arm costs far more and
  /// never depends on the thread count either.
  detect::DetectionEstimate run_detection(double g, int threads) const;

  /// The shared 3-bit workload round.
  static Circuit scrambler_round();

  const DetectVsCorrectConfig& config() const noexcept { return config_; }
  int correction_rounds() const noexcept { return correction_rounds_; }
  int detection_rounds() const noexcept { return detection_rounds_; }
  /// Realized fallible-op counts (every op of each arm's circuit).
  std::uint64_t correction_ops() const noexcept {
    return module_.physical.size();
  }
  std::uint64_t detection_ops() const noexcept {
    return checked_.circuit.size();
  }
  const CompiledModule& module() const noexcept { return module_; }
  const detect::CheckedCircuit& checked() const noexcept { return checked_; }

 private:
  DetectVsCorrectConfig config_;
  int correction_rounds_ = 1;
  int detection_rounds_ = 1;
  CompiledModule module_;               // correction arm, level 1
  detect::CheckedCircuit checked_;      // detection arm, parity-railed
  /// Each arm's kernel, judged by the ideal truth table of its own
  /// (different-length) chain.
  MachineWorkloadKernel correction_kernel_;
  MachineWorkloadKernel detection_kernel_;
};

}  // namespace revft
