// revft/detect/checker.h
//
// Online error detection for the scalar reference engine, and the
// exhaustive single-fault detection census — the detection analogue of
// noise/injection's pair-fault census. Instead of *sampling* the
// detected / silent split, the census enumerates every single-fault
// scenario of a checked circuit (every op, every corrupted local
// value, every supplied input) and classifies each one exactly:
//
//   harmless          — output still correct, no alarm
//   detected_harmless — alarm raised, output correct anyway
//   detected_harmful  — alarm raised AND the output is wrong: the
//                       faults a detect-and-retry protocol saves
//   silent_harmful    — output wrong with no alarm: the failures that
//                       defeat detection
//
// fault_secure() (silent_harmful == 0) is a *proof*, not an estimate:
// for the parity-checked MAJ recovery cycle it establishes that every
// non-benign single fault is either caught by the checker or corrected
// by the majority vote (cf. "Detecting Errors in Reversible Circuits
// With Invariant Relationships", arXiv:0812.3871).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "detect/rail.h"
#include "noise/injection.h"
#include "rev/simulator.h"

namespace revft::detect {

/// Outcome of one checked scalar run.
struct CheckedRunResult {
  StateVector state;  ///< final state at the checked circuit's width
  bool detected = false;
  /// Index into CheckedCircuit::checkpoints of the first violated
  /// checkpoint (meaningful only when detected).
  std::size_t first_violation = 0;
  /// Per-rail alarm flags, sized rails.size(): rail_fired[r] != 0 when
  /// rail r's invariant I_r was violated at some checkpoint. This is
  /// the localization payoff of a rail partition — under the checked
  /// machines' per-block partition the fired rail names the suspect
  /// block, so a retry can re-run one block instead of the program.
  std::vector<std::uint8_t> rail_fired;
  /// Rail index of the first rail violation (meaningful only when some
  /// rail fired; zero-check-only detections leave it 0).
  std::size_t first_violated_rail = 0;
  /// True when some registered ZeroCheck saw a nonzero bit.
  bool zero_check_fired = false;
};

/// Run the checked circuit fault-free on a data-width input (rail and
/// check bits are zeroed internally). A fault-free run never detects.
CheckedRunResult checked_run(const CheckedCircuit& checked,
                             const StateVector& data_input);

/// Same, with deterministic fault injection (op indices refer to
/// checked.circuit). Every rail invariant I_r = rail_r ^ XOR(group_r)
/// is evaluated at every checkpoint (recording which rails fired) and
/// every registered ZeroCheck's bits are inspected at its position;
/// embedded check bits are also inspected at the end when present.
/// first_violation refers to rail checkpoints only (it stays 0 for a
/// pure zero-check detection).
CheckedRunResult checked_run_with_faults(const CheckedCircuit& checked,
                                         const StateVector& data_input,
                                         const std::vector<FaultSpec>& faults);

/// Exact classification of every single-fault scenario.
struct DetectionCensus {
  std::uint64_t fault_sites = 0;     ///< fallible ops of the checked circuit
  std::uint64_t scenarios = 0;       ///< (op, value, input) cases simulated
  std::uint64_t benign_skipped = 0;  ///< corrupted value == correct output
  std::uint64_t harmless = 0;
  std::uint64_t detected_harmless = 0;
  std::uint64_t detected_harmful = 0;
  std::uint64_t silent_harmful = 0;
  /// Scenarios in which rail r fired at some checkpoint, one entry per
  /// CheckedCircuit rail (a scenario firing several rails counts once
  /// per rail, exactly like DetectionEstimate::rail_detected counts
  /// trials). This is the EXHAUSTIVE ground truth of the per-block
  /// hot-spot ranking: the Monte-Carlo rail ordering of a
  /// telemetry::RunReport should agree with this ordering wherever the
  /// census counts differ materially — ctest-enforced.
  std::vector<std::uint64_t> rail_detected;

  std::uint64_t detected() const noexcept {
    return detected_harmless + detected_harmful;
  }
  /// Sum of rail_detected[] (the census counterpart of
  /// DetectionEstimate::total_detected()).
  std::uint64_t total_rail_detected() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t r : rail_detected) sum += r;
    return sum;
  }
  /// The proof obligation: no single fault is both missed and fatal.
  bool fault_secure() const noexcept { return silent_harmful == 0; }
};

/// Enumerate every single fault of checked.circuit for every input
/// (the benign value of each site and input is skipped and counted,
/// as enumerate_single_faults' skip_benign path prunes it) and
/// classify the outcomes — the restricted census below over every
/// scenario. `is_error(final_state, input index)` judges logical
/// failure on the full-width final state.
DetectionCensus single_fault_detection_census(
    const CheckedCircuit& checked, const std::vector<StateVector>& data_inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error);

/// Restricted census: classify only the given (op, value) scenarios,
/// each across every input (benign combinations are skipped and
/// counted, as in the full census). This is the dynamic half of the
/// static/dynamic split in src/verify/: the certifier proves most
/// scenarios symbolically and hands the residue here, and
///   full_census == certificate.static_counts + restricted(residue)
/// field-by-field is the cross-check the tests enforce. fault_sites
/// counts the distinct op indices present in `scenarios`.
DetectionCensus single_fault_detection_census(
    const CheckedCircuit& checked, const std::vector<StateVector>& data_inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error,
    const std::vector<FaultSpec>& scenarios);

}  // namespace revft::detect
