// revft/detect/checker.h
//
// Single checked runs and the exhaustive fault censuses, all on the
// one fault walker (detect::run_scripted_checked: scripted faults in
// the packed checked engine's lanes). The single-fault detection
// census is the detection analogue of the pair-fault census below.
// Instead of *sampling* the detected / silent split, it enumerates
// every single-fault scenario of a checked circuit (every op, every
// corrupted local value, every supplied input) and classifies each one
// exactly:
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

/// Outcome of one checked run.
struct CheckedRunResult {
  StateVector state;  ///< final state at the checked circuit's width
  bool detected = false;
  /// Per-rail alarm flags, sized rails.size(): rail_fired[r] != 0 when
  /// rail r's invariant I_r was violated at some checkpoint. This is
  /// the localization payoff of a rail partition — under the checked
  /// machines' per-block partition the fired rail names the suspect
  /// block, so a retry can re-run one block instead of the program.
  std::vector<std::uint8_t> rail_fired;
};

/// Run the checked circuit on a data-width input (the rails are zeroed
/// internally) with deterministic fault injection (op indices refer to
/// checked.circuit): one lane of run_scripted_checked. Every rail
/// invariant I_r = rail_r ^ XOR(group_r) is evaluated at every
/// checkpoint (recording which rails fired) and every registered
/// ZeroCheck's bits are inspected at its position. A fault-free run
/// (no `faults`) never detects.
CheckedRunResult checked_run(const CheckedCircuit& checked,
                             const StateVector& data_input,
                             const std::vector<FaultSpec>& faults = {});

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
/// classify the outcomes. fault_sites is count_fault_sites(circuit)
/// .sites, so "scenarios + benign == inputs x Σ 2^arity" is an identity
/// the tests can assert. `is_error(final_state, input index)` judges
/// logical failure on the full-width final state. verify/certify.h
/// computes the same counts without running a scenario, and the tests
/// require the two to agree field by field.
DetectionCensus single_fault_detection_census(
    const CheckedCircuit& checked, const std::vector<StateVector>& data_inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error);

/// Exhaustive PAIR-fault census: for every unordered pair of ops and
/// every combination of corrupted values (and every input the caller
/// supplies), decide whether the double fault defeats the circuit.
///
/// This measures the exact quadratic error coefficient of a
/// fault-tolerant construction. The paper bounds it by C(G,2) per
/// encoded bit (every pair assumed fatal, §2.2); the census computes
/// the true count:
///
///   P[logical error] = c2 g^2 + O(g^3),
///   c2 = sum over op pairs (i<j) of P[fatal | both fail]
///      = sum over pairs of (fatal value combos) / 2^(arity_i+arity_j)
///
/// averaged over the supplied inputs. (Single faults are assumed
/// non-fatal — true for the level-1 non-local and 2D constructions;
/// callers for 1D should also run the single-fault census.)
struct PairCensusResult {
  std::uint64_t pairs_total = 0;        ///< op pairs examined
  std::uint64_t scenarios_total = 0;    ///< (pair, values, input) cases
  std::uint64_t scenarios_fatal = 0;
  /// Exact quadratic coefficient c2 (averaged over inputs).
  double quadratic_coefficient = 0.0;
};

/// `is_error(final_state, input_index)` decides logical failure.
/// Inputs are given as prepared StateVectors (one per logical input).
/// The circuit runs on the fault walker as a CheckedCircuit with no
/// rails or checks.
PairCensusResult pair_fault_census(
    const Circuit& circuit, const std::vector<StateVector>& prepared_inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error);

}  // namespace revft::detect
