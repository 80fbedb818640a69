// revft/noise/injection.h
//
// Deterministic fault injection: run a circuit with a chosen set of
// gate failures, each replacing the touched bits with a chosen value.
// Enumerating (op, value) pairs exhaustively is how the tests PROVE
// the paper's fault-tolerance claims ("if any single error occurs ...
// a single bit flip will not change the majority result", §2) rather
// than merely sampling them.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "noise/packed_sim.h"
#include "rev/circuit.h"
#include "rev/simulator.h"

namespace revft {

/// One injected fault: when op `op_index` executes, its touched bits
/// are overwritten with `corrupted_local` (bit i -> operand i) instead
/// of the correct output. Enumerating corrupted_local over 2^arity
/// covers every possible "randomized" outcome of the paper's model,
/// including the benign one equal to the correct output.
struct FaultSpec {
  std::size_t op_index;
  unsigned corrupted_local;
};

/// One scripted scenario: an input and the faults its lane suffers on
/// the FIRST pass only (each op at most once, corrupted_local <
/// 2^arity).
struct FaultScenario {
  StateVector input{0};
  std::vector<FaultSpec> faults;
};

/// The one fault walker's first pass: scenario 64 * lane_words * b + l
/// runs in lane l of batch b on a noiseless simulator, so its scripted
/// faults are the only ones. detect::run_scripted_checked and
/// recover::run_scripted_recovering drive it from their callbacks.
class ScriptedPass {
 public:
  /// `scenarios` must outlive the pass; each input is `input_width`
  /// bits, loaded into the low bits of its lane.
  ScriptedPass(const Circuit& circuit, std::uint32_t input_width,
               std::span<const FaultScenario> scenarios, unsigned lane_words,
               std::function<bool(const StateVector&, std::size_t)> wrong);

  /// Loads batch `batch` into the cleared state and collects its faults
  /// as FaultEvents (one per scripted fault: its lane, its value's bits
  /// as the fresh words). Throws revft::Error naming the scenario on a
  /// wrong input width, an op out of range, a value >= 2^arity or a
  /// second fault on one op.
  void prepare(PackedState& s, std::uint64_t batch);
  /// The batch's scripted faults on ops [first, last) of the pass's
  /// circuit `c`, in op order — the same event list
  /// PackedSimulator::draw_faults draws over the whole-circuit index
  /// (the index and width are its arguments and go unused here). The
  /// checked engine's walk and the recovering engine's first pass
  /// inject them.
  std::span<const FaultEvent> draw_faults(const Circuit& c,
                                          const KindIndex& index,
                                          std::size_t first, std::size_t last,
                                          unsigned lane_words) const;
  /// wrong(lane's final state, scenario index).
  bool classify(const PackedState& s, int lane, std::uint64_t batch);

  /// The noiseless simulator (replays and restarts run on it).
  PackedSimulator& sim() { return sim_; }
  Xoshiro256& rng() { return sim_.rng(); }

 private:
  PackedSimulator sim_{NoiseModel::uniform(0.0), /*seed=*/0};
  const Circuit& circuit_;
  std::uint32_t input_width_;
  std::span<const FaultScenario> scenarios_;
  std::size_t lanes_per_batch_;
  std::function<bool(const StateVector&, std::size_t)> wrong_;
  std::vector<FaultEvent> events_;  // the current batch's, by op
  StateVector out_;
};

/// Run `circuit` on `input`, injecting the given faults (sorted or
/// not; each op index at most once — throws revft::Error on
/// duplicates or out-of-range indices).
StateVector apply_with_faults(const Circuit& circuit, StateVector input,
                              const std::vector<FaultSpec>& faults);

/// Single-fault-site accounting, the one definition shared by the
/// enumerators below and the detection census (detect/checker.h):
/// `sites` is the number of fallible ops and `scenarios` the
/// input-independent scenario count Σ over ops of 2^arity. Keeping
/// both derived from the same walk is what lets exhaustive proofs
/// assert they covered everything — see test_local_checked's
/// accounting test.
struct FaultSites {
  std::uint64_t sites = 0;
  std::uint64_t scenarios = 0;
};
FaultSites count_fault_sites(const Circuit& circuit);

/// All single-fault scenarios of a circuit: for every op, every
/// possible corrupted output value. Size = count_fault_sites().scenarios.
std::vector<FaultSpec> enumerate_single_faults(const Circuit& circuit);

/// Single-fault scenarios pruned for one concrete input: a fault-free
/// forward pass records every op's correct local output, and with
/// `skip_benign` the corrupted value equal to it is dropped — that
/// scenario re-simulates to the fault-free run, so exhaustive censuses
/// need not pay for it (size = sum over ops of 2^arity - 1). With
/// skip_benign false this matches the input-independent overload.
std::vector<FaultSpec> enumerate_single_faults(const Circuit& circuit,
                                               const StateVector& input,
                                               bool skip_benign);

}  // namespace revft
