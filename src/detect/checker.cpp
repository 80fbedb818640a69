#include "detect/checker.h"

#include "support/error.h"

namespace revft::detect {

namespace {

/// The one scalar op walk behind checked_run_with_faults and the
/// census: runs ops [first, end) on result.state, overwriting the
/// operands of every op whose `corrupted(i)` is >= 0 with that local
/// value, and evaluates the zero checks and rail checkpoints from
/// cursors `zc` / `cp` (the first entries with op_index >= first).
/// Embedded check bits are inspected at the end; every other field of
/// `result` is reset first. A full run walks from op 0; the census
/// walks a fault's suffix from the clean pre-op state, which needs no
/// prefix replay because a fault-free prefix never fires a check.
template <typename CorruptedFn>
void walk_checked(const CheckedCircuit& checked, std::size_t first,
                  std::size_t zc, std::size_t cp, CorruptedFn&& corrupted,
                  CheckedRunResult& result) {
  const Circuit& circuit = checked.circuit;
  StateVector& state = result.state;
  result.detected = false;
  result.first_violation = 0;
  result.first_violated_rail = 0;
  result.zero_check_fired = false;
  result.rail_fired.assign(checked.rails.size(), 0);
  bool any_rail_fired = false;
  for (std::size_t i = first; i < circuit.size(); ++i) {
    const Gate& g = circuit.op(i);
    const int v = corrupted(i);
    if (v < 0) {
      state.apply(g);
    } else {
      for (int k = 0; k < g.arity(); ++k)
        state.set_bit(g.bits[static_cast<std::size_t>(k)],
                      static_cast<std::uint8_t>((v >> k) & 1));
    }
    for (; zc < checked.zero_checks.size() &&
           checked.zero_checks[zc].op_index == i;
         ++zc)
      for (const std::uint32_t bit : checked.zero_checks[zc].bits)
        if (state.bit(bit) != 0) {
          result.detected = true;
          result.zero_check_fired = true;
        }
    for (; cp < checked.checkpoints.size() && checked.checkpoints[cp] == i;
         ++cp) {
      const CheckpointSpan& span = checked.checkpoint_spans[cp];
      for (std::size_t r = 0; r < checked.rails.size(); ++r) {
        const std::uint32_t rail_bit = checked.rails[r].rail_bit;
        if (rail_invariant(state, rail_bit, span.group(r)) == 0) continue;
        if (!any_rail_fired) {
          result.first_violation = cp;
          result.first_violated_rail = r;
          any_rail_fired = true;
        }
        result.rail_fired[r] = 1;
        result.detected = true;
      }
    }
  }
  // Embedded checker outputs: any check bit left set is a detection.
  if (!result.detected) {
    for (std::size_t k = 0; k < checked.check_bits.size(); ++k) {
      if (state.bit(checked.check_bits[k]) != 0) {
        result.detected = true;
        result.first_violation = k;
        break;
      }
    }
  }
}

}  // namespace

CheckedRunResult checked_run_with_faults(const CheckedCircuit& checked,
                                         const StateVector& data_input,
                                         const std::vector<FaultSpec>& faults) {
  const Circuit& circuit = checked.circuit;
  // Index faults by op (same validation as noise/apply_with_faults).
  std::vector<int> corrupted_at(circuit.size(), -1);
  for (const FaultSpec& f : faults) {
    REVFT_CHECK_MSG(f.op_index < circuit.size(),
                    "fault op_index " << f.op_index << " out of range");
    REVFT_CHECK_MSG(corrupted_at[f.op_index] < 0,
                    "duplicate fault on op " << f.op_index);
    REVFT_CHECK_MSG(f.corrupted_local < (1u << circuit.op(f.op_index).arity()),
                    "corrupted_local " << f.corrupted_local
                                       << " exceeds arity");
    corrupted_at[f.op_index] = static_cast<int>(f.corrupted_local);
  }
  CheckedRunResult result{widen_input(checked, data_input), false, 0, {}, 0,
                          false};
  walk_checked(
      checked, 0, 0, 0, [&](std::size_t i) { return corrupted_at[i]; },
      result);
  return result;
}

CheckedRunResult checked_run(const CheckedCircuit& checked,
                             const StateVector& data_input) {
  return checked_run_with_faults(checked, data_input, {});
}

DetectionCensus single_fault_detection_census(
    const CheckedCircuit& checked, const std::vector<StateVector>& data_inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error) {
  // Every (op, value) scenario: fault_sites comes out as the op count,
  // the same accounting as noise/injection's count_fault_sites, so
  // "scenarios + benign == inputs x Σ 2^arity" is an identity the tests
  // can assert rather than a coincidence.
  return single_fault_detection_census(
      checked, data_inputs, is_error, enumerate_single_faults(checked.circuit));
}

DetectionCensus single_fault_detection_census(
    const CheckedCircuit& checked, const std::vector<StateVector>& data_inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error,
    const std::vector<FaultSpec>& scenarios) {
  REVFT_CHECK_MSG(!data_inputs.empty(),
                  "single_fault_detection_census: no inputs");
  const Circuit& circuit = checked.circuit;
  // Group the requested (op, value) scenarios by op.
  std::vector<std::vector<unsigned>> values_at(circuit.size());
  for (const FaultSpec& f : scenarios) {
    REVFT_CHECK_MSG(f.op_index < circuit.size(),
                    "restricted census: op_index " << f.op_index
                                                   << " out of range");
    REVFT_CHECK_MSG(
        f.corrupted_local < (1u << circuit.op(f.op_index).arity()),
        "restricted census: corrupted_local exceeds arity");
    values_at[f.op_index].push_back(f.corrupted_local);
  }
  DetectionCensus census;
  census.rail_detected.assign(checked.rails.size(), 0);
  for (std::size_t i = 0; i < circuit.size(); ++i)
    if (!values_at[i].empty()) ++census.fault_sites;

  // Hoisted enumeration: one clean forward walk per input supplies the
  // pre-op state of every fault site and the check cursors there, so
  // each scenario re-simulates only its suffix instead of the whole
  // circuit (and skips the per-scenario fault indexing and input
  // widening of a checked_run_with_faults loop). Exactly that loop's
  // classification, at roughly half the gate applications.
  CheckedRunResult run{StateVector(0), false, 0, {}, 0, false};
  for (std::size_t in = 0; in < data_inputs.size(); ++in) {
    StateVector clean = widen_input(checked, data_inputs[in]);
    std::size_t zc = 0;
    std::size_t cp = 0;
    for (std::size_t i = 0; i < circuit.size(); ++i) {
      const Gate& g = circuit.op(i);
      if (!values_at[i].empty()) {
        const int n = g.arity();
        unsigned local = 0;
        for (int k = 0; k < n; ++k)
          local |= static_cast<unsigned>(
                       clean.bit(g.bits[static_cast<std::size_t>(k)]))
                   << k;
        const unsigned correct = gate_apply_local(g.kind, local);
        for (const unsigned v : values_at[i]) {
          if (v == correct) {  // re-simulates to the clean run
            ++census.benign_skipped;
            continue;
          }
          ++census.scenarios;
          run.state = clean;
          walk_checked(
              checked, i, zc, cp,
              [i, v](std::size_t op) {
                return op == i ? static_cast<int>(v) : -1;
              },
              run);
          const bool wrong = is_error(run.state, in);
          if (run.detected)
            ++(wrong ? census.detected_harmful : census.detected_harmless);
          else
            ++(wrong ? census.silent_harmful : census.harmless);
          for (std::size_t r = 0; r < run.rail_fired.size(); ++r)
            census.rail_detected[r] += run.rail_fired[r];
        }
      }
      clean.apply(g);
      while (zc < checked.zero_checks.size() &&
             checked.zero_checks[zc].op_index == i)
        ++zc;
      while (cp < checked.checkpoints.size() && checked.checkpoints[cp] == i)
        ++cp;
    }
  }
  return census;
}

}  // namespace revft::detect
