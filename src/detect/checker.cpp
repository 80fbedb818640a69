#include "detect/checker.h"

#include <algorithm>

#include "detect/checked_mc.h"
#include "support/error.h"

namespace revft::detect {

constexpr unsigned kCensusLaneWords = 8;  // 512 scenarios per batch

CheckedRunResult checked_run(const CheckedCircuit& checked,
                             const StateVector& data_input,
                             const std::vector<FaultSpec>& faults) {
  CheckedRunResult result{StateVector(0), false, {}};
  const FaultScenario scenario{data_input, faults};
  const DetectionEstimate est = run_scripted_checked(
      checked, {&scenario, 1}, 1,
      [&result](const StateVector& state, std::size_t) {
        result.state = state;
        return false;
      });
  result.detected = est.detected != 0;
  result.rail_fired.assign(est.rail_detected.begin(), est.rail_detected.end());
  return result;
}

DetectionCensus single_fault_detection_census(
    const CheckedCircuit& checked, const std::vector<StateVector>& data_inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error) {
  REVFT_CHECK_MSG(!data_inputs.empty(),
                  "single_fault_detection_census: no inputs");
  const Circuit& circuit = checked.circuit;
  const FaultSites sites = count_fault_sites(circuit);
  DetectionCensus census;
  census.fault_sites = sites.sites;

  // A clean pass per input prunes each site's benign value (it
  // re-simulates to the fault-free run); the rest stream to the walker
  // one batch at a time, each lane's buffers reused.
  DetectionEstimate est;
  est.rail_detected.assign(checked.rails.size(), 0);
  std::vector<FaultScenario> batch(64 * kCensusLaneWords);
  for (std::size_t in = 0; in < data_inputs.size(); ++in) {
    const std::vector<FaultSpec> faults = enumerate_single_faults(
        circuit, widen_input(checked, data_inputs[in]), true);
    census.benign_skipped += sites.scenarios - faults.size();
    for (std::size_t first = 0; first < faults.size(); first += batch.size()) {
      const std::size_t n = std::min(batch.size(), faults.size() - first);
      for (std::size_t k = 0; k < n; ++k) {
        batch[k].input = data_inputs[in];
        batch[k].faults.assign(1, faults[first + k]);
      }
      est += run_scripted_checked(
          checked, {batch.data(), n}, kCensusLaneWords,
          [&](const StateVector& state, std::size_t) {
            return is_error(state, in);
          });
    }
  }
  census.scenarios = est.trials;
  census.harmless = est.accepted() - est.silent_failures;
  census.detected_harmless = est.false_alarms();
  census.detected_harmful = est.detected_failures;
  census.silent_harmful = est.silent_failures;
  census.rail_detected = est.rail_detected;
  return census;
}

PairCensusResult pair_fault_census(
    const Circuit& circuit, const std::vector<StateVector>& prepared_inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error) {
  REVFT_CHECK_MSG(!prepared_inputs.empty(), "pair_fault_census: no inputs");
  CheckedCircuit plain;
  plain.circuit = circuit;
  plain.data_width = circuit.width();
  index_walk(plain);
  const std::size_t inputs = prepared_inputs.size();
  PairCensusResult result;
  std::vector<FaultScenario> batch;
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const unsigned vi_count = 1u << circuit.op(i).arity();
    for (std::size_t j = i + 1; j < circuit.size(); ++j) {
      const unsigned vj_count = 1u << circuit.op(j).arity();
      ++result.pairs_total;
      // Scenario s: input s % inputs, value combo s / inputs.
      batch.resize(std::size_t{vi_count} * vj_count * inputs);
      for (std::size_t s = 0; s < batch.size(); ++s) {
        const auto combo = static_cast<unsigned>(s / inputs);
        batch[s].input = prepared_inputs[s % inputs];
        batch[s].faults = {{i, combo / vj_count}, {j, combo % vj_count}};
      }
      const std::uint64_t fatal_combos =
          run_scripted_checked(plain, batch, kCensusLaneWords,
                               [&](const StateVector& state, std::size_t s) {
                                 return is_error(state, s % inputs);
                               })
              .silent_failures;
      result.scenarios_total += batch.size();
      result.scenarios_fatal += fatal_combos;
      result.quadratic_coefficient +=
          static_cast<double>(fatal_combos) /
          (static_cast<double>(vi_count) * static_cast<double>(vj_count) *
           static_cast<double>(inputs));
    }
  }
  return result;
}

}  // namespace revft::detect
