#include "detect/checked_mc.h"

#include <algorithm>

namespace revft::detect {

namespace {

// One instantiation per lane width (with_lane_words picks it, as for
// the gate kernels), so the rail and zero-check evaluators
// (checked_mc.h detail) run fixed-trip word loops, and per simulator:
// the noisy PackedSimulator or a ScriptedPass.
template <unsigned W, typename Sim>
void apply_noisy_checked_impl(Sim& sim, PackedState& state,
                              const CheckedCircuit& checked,
                              std::uint64_t* __restrict__ detected,
                              std::uint64_t* __restrict__ fired_masks) {
  const std::size_t n_rails = checked.rails.size();
  if (fired_masks != nullptr)
    std::fill(fired_masks, fired_masks + (n_rails + 1) * W, 0);
  for (unsigned w = 0; w < W; ++w) detected[w] = 0;
  // Run the segments between checks through the simulator's span loop
  // (hot path identical to the unchecked engine), pausing only to OR
  // the per-lane rail invariants — or a zero-checked word — into the
  // masks. Rail checkpoints and zero checks are each sorted by
  // position; merge the two walks.
  std::size_t pos = 0;
  std::size_t ci = 0, zi = 0;
  const std::size_t n_cp = checked.checkpoints.size();
  const std::size_t n_zc = checked.zero_checks.size();
  while (ci < n_cp || zi < n_zc) {
    const std::size_t at_cp =
        ci < n_cp ? checked.checkpoints[ci] : checked.circuit.size();
    const std::size_t at_zc =
        zi < n_zc ? checked.zero_checks[zi].op_index : checked.circuit.size();
    const std::size_t stop = at_cp < at_zc ? at_cp : at_zc;
    sim.apply_noisy_span(state, checked.circuit, pos, stop + 1);
    pos = stop + 1;
    while (zi < n_zc && checked.zero_checks[zi].op_index == stop) {
      std::uint64_t zero_mask[W];
      detail::zero_check_words<W>(state, checked.zero_checks[zi].bits,
                                  zero_mask);
      for (unsigned w = 0; w < W; ++w) detected[w] |= zero_mask[w];
      if (fired_masks != nullptr)
        for (unsigned w = 0; w < W; ++w)
          fired_masks[n_rails * W + w] |= zero_mask[w];
      ++zi;
    }
    while (ci < n_cp && checked.checkpoints[ci] == stop) {
      const CheckpointSpan& span = checked.checkpoint_spans[ci];
      for (std::size_t r = 0; r < n_rails; ++r) {
        std::uint64_t acc[W];
        detail::rail_invariant_words<W>(state, checked.rails[r].rail_bit,
                                        span.group(r), acc);
        for (unsigned w = 0; w < W; ++w) detected[w] |= acc[w];
        if (fired_masks != nullptr)
          for (unsigned w = 0; w < W; ++w) fired_masks[r * W + w] |= acc[w];
      }
      ++ci;
    }
  }
  sim.apply_noisy_span(state, checked.circuit, pos, checked.circuit.size());
}

}  // namespace

template <typename Sim>
void apply_noisy_checked_words(Sim& sim, PackedState& state,
                               const CheckedCircuit& checked,
                               std::uint64_t* detected,
                               std::uint64_t* fired_masks) {
  REVFT_CHECK_MSG(checked.circuit.width() == state.width(),
                  "apply_noisy_checked_words: width mismatch");
  REVFT_CHECK_MSG(
      checked.checkpoint_spans.size() == checked.checkpoints.size(),
      "apply_noisy_checked_words: checkpoint_spans do not match checkpoints (a "
      "CheckedCircuit's spans come from detect::to_parity_rail)");
  with_lane_words(state.lane_words(), "apply_noisy_checked_words",
                  [&](auto W) {
                    apply_noisy_checked_impl<W>(sim, state, checked, detected,
                                                fired_masks);
                  });
}

template void apply_noisy_checked_words(PackedSimulator&, PackedState&,
                                        const CheckedCircuit&, std::uint64_t*,
                                        std::uint64_t*);
template void apply_noisy_checked_words(ScriptedPass&, PackedState&,
                                        const CheckedCircuit&, std::uint64_t*,
                                        std::uint64_t*);

DetectionEstimate run_scripted_checked(
    const CheckedCircuit& checked, std::span<const FaultScenario> scenarios,
    unsigned lane_words,
    const std::function<bool(const StateVector&, std::size_t)>& wrong) {
  ScriptedPass script(checked.circuit, checked.data_width, scenarios,
                      lane_words, wrong);
  PackedState state(checked.circuit.width(), lane_words);
  return detail::run_checked_mc_span(
      script, state, checked, /*first_batch=*/0, scenarios.size(),
      [&script](PackedState& s, Xoshiro256&, std::uint64_t batch) {
        script.prepare(s, batch);
      },
      [&script](const PackedState& s, int lane, std::uint64_t batch) {
        return script.classify(s, lane, batch);
      });
}

}  // namespace revft::detect
