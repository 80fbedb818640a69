// revft/detect/checked_mc.h
//
// Online error detection inside the packed Monte-Carlo engine. A
// checked batch runs in three steps: draw, compact, walk.
//
//   draw    — the simulator draws the whole circuit's gate failures
//             up front (PackedSimulator::draw_faults: the RNG words
//             and order of a per-op noisy walk; a ScriptedPass hands
//             over its scripted faults in the same FaultEvent shape).
//   compact — the live lanes that drew a fault, plus one sentinel
//             lane, are gathered into the narrowest lane width that
//             holds them (detail::CheckedBatchWalk); the other lanes
//             are never walked.
//   walk    — the ideal gate kernels run with the events injected,
//             routing folded into a renaming of cells to slots
//             (WalkIndex, detect/rail.h), merged with the checks: at
//             every recorded checkpoint every rail invariant
//             I_r = rail_r ^ XOR(group_r) is evaluated for all lanes
//             at once — one word XOR per group member plus one OR into
//             the running `detected` mask, so a full partition's
//             checkpoint costs the same word work as the classic
//             single rail (the groups tile the data bits), and the
//             per-rail fired masks come out as a byproduct.
//
// The rail and zero-check evaluators (detail::rail_invariant_words,
// detail::zero_check_words) are the only packed ones; the recovering
// engine calls them too.
//
// The detected masks are threaded through the thread-sharded engine
// (noise/parallel_mc.h): every trial is classified into one of four
// outcomes and the per-shard DetectionEstimates merge by exact integer
// sums, so — exactly like the plain engine — the detected / silent /
// accepted counts AND the per-rail detected counts are bit-identical
// for a fixed seed regardless of REVFT_THREADS.
//
// The headline statistics model an abort-and-retry (post-selection)
// protocol: trials whose checker fired are discarded, and the quality
// of the survivors is post_selected_error_rate() = silent_failures /
// accepted(). The retry-cost model prices the aborts: with acceptance
// rate a, a detect-and-retry consumer runs a geometric number of
// trials (mean 1/a) per accepted result, so detection's true cost is
// expected_ops_to_accept(ops_per_trial) = ops_per_trial / a — the
// number detection-vs-correction comparisons should use.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "detect/rail.h"
#include "noise/injection.h"
#include "noise/parallel_mc.h"

namespace revft::detect {

/// Exact outcome counts of a detection Monte-Carlo run.
struct DetectionEstimate {
  std::uint64_t trials = 0;
  std::uint64_t detected = 0;           ///< checker fired (trial aborted)
  std::uint64_t detected_failures = 0;  ///< ... and the output was wrong
  std::uint64_t silent_failures = 0;    ///< accepted, but the output was wrong
  /// Trials in which rail r's invariant fired at some checkpoint, one
  /// entry per CheckedCircuit rail. A trial can fire several rails (a
  /// routing fault on a group boundary flips two), so the entries can
  /// sum past `detected`; under the checked machines' per-block
  /// partition entry r localizes damage to block r.
  ///
  /// Naming note: this counts TRIALS (each trial contributes at most 1
  /// to entry r), while RecoveryEstimate::rail_events counts EVENTS (a
  /// trial retrying at several boundaries contributes several). The
  /// per-trial signal is rail_detected_rate(r) here; the merged
  /// per-block view of both is telemetry::RunReport's rail table.
  std::vector<std::uint64_t> rail_detected;
  /// Trials in which some registered ZeroCheck fired.
  std::uint64_t zero_check_detected = 0;

  std::uint64_t accepted() const noexcept { return trials - detected; }
  /// Sum of rail_detected[] — total per-rail attributions. Can exceed
  /// `detected` (multi-rail trials) and undershoot it (zero-check-only
  /// detections carry no rail attribution).
  std::uint64_t total_detected() const noexcept {
    std::uint64_t sum = 0;
    for (std::uint64_t r : rail_detected) sum += r;
    return sum;
  }
  std::uint64_t false_alarms() const noexcept {
    return detected - detected_failures;
  }
  /// Fraction of trials in which rail r fired — the per-rail share of
  /// the localization story (under the checked machines' per-block
  /// partition, how often block r was named the suspect). Zero for a
  /// rail index this estimate never recorded (and with no trials).
  double rail_detected_rate(std::size_t r) const noexcept {
    return trials != 0 && r < rail_detected.size()
               ? static_cast<double>(rail_detected[r]) /
                     static_cast<double>(trials)
               : 0.0;
  }
  double detected_rate() const noexcept {
    return trials ? static_cast<double>(detected) / static_cast<double>(trials)
                  : 0.0;
  }
  /// Silent failures per trial (no post-selection in the denominator).
  double silent_rate() const noexcept {
    return trials ? static_cast<double>(silent_failures) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  /// Failure rate with no post-selection: silent and detected failures
  /// both count (what an abort-unaware consumer would see).
  double raw_failure_rate() const noexcept {
    return trials ? static_cast<double>(silent_failures + detected_failures) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  /// Failure rate among accepted trials — the post-selection payoff.
  double post_selected_error_rate() const noexcept {
    const std::uint64_t a = accepted();
    return a ? static_cast<double>(silent_failures) / static_cast<double>(a)
             : 0.0;
  }
  /// Fraction of trials the post-selection keeps.
  double acceptance_rate() const noexcept {
    return trials ? static_cast<double>(accepted()) /
                        static_cast<double>(trials)
                  : 0.0;
  }
  /// Retry-cost model: a detect-and-retry consumer reruns until a
  /// trial is accepted, a geometric number of attempts with mean
  /// 1 / acceptance_rate(). Infinite when every trial aborted.
  double expected_trials_to_accept() const noexcept {
    const double a = acceptance_rate();
    return a > 0.0 ? 1.0 / a : std::numeric_limits<double>::infinity();
  }
  /// Expected checked ops spent per ACCEPTED result when each trial
  /// costs `ops_per_trial` ops — the currency that makes detection
  /// (cheap pass, pricey aborts) comparable to correction (pricey
  /// pass, no aborts).
  double expected_ops_to_accept(std::uint64_t ops_per_trial) const noexcept {
    return static_cast<double>(ops_per_trial) * expected_trials_to_accept();
  }

  /// Exact integer merge (shard combination). Per-rail counts merge
  /// element-wise; an empty vector (a default-constructed
  /// accumulator) adopts the other side's shape.
  DetectionEstimate& operator+=(const DetectionEstimate& other) {
    trials += other.trials;
    detected += other.detected;
    detected_failures += other.detected_failures;
    silent_failures += other.silent_failures;
    zero_check_detected += other.zero_check_detected;
    if (rail_detected.size() < other.rail_detected.size())
      rail_detected.resize(other.rail_detected.size(), 0);
    for (std::size_t r = 0; r < other.rail_detected.size(); ++r)
      rail_detected[r] += other.rail_detected[r];
    return *this;
  }

  bool operator==(const DetectionEstimate&) const = default;
};

namespace detail {

/// The checked walk of `state`'s every lane: the ops of
/// checked.circuit through the ideal gate kernels, each of `events`
/// (in op order, lane words of `state`) injected right after its op,
/// merged with the zero checks and rail checkpoints, routing run as
/// checked.walk's renaming. Writes the masks as
/// apply_noisy_checked_words documents. Throws revft::Error on a width
/// mismatch, on spans that do not align with the checkpoints or on a
/// stale checked.walk.
void walk_checked(PackedState& state, const CheckedCircuit& checked,
                  std::span<const FaultEvent> events, std::uint64_t* detected,
                  std::uint64_t* fired_masks);

}  // namespace detail

/// Apply checked.circuit noisily to every lane of a state of any
/// lane_words() and write the per-lane detected mask: `detected` points
/// at lane_words words, and bit t of lane word w is set when some
/// checkpoint saw a rail invariant violated in lane 64w + t, or some
/// ZeroCheck saw a nonzero bit there. `fired_masks` (nullable) points
/// at (rails.size() + 1) * lane_words words laid out rail-major —
/// fired_masks[r * lane_words + w] is rail r's fired mask for lane
/// word w, with the zero-check masks in the last slot group, so the
/// combined mask is the OR of every slot. The circuit's faults are
/// drawn first (sim.draw_faults), then walked (detail::walk_checked);
/// the RNG words consumed and the final state are those of a per-op
/// noisy walk, so the sharded determinism contract carries over. Rail
/// checkpoints are evaluated off CheckedCircuit::checkpoint_spans; a
/// circuit whose spans do not align with its checkpoints (only a
/// hand-assembled one — to_parity_rail records one per checkpoint) is
/// rejected, as is one whose WalkIndex does not match it. `sim`
/// is a PackedSimulator, or a ScriptedPass (noise/injection.h) whose
/// events are its batch's scripted faults.
template <typename Sim>
void apply_noisy_checked_words(Sim& sim, PackedState& state,
                               const CheckedCircuit& checked,
                               std::uint64_t* detected,
                               std::uint64_t* fired_masks = nullptr) {
  detail::walk_checked(state, checked,
                       sim.draw_faults(checked.circuit, checked.walk.kinds, 0,
                                       checked.circuit.size(),
                                       state.lane_words()),
                       detected, fired_masks);
}

/// The one fault walker: each scenario (data-width input) runs in its
/// own lane of the checked walk above, 64 * lane_words per batch, with
/// its faults scripted into a noiseless pass. `wrong(final_state,
/// scenario)` judges each lane's checked-width state; true counts a
/// failure, detected or silent. Throws revft::Error naming an invalid
/// scenario.
DetectionEstimate run_scripted_checked(
    const CheckedCircuit& checked, std::span<const FaultScenario> scenarios,
    unsigned lane_words,
    const std::function<bool(const StateVector&, std::size_t)>& wrong);

namespace detail {

/// The packed rail evaluator, shared by the checked and recovering
/// engines: out[w] = rail_bit's lane word w XOR the words w of
/// `group` — rail r's invariant I_r for every lane of a W-word state.
/// W is a compile-time constant, so every word loop has a fixed trip
/// count the compiler vectorizes alongside the gate kernels.
template <unsigned W>
inline void rail_invariant_words(const PackedState& state,
                                 std::uint32_t rail_bit,
                                 std::span<const std::uint32_t> group,
                                 std::uint64_t* __restrict__ out) {
  const std::uint64_t* __restrict__ rail = state.words(rail_bit);
  for (unsigned w = 0; w < W; ++w) out[w] = rail[w];
  for (const std::uint32_t bit : group) {
    const std::uint64_t* __restrict__ src = state.words(bit);
    for (unsigned w = 0; w < W; ++w) out[w] ^= src[w];
  }
}

/// The packed zero-check evaluator: out[w] = OR of the words w of
/// `bits` — the lanes in which some checked cell is nonzero.
template <unsigned W>
inline void zero_check_words(const PackedState& state,
                             std::span<const std::uint32_t> bits,
                             std::uint64_t* __restrict__ out) {
  for (unsigned w = 0; w < W; ++w) out[w] = 0;
  for (const std::uint32_t bit : bits) {
    const std::uint64_t* __restrict__ src = state.words(bit);
    for (unsigned w = 0; w < W; ++w) out[w] |= src[w];
  }
}

/// One checked batch: draw, then walk only the lanes that need it.
/// run() draws the batch's faults and walks the dirty lanes — the live
/// lanes that drew a fault; every live lane of a ScriptedPass — plus
/// the sentinel, the lowest live lane that is not dirty. Those lanes
/// are gathered into the narrowest valid width that holds them and
/// walked there, or walked in place when that is the batch's own
/// width; their detected and fired masks and final values are then
/// scattered back to their lane positions. The gather reads only the
/// cells prepare set in a walked lane, the scatter writes only the
/// cells the walk changed.
class CheckedBatchWalk {
 public:
  CheckedBatchWalk(const CheckedCircuit& checked, unsigned lane_words);

  /// Draws over the whole circuit (after prepare, so the RNG stream is
  /// that of the per-op walk) and walks; `state` then holds the final
  /// values of the walked lanes.
  template <typename Sim>
  void run(Sim& sim, PackedState& state, const LaneMask& live) {
    const std::span<const FaultEvent> events =
        sim.draw_faults(checked_.circuit, checked_.walk.kinds, 0,
                        checked_.circuit.size(), lane_words_);
    // A ScriptedPass lane is a scenario its caller judges, faulty or
    // not (a certifier's clean runs are exactly the fault-free ones);
    // only a sampled batch skips its fault-free lanes.
    LaneMask dirty = live;
    if constexpr (!std::is_same_v<Sim, ScriptedPass>) {
      dirty.clear();
      for (const FaultEvent& e : events) dirty.word(e.word) |= e.mask;
      dirty &= live;
    }
    walk(state, events, live, dirty);
  }

  /// The dirty lanes plus the sentinel: the lanes judged.
  const LaneMask& walked() const noexcept { return walked_; }
  /// Walked lanes in which some check fired.
  const LaneMask& detected() const noexcept { return detected_; }
  /// Lane word w of slot r's fired lanes (r < rails: rail r; r ==
  /// rails: the zero checks), within walked().
  std::uint64_t fired(std::size_t slot, unsigned w) const {
    return fired_[slot * lane_words_ + w];
  }
  /// Throws revft::Error naming the lane when the sentinel fired a
  /// check or is in `wrong` — the premise that lets the span loop skip
  /// the fault-free lanes does not hold.
  void check_sentinel(const LaneMask& wrong, std::uint64_t batch) const;

 private:
  void walk(PackedState& state, std::span<const FaultEvent> events,
            const LaneMask& live, const LaneMask& dirty);
  void walk_compact(PackedState& state, std::span<const FaultEvent> events,
                    unsigned compact_words);

  const CheckedCircuit& checked_;
  unsigned lane_words_;
  LaneMask walked_;
  LaneMask detected_;
  std::vector<std::uint64_t> fired_;  // fired_[slot * W + w]
  int sentinel_ = -1;
};

/// Checked counterpart of noise/monte_carlo.h's run_mc_span: identical
/// batching, lane accounting and judge (revft::detail::judge_lanes,
/// once per batch), but every trial lands in one of the four
/// DetectionEstimate buckets, each a popcount of the wrong and
/// detected masks. `sim` is a PackedSimulator, or
/// run_scripted_checked's ScriptedPass.
///
/// Which lanes are walked: prepare still fills every lane, so the RNG
/// stream is unchanged, but CheckedBatchWalk walks and the judge reads
/// only the live lanes that drew a fault and the sentinel. The others
/// tally as accepted, correct and undetected: a fault-free run of a
/// checked circuit never fires a check, and its output is the ideal
/// one. That premise is checked, not assumed: when the sentinel fires
/// a check or is judged wrong, the engine throws revft::Error. A
/// ScriptedPass batch walks and judges every scenario lane.
///
/// `trace` (nullable) receives, through telemetry::SpanEvents, the
/// per-rail fired lane masks as kRailFired events, the zero-check
/// fired masks as kZeroCheckFired events (one per nonzero lane word)
/// and one kBatchAccept per batch lane word, all at the lanes' batch
/// positions. Events fire at most once per (batch, rail, word), so the
/// stream is bounded by the batch count; the counts live in the
/// returned estimate only.
template <typename Sim, typename PrepareFn, typename ClassifyFn>
DetectionEstimate run_checked_mc_span(Sim& sim, PackedState& state,
                                      const CheckedCircuit& checked,
                                      std::uint64_t first_batch,
                                      std::uint64_t trials, PrepareFn&& prepare,
                                      ClassifyFn&& classify,
                                      telemetry::ShardTrace* trace = nullptr) {
  DetectionEstimate est;
  const std::size_t rails = checked.rails.size();
  est.rail_detected.assign(rails, 0);
  const telemetry::SpanEvents events(trace);
  const unsigned lane_words = state.lane_words();
  const std::uint64_t lanes_per_batch = 64ULL * lane_words;
  CheckedBatchWalk walk(checked, lane_words);
  const std::uint64_t batches =
      (trials + lanes_per_batch - 1) / lanes_per_batch;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::uint64_t batch = first_batch + b;
    const std::uint64_t lanes_this_batch =
        (b + 1 == batches && trials % lanes_per_batch != 0)
            ? trials % lanes_per_batch
            : lanes_per_batch;
    state.clear();
    prepare(state, sim.rng(), batch);
    const LaneMask live = LaneMask::first_n(lane_words, lanes_this_batch);
    walk.run(sim, state, live);
    const LaneMask wrong =
        revft::detail::judge_lanes(classify, state, batch, walk.walked());
    walk.check_sentinel(wrong, batch);
    const LaneMask& detected = walk.detected();
    est.trials += lanes_this_batch;
    est.detected += detected.popcount();
    est.detected_failures += (wrong & detected).popcount();
    est.silent_failures += LaneMask(wrong).remove(detected).popcount();
    if (detected.any()) {
      // Rails first, then the zero checks (slot `rails`).
      for (std::size_t r = 0; r <= rails; ++r) {
        LaneMask lanes(lane_words);
        for (unsigned w = 0; w < lane_words; ++w)
          lanes.word(w) = walk.fired(r, w);
        if (r < rails) {
          est.rail_detected[r] += lanes.popcount();
          events.emit_words(telemetry::EventKind::kRailFired, batch, lanes, 0,
                            static_cast<std::uint16_t>(r));
        } else {
          est.zero_check_detected += lanes.popcount();
          events.emit_words(telemetry::EventKind::kZeroCheckFired, batch,
                            lanes);
        }
      }
    }
    events.batch_accept(batch, LaneMask(live).remove(detected));
  }
  return est;
}

/// The checked engine's shard binding: a batch range of
/// run_checked_mc_span over `checked`.
inline auto checked_range(const CheckedCircuit& checked) {
  return [&checked](auto& s, std::uint64_t first_batch, std::uint64_t trials,
                    telemetry::ShardTrace* trace) {
    return run_checked_mc_span(s.sim, s.state, checked, first_batch, trials,
                               s.prepare_fn(), s.classify_fn(), trace);
  };
}

}  // namespace detail

/// Thread-sharded checked Monte-Carlo run: one round of the shard
/// driver. Same kernel-factory contract as run_parallel_mc (prepare
/// leaves the rail bits zero; the judge reads the lanes'
/// *outputs*) and the same determinism guarantee, now for all four
/// outcome counts — and for `trace` (nullable), absorbed in
/// shard-index order.
template <typename KernelFactory>
DetectionEstimate run_parallel_checked_mc(const CheckedCircuit& checked,
                                          const NoiseModel& model,
                                          const ParallelMcOptions& opts,
                                          KernelFactory&& factory,
                                          telemetry::Trace* trace = nullptr) {
  return revft::detail::run_rounds<DetectionEstimate>(
      model, checked.circuit.width(), opts, opts.batches_per_shard, factory,
      trace, detail::checked_range(checked), revft::detail::never_stop);
}

}  // namespace revft::detect
