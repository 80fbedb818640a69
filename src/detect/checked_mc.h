// revft/detect/checked_mc.h
//
// Online error detection inside the packed Monte-Carlo engine. A
// checked batch runs in two steps: draw, then walk.
//
//   draw — where a trial faults with chance q <= 1/2 (the sparse
//          regime, detail::FirstFaultLaw), the batch's faulty lanes
//          are drawn first, each with its first fault forced and the
//          simulator's faults after it, and only they and one sentinel
//          lane are prepared, on a compact state of the narrowest width
//          that holds them (detail::CheckedBatchWalk); the other lanes
//          drew no fault and are never prepared or walked. Otherwise the
//          simulator draws the whole batch's gate failures up front
//          (PackedSimulator::draw_faults: the RNG words and order of a
//          per-op noisy walk; a ScriptedPass hands over its scripted
//          faults in the same FaultEvent shape).
//   walk — the ideal gate kernels run with the events injected,
//          routing folded into a renaming of cells to slots
//          (WalkIndex, detect/rail.h), merged with the checks: at
//          every recorded checkpoint every rail invariant
//          I_r = rail_r ^ XOR(group_r), on the rail's fixed slot
//          set, is evaluated for all lanes
//          at once — one word XOR per group member plus one OR into
//          the running `detected` mask, so a full partition's
//          checkpoint costs the same word work as the classic
//          single rail (the groups tile the data bits), and the
//          per-rail fired masks come out as a byproduct.
//
// The sparse regime rests on a contract of every prepare callback:
// each lane's input is i.i.d. and does not depend on the lane's
// position, so the compact lanes' inputs have the law of the batch's.
//
// The rail and zero-check evaluators (detail::rail_invariant_words,
// detail::zero_check_words) are the only packed ones; the recovering
// engine calls them too, and walks every pass in slot space with the
// same span walker (detect/slot_walk.h).
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

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
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
/// mismatch; its callers check checked.walk (check_walk_index).
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
/// noisy walk, so the sharded determinism contract carries over. At
/// every checkpoint each rail is evaluated on its fixed slot set (its
/// rail bit and entry group, WalkIndex); a circuit whose index does
/// not match it (a hand-assembled one that never ran index_walk) is
/// rejected (check_walk_index). `sim`
/// is a PackedSimulator, or a ScriptedPass (noise/injection.h) whose
/// events are its batch's scripted faults.
template <typename Sim>
void apply_noisy_checked_words(Sim& sim, PackedState& state,
                               const CheckedCircuit& checked,
                               std::uint64_t* detected,
                               std::uint64_t* fired_masks = nullptr) {
  check_walk_index(checked, "apply_noisy_checked_words");
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

/// A trial's first fault on a checked circuit under a model: q(), the
/// chance that some op fails, 1 - prod(1 - p_op), and draw(), the op of
/// the first failure given that there is one, from
/// P(j) = p_j prod_{i<j} (1 - p_i) / q. Built per span call in
/// O(kinds) from the model and the walk index's per-kind prefix counts
/// (WalkIndex::kinds_before); a draw is one binary search, O(log ops).
class FirstFaultLaw {
 public:
  FirstFaultLaw(const WalkIndex& walk, const NoiseModel& model);

  double q() const noexcept { return q_; }
  /// The first faulty op of each of up to 64 * kMaxLaneWords trials,
  /// by inverse CDF at u[k], uniform in [0, 1), into first[k].
  /// Requires q() > 0.
  void draw(std::span<const double> u, std::uint32_t* first) const;

 private:
  /// -ln of the chance that no op before op i fails.
  double hazard_before(std::size_t i) const;

  struct Other {
    std::uint32_t column;  // in WalkIndex::kinds_before
    double hazard;
  };

  const WalkIndex& walk_;
  std::size_t used_;
  // -ln(1 - p) of the kind with the most ops, and of every used kind
  // whose rate differs from it.
  double base_hazard_ = 0.0;
  std::array<Other, kNumGateKinds> others_{};
  std::size_t n_others_ = 0;
  double below_total_ = 0.0;  // the double below hazard_before(ops)
  double q_ = 0.0;
};

/// One checked batch, walked one of two ways.
///
///   every lane — walk_every_lane walks the whole batch state with the
///     batch's drawn (or scripted) faults. Every live lane is judged.
///   faulty lanes — where a trial faults with chance q <= 1/2: the
///     faulty lanes are drawn first (draw_lanes), Bernoulli(q) over the
///     live lanes, and they and the sentinel, the lowest live lane
///     that is not faulty, become the lanes of a compact state of the
///     narrowest width that holds them, in batch-lane order. The
///     caller prepares that state. draw_first_faults forces each
///     faulty lane's first fault (FirstFaultLaw, with fresh operand
///     bits); walk_faulty adds the simulator's faults that fall after
///     it and walks. Only the compact lanes are judged; at_batch maps
///     their masks back to their batch positions. The other live lanes
///     drew no fault.
///
/// Lane masks read in the walked state's lanes: the batch's in the
/// first way, the compact state's in the second.
class CheckedBatchWalk {
 public:
  CheckedBatchWalk(const CheckedCircuit& checked, unsigned lane_words);

  void walk_every_lane(PackedState& state, const LaneMask& live,
                       std::span<const FaultEvent> events);

  /// Draws the faulty lanes among `live`, the batch's first lanes, and
  /// returns the compact state, cleared.
  PackedState& draw_lanes(Xoshiro256& rng, double q, const LaneMask& live);
  void draw_first_faults(Xoshiro256& rng, const FirstFaultLaw& law);
  /// `stream`: the simulator's faults over the whole circuit, drawn at
  /// the compact width.
  void walk_faulty(std::span<const FaultEvent> stream);

  /// The lanes judged: the live lanes, or the faulty lanes and the
  /// sentinel.
  const LaneMask& judged() const noexcept { return judged_; }
  /// Judged lanes in which some check fired.
  const LaneMask& detected() const noexcept { return detected_; }
  /// Slot r's fired lanes (r < rails: rail r; r == rails: the zero
  /// checks), within judged().
  LaneMask fired(std::size_t slot) const;
  /// A mask over the walked lanes at the lanes' batch positions.
  LaneMask at_batch(const LaneMask& walked) const;
  /// Throws revft::Error naming the lane when the sentinel fired a
  /// check or is in `wrong` — the premise that lets the span loop skip
  /// the fault-free lanes does not hold.
  void check_sentinel(const LaneMask& wrong, std::uint64_t batch) const;

 private:
  void walk(PackedState& state, std::span<const FaultEvent> events);

  const CheckedCircuit& checked_;
  unsigned lane_words_;
  unsigned walk_words_;  // lane words of the walked state
  LaneMask judged_;
  LaneMask detected_;
  std::vector<std::uint64_t> fired_;  // fired_[slot * walk_words_ + w]
  // The faulty-lane way: the compact state (null in the every-lane
  // way), the batch lanes walked, the faulty compact lanes with each
  // one's first faulty op, the sentinel (-1 for none; its compact lane
  // is its batch lane), the forced first faults and the merged event
  // list, and one compact state per width.
  PackedState* compact_ = nullptr;
  LaneMask batch_lanes_;
  LaneMask faulty_;
  std::array<std::uint32_t, 64 * kMaxLaneWords> first_op_{};
  int sentinel_ = -1;
  std::vector<FaultEvent> forced_;
  std::vector<FaultEvent> events_;
  std::array<std::unique_ptr<PackedState>, 4> states_;  // by log2 width
};

/// Checked counterpart of noise/monte_carlo.h's run_mc_span: identical
/// batching, lane accounting and judge (revft::detail::judge_lanes,
/// once per batch), but every trial lands in one of the four
/// DetectionEstimate buckets, each a popcount of the wrong and
/// detected masks. `sim` is a PackedSimulator, or
/// run_scripted_checked's ScriptedPass.
///
/// Which lanes are walked (CheckedBatchWalk): on a PackedSimulator
/// whose trials fault with chance q <= 1/2 (FirstFaultLaw), a batch
/// draws its faulty lanes first, Bernoulli(q) each, and prepares,
/// walks and judges only them and a sentinel lane, on a compact state
/// of the narrowest width that holds them. Each faulty lane's first
/// fault is drawn from its law given that there is one, and the
/// simulator's faults after it follow; that is the law of the direct
/// draw, conditioned. The other live lanes tally as accepted, correct
/// and undetected: a fault-free run of a checked circuit never fires a
/// check, and its output is the ideal one. That premise is checked, not
/// assumed: when the sentinel, walked in every batch, fires a check or
/// is judged wrong, the engine throws revft::Error. Above q = 1/2 the
/// faulty lanes would fill most of the batch; there, and for a
/// ScriptedPass, every lane is prepared, drawn, walked and judged at
/// the batch width.
///
/// The faulty-lane way relies on a contract of `prepare`: each lane's
/// input is i.i.d. and does not depend on the lane's position, so a
/// compact lane's input has the law of any batch lane's (every kernel
/// in the tree draws its inputs as lane-parallel rng words). Its RNG
/// stream differs from the every-lane one, so its estimates match
/// that way's in law, not bit for bit.
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
  check_walk_index(checked, "run_checked_mc_span");
  CheckedBatchWalk walk(checked, lane_words);
  std::optional<FirstFaultLaw> law;
  if constexpr (std::is_same_v<Sim, PackedSimulator>) {
    law.emplace(checked.walk, sim.model());
    if (law->q() > 0.5) law.reset();
  }
  const auto draw = [&](unsigned words) {
    return sim.draw_faults(checked.circuit, checked.walk.kinds, 0,
                           checked.circuit.size(), words);
  };
  const std::uint64_t batches =
      (trials + lanes_per_batch - 1) / lanes_per_batch;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::uint64_t batch = first_batch + b;
    const std::uint64_t lanes_this_batch =
        (b + 1 == batches && trials % lanes_per_batch != 0)
            ? trials % lanes_per_batch
            : lanes_per_batch;
    const LaneMask live = LaneMask::first_n(lane_words, lanes_this_batch);
    PackedState* walked = &state;
    if (law) {
      walked = &walk.draw_lanes(sim.rng(), law->q(), live);
      prepare(*walked, sim.rng(), batch);
      walk.draw_first_faults(sim.rng(), *law);
      walk.walk_faulty(draw(walked->lane_words()));
    } else {
      state.clear();
      prepare(state, sim.rng(), batch);
      walk.walk_every_lane(state, live, draw(lane_words));
    }
    const LaneMask wrong =
        revft::detail::judge_lanes(classify, *walked, batch, walk.judged());
    walk.check_sentinel(wrong, batch);
    const LaneMask& detected = walk.detected();
    est.trials += lanes_this_batch;
    est.detected += detected.popcount();
    est.detected_failures += (wrong & detected).popcount();
    est.silent_failures += LaneMask(wrong).remove(detected).popcount();
    if (detected.any()) {
      // Rails first, then the zero checks (slot `rails`).
      for (std::size_t r = 0; r <= rails; ++r) {
        const LaneMask lanes = walk.fired(r);
        (r < rails ? est.rail_detected[r] : est.zero_check_detected) +=
            lanes.popcount();
        if (events.on())
          events.emit_words(r < rails ? telemetry::EventKind::kRailFired
                                      : telemetry::EventKind::kZeroCheckFired,
                            batch, walk.at_batch(lanes), 0,
                            static_cast<std::uint16_t>(r < rails ? r : 0));
      }
    }
    if (events.on())
      events.batch_accept(batch,
                          LaneMask(live).remove(walk.at_batch(detected)));
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
