// revft/recover/recovering_mc.h
//
// The measurement harness of the retry protocol: a lane-parallel
// packed Monte-Carlo engine (64 * lane_words trials per batch, see
// noise/lanes.h) in which detection FEEDS BACK into execution. Where
// detect/checked_mc.h only classifies trials (detected vs silent),
// this engine reacts per lane at every boundary:
//
//   * every trial lane runs the segment walk of recover/plan.h; at
//     each boundary the rail invariants and zero checks are evaluated
//     for all lanes at once (same word work as the checked engine);
//   * lanes whose checks fired are handled by the RetryPolicy: under
//     kBlockLocal each attempt is ONE union replay in a scratch state
//     restored from the boundary checkpoint — every component some
//     outstanding lane fired is replayed once for all lanes, a lane is
//     accepted when none of its own components re-fired, and each
//     component's accepted lanes are blended back over that
//     component's cells (components partition a segment's ops and the
//     cells their checks read, so a replay a lane does not need never
//     touches what the lane is judged or blended on); lanes that
//     exhaust local attempts (or any fired lane under kWholeProgram)
//     restart from the entry checkpoint in end-of-batch passes, and one
//     pass runs a pending lane's next attempts side by side: attempt 1
//     in its own lane, further attempts in the batch's idle lanes
//     (recover/checkpoint.h copy_lane), the first clean one in attempt
//     order moved back into the lane (move_lane);
//   * every attempt draws FRESH fault randomness from the shard's own
//     simulator stream (the per-kind Bernoulli streams just keep
//     going), so retries are real re-executions under the same noise
//     model, not re-rolls of the same faults.
//
// Every pass runs in slot space, as the checked engine's walk does
// (detect/checked_mc.h): it first draws its ops' faults
// (PackedSimulator::draw_faults over a segment's or a replay
// component's kind index, in op order — the RNG words of a per-op
// walk), then walks them with the checked engine's span walker
// (detect/slot_walk.h). Data ops run through the ideal gate kernels
// with the faults injected; SWAP and SWAP3 rename cells to slots and
// move no data. A batch's state stays in slot space from prepare to
// the judge: each rail reads its fixed slot set, each zero check its
// slots (WalkIndex::zero_bits), a replay restores and blends its
// component's footprint slots (ReplayComponent::slots), and the final
// renaming is undone once, just before the judge.
//
// Cost accounting is per trial, the way an independent physical run
// would pay: a lane is charged the segment ops it executed, the ops of
// ITS fired components on every replay attempt it consumed, and, for
// every restart attempt it consumed, that attempt's ops up to its first
// fired boundary — even though the packed vehicle executes all lanes
// together. Every op counts, routing included: the machine pays for a
// SWAP that the slot-space walk only renames. Attempts after a lane's
// first clean one are discarded uncharged, as if they had never run.
// E[ops/accept] read off a RecoveryEstimate is therefore the measured
// counterpart of detect::RetryCostModel.
//
// Determinism: all retry processing happens inside a shard using the
// shard's own simulator, each union replay runs its components in
// ascending index order, and RecoveryEstimate merges by exact integer
// sums — so the result is bit-identical for a fixed seed regardless of
// REVFT_THREADS, retries included (ctest-enforced).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "detect/rail.h"
#include "noise/injection.h"
#include "noise/parallel_mc.h"
#include "recover/plan.h"
#include "recover/retry.h"
#include "rev/simulator.h"

namespace revft::recover {

/// Batch-level callbacks, same contract as the other engines: prepare
/// fills every lane of a cleared state (rails left zero); a JudgeFn
/// marks every wrong lane of a batch's final state at once
/// (MachineWorkloadKernel::classify_words), a ClassifyFn judges one
/// lane's final output (true means wrong).
using PrepareFn =
    std::function<void(PackedState&, Xoshiro256&, std::uint64_t)>;
using JudgeFn =
    std::function<void(const PackedState&, std::uint64_t, LaneMask&)>;
using ClassifyFn =
    std::function<bool(const PackedState&, int, std::uint64_t)>;

/// The recovering counterpart of detail::run_checked_mc_span: one
/// simulator, a contiguous batch range, retries included. Out-of-line
/// (not a template) — the segment walk is involved enough that one
/// canonical definition beats inlining per kernel type. A batch is
/// judged once, at its end, over every accepted lane (first-pass and
/// restart-accepted alike) through revft::detail::judge_lanes, and
/// silent failures are that mask's popcount; `classify` is a word
/// judge or a per-lane one.
///
/// `trace` (nullable) receives the full per-boundary story through
/// telemetry::SpanEvents: kRailFired / kZeroCheckFired /
/// kCheckpointRestore / kSegmentReplay / kEscalationRestart /
/// kBatchAccept events stamped with segment and rail ids, plus a
/// replays-per-batch histogram. Each union replay emits one
/// kCheckpointRestore and one kSegmentReplay per nonzero word of its
/// outstanding-lane mask, the replay's value being the ops of the
/// components the pass replayed, routing included. Every count —
/// per-rail events, per-segment replays and replayed ops, restarts —
/// lives in the returned estimate only. Hooks
/// fire at boundary/replay granularity (never per gate); untraced,
/// each is one predictable branch.
RecoveryEstimate run_recovering_mc_span(
    PackedSimulator& sim, PackedState& state,
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::uint64_t first_batch, std::uint64_t trials,
    const PrepareFn& prepare, const JudgeFn& classify,
    telemetry::ShardTrace* trace = nullptr);
RecoveryEstimate run_recovering_mc_span(
    PackedSimulator& sim, PackedState& state,
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::uint64_t first_batch, std::uint64_t trials,
    const PrepareFn& prepare, const ClassifyFn& classify,
    telemetry::ShardTrace* trace = nullptr);

/// The repair theorem's harness: every scenario (data-width input,
/// FaultSpecs naming checked.circuit ops) runs in its own lane of the
/// same segment walk run_recovering_mc_span ships (64 * lane_words
/// scenarios per batch), on a noiseless simulator whose first pass
/// draws the scripted faults (noise/injection.h ScriptedPass, the
/// checked engine's fault walker too) in place of sampled ones — so
/// replays and restarts run fault-free, and enumerating every
/// single-fault scenario proves the MECHANISM repairs what the checks
/// detect (tests/test_recover.cpp).
/// `wrong(final_state, scenario)` is called once per accepted scenario
/// with its lane's final state (checked-circuit width); true counts a
/// silent failure. Throws revft::Error naming the scenario on an
/// invalid fault.
RecoveryEstimate run_scripted_recovering(
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::span<const FaultScenario> scenarios,
    unsigned lane_words,
    const std::function<bool(const StateVector&, std::size_t)>& wrong);

namespace detail {

/// The recovering engine's shard binding: a batch range of
/// run_recovering_mc_span. The shard's child seed drives both the
/// first pass and every retry it spawns.
inline auto recovering_range(const detect::CheckedCircuit& checked,
                             const SegmentPlan& plan,
                             const RetryPolicy& policy) {
  return [&checked, &plan, &policy](auto& s, std::uint64_t first_batch,
                                    std::uint64_t trials,
                                    telemetry::ShardTrace* trace) {
    return run_recovering_mc_span(s.sim, s.state, checked, plan, policy,
                                  first_batch, trials, s.prepare_fn(),
                                  s.classify_fn(), trace);
  };
}

}  // namespace detail

/// Thread-sharded recovering Monte-Carlo run: one round of the shard
/// driver. Same kernel-factory contract as run_parallel_mc /
/// run_parallel_checked_mc; the determinism guarantee covers the whole
/// protocol — and, via the shard-index-order absorb, the telemetry
/// stream of `trace` (nullable) as well.
template <typename KernelFactory>
RecoveryEstimate run_parallel_recovering_mc(
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, const NoiseModel& model,
    const ParallelMcOptions& opts, KernelFactory&& factory,
    telemetry::Trace* trace = nullptr) {
  return revft::detail::run_rounds<RecoveryEstimate>(
      model, checked.circuit.width(), opts, opts.batches_per_shard, factory,
      trace, detail::recovering_range(checked, plan, policy),
      revft::detail::never_stop);
}

}  // namespace revft::recover
