// revft/telemetry/stream.h
//
// Streaming observation layer over the thread-sharded Monte-Carlo
// engines: run the SAME shard driver as run_parallel_mc /
// run_parallel_checked_mc / run_parallel_recovering_mc
// (noise/parallel_mc.h), but one batch per shard per ROUND instead of
// one round of whole shards, with the partial estimates merged in
// shard-index order at every round boundary. Each boundary yields a
// ConvergenceSnapshot (rate + Wilson half-width of the engine's
// headline estimate), feeds the live on_snapshot callback, and
// evaluates the EarlyStopPolicy. The price is one pool barrier per
// batch (perfbench's telemetry.round_p50_us and pool_efficiency report
// it), so the one-round full run stays the way to spend a whole budget.
//
// Determinism: each shard's simulator persists across rounds, so a
// no-stop streaming run reproduces the full run's estimate bit for
// bit (ctest-pinned). Snapshots exist only at merged round boundaries
// and the merge order is fixed, so the snapshot series, the stop
// decision, and therefore the stopped estimate (trials consumed,
// failures, rail counters — everything) are bit-identical across
// REVFT_THREADS (ctest-enforced across {1,3,8}). Wall-clock is
// confined to WallProfile — every run records one round duration per
// snapshot there — which deterministic_equal ignores.
//
// The headline estimate each engine converges on:
//   plain       failures / trials            (logical error rate)
//   checked     silent_failures / accepted() (post-selected quality)
//   recovering  silent_failures / accepted   (delivered-output quality)
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>

#include "detect/checked_mc.h"
#include "noise/parallel_mc.h"
#include "recover/recovering_mc.h"
#include "telemetry/convergence.h"
#include "telemetry/trace.h"

namespace revft::telemetry {

/// Configuration of one streaming run. `mc.trials` is the trial BUDGET
/// (the ceiling an early stop saves against); the other mc fields are
/// the usual determinism key. A default EarlyStopPolicy never stops —
/// the run streams snapshots but consumes the whole budget, exactly
/// reproducing the non-streaming engines.
struct StreamOptions {
  ParallelMcOptions mc;
  EarlyStopPolicy stop;
  /// Artifact name for CONV_<name>.json (the caller decides whether to
  /// write it; the runner only fills the trajectory).
  std::string name = "stream";
  /// Live progress hook, invoked on the coordinating thread after
  /// every merged round with the freshly recorded snapshot (==
  /// trajectory.snapshots.back()). Must not mutate the trajectory.
  std::function<void(const ConvergenceSnapshot&,
                     const ConvergenceTrajectory&)>
      on_snapshot;
};

/// A streaming run's outcome: the engine's full estimate (stopped or
/// exhausted) plus the convergence trajectory that led there.
template <typename Estimate>
struct StreamResult {
  Estimate estimate{};
  ConvergenceTrajectory trajectory;

  StopReason stop_reason() const noexcept { return trajectory.stop_reason; }
  bool stopped_early() const noexcept { return trajectory.stopped_early(); }
};

/// The headline BernoulliEstimate a streaming run converges on, per
/// engine (see file comment). Overload resolution picks the right one
/// inside the generic round loop.
inline BernoulliEstimate headline_estimate(
    const BernoulliEstimate& est) noexcept {
  return est;
}
inline BernoulliEstimate headline_estimate(
    const detect::DetectionEstimate& est) noexcept {
  return {est.silent_failures, est.accepted()};
}
inline BernoulliEstimate headline_estimate(
    const recover::RecoveryEstimate& est) noexcept {
  return {est.silent_failures, est.accepted};
}

namespace detail {

/// The one streaming loop: runs an engine's shard binding `run_range`
/// through revft::detail::run_rounds at one batch per shard per round,
/// and at every merged boundary records the snapshot, fires
/// on_snapshot and evaluates the stop policy.
template <typename Estimate, typename KernelFactory, typename RunRange>
StreamResult<Estimate> run_streaming_rounds(const char* engine,
                                            const StreamOptions& opts,
                                            const NoiseModel& model,
                                            std::uint32_t width,
                                            KernelFactory&& factory,
                                            Trace* trace, RunRange&& run_range) {
  using Clock = std::chrono::steady_clock;
  StreamResult<Estimate> result;
  ConvergenceTrajectory& traj = result.trajectory;
  traj.name = opts.name;
  traj.engine = engine;
  traj.key = {opts.mc.trials, opts.mc.seed, opts.mc.batches_per_shard,
              opts.mc.lane_words};
  traj.policy = opts.stop;

  Clock::time_point t0 = Clock::now();
  result.estimate = revft::detail::run_rounds<Estimate>(
      model, width, opts.mc, 1, factory, trace,
      std::forward<RunRange>(run_range),
      [&](std::uint64_t round, const Estimate& total) {
        traj.wall.round_seconds.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
        const BernoulliEstimate headline = headline_estimate(total);
        traj.record(round, total.trials, headline);
        if (opts.on_snapshot) opts.on_snapshot(traj.snapshots.back(), traj);
        traj.stop_reason = decide_stop(opts.stop, total.trials, headline);
        t0 = Clock::now();
        return traj.stop_reason != StopReason::kNone;
      });
  if (traj.stop_reason == StopReason::kNone)
    traj.stop_reason = StopReason::kExhausted;
  return result;
}

}  // namespace detail

/// Streaming counterpart of run_parallel_mc: same kernel-factory
/// contract, same determinism key, plus the convergence trajectory.
/// With a never-firing policy the estimate equals run_parallel_mc's
/// bit for bit.
template <typename KernelFactory>
StreamResult<BernoulliEstimate> run_streaming_mc(
    const Circuit& circuit, const NoiseModel& model, const StreamOptions& opts,
    KernelFactory&& factory, Trace* trace = nullptr) {
  return detail::run_streaming_rounds<BernoulliEstimate>(
      "plain", opts, model, circuit.width(), factory, trace,
      revft::detail::mc_range(circuit));
}

/// Streaming counterpart of run_parallel_checked_mc. The headline the
/// policy watches is the POST-SELECTED silent rate (silent_failures /
/// accepted); all four outcome counts and the per-rail counters land
/// in the stopped estimate with the same bit-identity guarantee.
template <typename KernelFactory>
StreamResult<detect::DetectionEstimate> run_streaming_checked_mc(
    const detect::CheckedCircuit& checked, const NoiseModel& model,
    const StreamOptions& opts, KernelFactory&& factory,
    Trace* trace = nullptr) {
  return detail::run_streaming_rounds<detect::DetectionEstimate>(
      "checked", opts, model, checked.circuit.width(), factory, trace,
      detect::detail::checked_range(checked));
}

/// Streaming counterpart of run_parallel_recovering_mc: the retry
/// protocol (replays, restarts, cost accounting) runs inside each
/// batch exactly as in the full-span engine, so streaming changes
/// nothing about the protocol — only where the observer stands.
template <typename KernelFactory>
StreamResult<recover::RecoveryEstimate> run_streaming_recovering_mc(
    const detect::CheckedCircuit& checked, const recover::SegmentPlan& plan,
    const recover::RetryPolicy& policy, const NoiseModel& model,
    const StreamOptions& opts, KernelFactory&& factory,
    Trace* trace = nullptr) {
  return detail::run_streaming_rounds<recover::RecoveryEstimate>(
      "recovering", opts, model, checked.circuit.width(), factory, trace,
      recover::detail::recovering_range(checked, plan, policy));
}

}  // namespace revft::telemetry
