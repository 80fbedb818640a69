// revft/noise/monte_carlo.h
//
// The per-batch Monte-Carlo loop over the packed simulator: run a
// circuit in batches of 64 * lane_words trials, let the caller prepare
// lanes and judge outcomes, and accumulate a Bernoulli estimate
// with Wilson confidence intervals. The thread-sharded engine
// (noise/parallel_mc.h, run_parallel_mc) runs it over each shard's
// batch range; that is the entry point — a single-threaded run is
// run_parallel_mc with threads = 1.
#pragma once

#include <cstdint>
#include <type_traits>

#include "noise/packed_sim.h"
#include "support/stats.h"
#include "telemetry/trace.h"

namespace revft {

namespace detail {

/// The one batch judge of every span loop: the lanes of `lanes` whose
/// output is wrong. `classify` is a word judge, classify(state, batch,
/// wrong) marking every wrong lane at once (MachineWorkloadKernel::
/// classify_words), or a per-lane classify(state, lane, batch) -> bool,
/// true meaning "error". This is the one per-lane adaptor: it calls a
/// per-lane callable once per lane of `lanes`, in ascending lane order.
template <typename ClassifyFn>
LaneMask judge_lanes(ClassifyFn&& classify, const PackedState& state,
                     std::uint64_t batch, const LaneMask& lanes) {
  LaneMask wrong(lanes.words());
  if constexpr (std::is_invocable_v<ClassifyFn&, const PackedState&,
                                    std::uint64_t, LaneMask&>) {
    classify(state, batch, wrong);
    return wrong &= lanes;
  } else {
    for_each_lane(lanes, [&](unsigned lane) {
      if (classify(state, static_cast<int>(lane), batch)) wrong.set(lane);
    });
    return wrong;
  }
}

/// Runs ceil(trials/lanes_per_batch) batches starting at global batch
/// index `first_batch` on an existing simulator/state pair, where
/// lanes_per_batch = 64 * state.lane_words(). For each batch:
///   prepare(state, rng, batch)  — set up all lanes;
///   ... circuit applied noisily ...
///   judge_lanes(classify, ...)  — failures = popcount of wrong lanes.
/// Only the first (trials % lanes_per_batch) lanes of the last batch
/// are counted, so the estimate covers exactly `trials` trials.
///
/// `trace` (nullable) receives one kBatchAccept event per batch *lane
/// word* whose lane mask names the non-failing counted lanes of that
/// word (exactly one event per batch at lane_words=1 — the legacy
/// stream), emitted through telemetry::SpanEvents; the counts live in
/// the returned estimate only.
template <typename PrepareFn, typename ClassifyFn>
BernoulliEstimate run_mc_span(PackedSimulator& sim, PackedState& state,
                              const Circuit& circuit, std::uint64_t first_batch,
                              std::uint64_t trials, PrepareFn&& prepare,
                              ClassifyFn&& classify,
                              telemetry::ShardTrace* trace = nullptr) {
  BernoulliEstimate est;
  const telemetry::SpanEvents events(trace);
  const unsigned lane_words = state.lane_words();
  const std::uint64_t lanes_per_batch = 64ULL * lane_words;
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
    sim.apply_noisy_span(state, circuit, 0, circuit.size());
    const LaneMask live = LaneMask::first_n(lane_words, lanes_this_batch);
    const LaneMask wrong = judge_lanes(classify, state, batch, live);
    est.trials += lanes_this_batch;
    est.failures += wrong.popcount();
    events.batch_accept(batch, LaneMask(live).remove(wrong));
  }
  return est;
}

}  // namespace detail

}  // namespace revft
