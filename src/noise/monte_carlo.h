// revft/noise/monte_carlo.h
//
// The per-batch Monte-Carlo loop over the packed simulator: run a
// circuit in batches of 64 * lane_words trials, let the caller prepare
// lanes and classify outcomes, and accumulate a Bernoulli estimate
// with Wilson confidence intervals. The thread-sharded engine
// (noise/parallel_mc.h, run_parallel_mc) runs it over each shard's
// batch range; that is the entry point — a single-threaded run is
// run_parallel_mc with threads = 1.
#pragma once

#include <cstdint>

#include "noise/packed_sim.h"
#include "support/stats.h"
#include "telemetry/trace.h"

namespace revft {

namespace detail {

/// Runs ceil(trials/lanes_per_batch) batches starting at global batch
/// index `first_batch` on an existing simulator/state pair, where
/// lanes_per_batch = 64 * state.lane_words(). For each batch:
///   prepare(state, rng, batch)           — set up all lanes;
///   ... circuit applied noisily ...
///   classify(state, lane, batch) -> bool — true means "error".
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
    const int lanes_this_batch =
        (b + 1 == batches && trials % lanes_per_batch != 0)
            ? static_cast<int>(trials % lanes_per_batch)
            : static_cast<int>(lanes_per_batch);
    state.clear();
    prepare(state, sim.rng(), batch);
    sim.apply_noisy(state, circuit);
    LaneMask ok = LaneMask::first_n(
        lane_words, static_cast<std::uint64_t>(lanes_this_batch));
    for (int lane = 0; lane < lanes_this_batch; ++lane) {
      ++est.trials;
      if (classify(state, lane, batch)) {
        ++est.failures;
        ok.reset(static_cast<unsigned>(lane));
      }
    }
    events.batch_accept(batch, ok);
  }
  return est;
}

}  // namespace detail

}  // namespace revft
