// revft/noise/parallel_mc.h
//
// Thread-sharded Monte-Carlo engine: runs the per-batch loop of
// noise/monte_carlo.h (detail::run_mc_span) over fixed-size shards of
// the trial budget on a pool of worker threads.
// Its shard driver (detail::run_rounds on detail::RoundScheduler) is
// the only one: the checked and recovering engines and the streaming
// layer (telemetry/stream.h) run through it too. A full run is one
// round in which every shard runs its whole batch range; a stream is
// one batch per shard per round.
//
// Determinism contract: for a fixed (trials, seed, batches_per_shard,
// lane_words) the result is bit-identical regardless of thread count.
// This holds because
//   * the shard plan is a pure function of trials and batches_per_shard
//     (never of the thread count),
//   * each shard owns a private PackedSimulator seeded with a child
//     seed derived *in shard order* from one master Xoshiro256
//     (Xoshiro256::derive_seed, support/rng.h), and
//   * shard estimates are merged in shard-index order after all
//     workers finish (BernoulliEstimate::operator+= is exact integer
//     accumulation, so even summation order is immaterial).
//
// Because per-batch callback state (e.g. the lane-input words the
// judge compares against) must not be shared across concurrently
// running shards, the parallel engine takes a *kernel factory* rather
// than bare callables: factory(shard_index) returns a fresh kernel
// object per shard with
//   void prepare(PackedState&, Xoshiro256&, std::uint64_t batch);
// and either a word judge marking every wrong lane of the batch at once
//   void classify_words(const PackedState&, std::uint64_t, LaneMask&);
// or a per-lane one, true counting a failure
//   bool classify(const PackedState&, int lane, std::uint64_t batch);
// which detail::judge_lanes calls once per counted lane. Every span
// loop judges a batch once and tallies by popcount. The factory itself
// must be safe to invoke concurrently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "noise/monte_carlo.h"
#include "support/stats.h"

namespace revft {

struct ParallelMcOptions {
  std::uint64_t trials = 100000;
  std::uint64_t seed = 0x5eedf00dULL;
  /// Worker threads. 0 = REVFT_THREADS env var if set, else
  /// std::thread::hardware_concurrency(). The value never affects the
  /// estimate, only wall-clock time.
  int threads = 0;
  /// Shard granularity in batches of 64 * lane_words trials (16384
  /// trials per full shard at lane_words=1 by default). Part of the
  /// determinism key: changing it changes the RNG stream, changing the
  /// thread count does not.
  std::uint64_t batches_per_shard = 256;
  /// Lane words per circuit bit (noise/lanes.h): each batch simulates
  /// 64 * lane_words trials. Joins batches_per_shard in the
  /// determinism key — changing it changes the stream; 1 reproduces
  /// the legacy 64-lane engine bit for bit.
  unsigned lane_words = 1;
};

/// One unit of work: a contiguous batch range with its own child seed.
struct McShard {
  std::uint64_t index = 0;        ///< position in the plan (merge order)
  std::uint64_t first_batch = 0;  ///< global index of the first batch
  std::uint64_t trials = 0;       ///< trials covered by this shard
  std::uint64_t seed = 0;         ///< child seed for the shard's simulator
};

/// Deterministic shard decomposition of `trials`: every shard spans
/// `batches_per_shard` batches of 64 * lane_words trials (the last may
/// be short, including a partial final batch), and shard seeds are
/// drawn in order from a master Xoshiro256 seeded with `master_seed`.
/// The plan is a pure function of (trials, master_seed,
/// batches_per_shard, lane_words) — never of the thread count.
std::vector<McShard> plan_shards(std::uint64_t trials, std::uint64_t master_seed,
                                 std::uint64_t batches_per_shard,
                                 unsigned lane_words = 1);

/// `requested` if > 0; else the REVFT_THREADS env var if set and > 0;
/// else std::thread::hardware_concurrency() (at least 1). The variable
/// takes a whole decimal or 0x hex count (support/mathutil's
/// parse_u64); anything else, or a count above INT_MAX, throws
/// revft::Error naming it.
int resolve_thread_count(int requested);

namespace detail {

/// The one worker pool. The coordinating thread works each round
/// alongside threads - 1 helpers; all of them drain the job list
/// through a work-stealing counter (job ASSIGNMENT is
/// nondeterministic, but each job writes only its own slot). Helpers
/// are spawned straight into the first round and sleep at a two-phase
/// barrier between rounds; a round marked `last` is joined by joining
/// them, so a one-round run costs a spawn and a join, nothing more.
/// Job exceptions are captured per job index and the lowest-index one
/// is rethrown on the coordinator. With fewer than 2 effective
/// workers there is no pool and run_round executes inline, in order.
class RoundScheduler {
 public:
  /// `jobs` is fixed for the scheduler's lifetime (one per shard);
  /// `threads` < 1 means 1, and never more than `jobs` work at once.
  RoundScheduler(std::size_t jobs, int threads);
  ~RoundScheduler();
  RoundScheduler(const RoundScheduler&) = delete;
  RoundScheduler& operator=(const RoundScheduler&) = delete;

  /// Run fn(i) for every i in [0, jobs); returns when all are done.
  /// A `last` round ends by joining the helpers instead of parking
  /// them (a later round would spawn them again).
  void run_round(const std::function<void(std::size_t)>& fn,
                 bool last = false);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;  ///< null → inline execution
  std::size_t jobs_;
};

/// A kernel's judge as the span loops take it: its classify_words when
/// it has one, else its per-lane classify (judge_lanes adapts it).
template <typename Kernel>
auto kernel_classify(Kernel& k) {
  if constexpr (requires(const PackedState& s, LaneMask& wrong) {
                  k.classify_words(s, std::uint64_t{0}, wrong);
                })
    return [&k](const PackedState& s, std::uint64_t batch, LaneMask& wrong) {
      k.classify_words(s, batch, wrong);
    };
  else
    return [&k](const PackedState& s, int lane, std::uint64_t batch) {
      return k.classify(s, lane, batch);
    };
}

/// What every engine binds per shard: a simulator seeded with the
/// shard's child seed, its lane state, and the factory's kernel. The
/// kernel is initialized straight from factory(shard.index), so it
/// need not be movable.
template <typename Kernel>
struct ShardState {
  PackedSimulator sim;
  PackedState state;
  Kernel kernel;

  template <typename KernelFactory>
  ShardState(const NoiseModel& model, const McShard& shard,
             std::uint32_t width, unsigned lane_words, KernelFactory& factory)
      : sim(model, shard.seed),
        state(width, lane_words),
        kernel(factory(shard.index)) {}

  /// The kernel as the span functions' prepare / judge callables.
  auto prepare_fn() {
    return [this](PackedState& s, Xoshiro256& rng, std::uint64_t batch) {
      kernel.prepare(s, rng, batch);
    };
  }
  auto classify_fn() { return kernel_classify(kernel); }
};

/// Round observer of a full run: never stops.
inline constexpr auto never_stop = [](std::uint64_t, const auto&) {
  return false;
};

/// The one shard driver behind every engine entry point. Plans the
/// shards from `opts` and runs them in rounds on one RoundScheduler:
/// each round, every shard with batches left runs its next
/// `batches_per_round` through run_range(state, first_batch, trials,
/// shard_trace) -> Estimate; the deltas fold into the total in
/// shard-index order, then on_round(round, total) may stop the run.
/// A shard's ShardState is built in its job on its first round, kept
/// across rounds (so its RNG stream is the same at every round width)
/// and released when the shard drains, so a full run holds at most
/// `threads` live states. Exceptions are rethrown on the caller,
/// lowest shard index first.
template <typename Estimate, typename KernelFactory, typename RunRange,
          typename OnRound>
Estimate run_rounds(const NoiseModel& model, std::uint32_t width,
                    const ParallelMcOptions& opts,
                    std::uint64_t batches_per_round, KernelFactory&& factory,
                    telemetry::Trace* trace, RunRange&& run_range,
                    OnRound&& on_round) {
  using State = ShardState<decltype(factory(std::uint64_t{0}))>;
  const std::vector<McShard> shards = plan_shards(
      opts.trials, opts.seed, opts.batches_per_shard, opts.lane_words);
  Estimate total{};
  if (shards.empty()) return total;

  // One ShardTrace per shard, written only by that shard's job and
  // absorbed in shard-index order after the last round.
  std::vector<telemetry::ShardTrace> shard_traces;
  if (trace != nullptr) shard_traces = trace->make_shards(shards.size());
  const std::uint64_t trials_per_round =
      batches_per_round * 64ULL * opts.lane_words;
  std::uint64_t rounds = 0;
  for (const McShard& s : shards)
    rounds = std::max(rounds,
                      (s.trials + trials_per_round - 1) / trials_per_round);

  std::vector<std::unique_ptr<State>> states(shards.size());
  std::vector<Estimate> deltas(shards.size());
  RoundScheduler scheduler(shards.size(), resolve_thread_count(opts.threads));
  std::uint64_t round = 0;
  const std::function<void(std::size_t)> job = [&](std::size_t i) {
    const McShard& shard = shards[i];
    const std::uint64_t done = round * trials_per_round;
    if (done >= shard.trials) {
      deltas[i] = Estimate{};  // shard already drained
      return;
    }
    const std::uint64_t trials = std::min(trials_per_round, shard.trials - done);
    if (states[i] == nullptr)
      states[i] = std::make_unique<State>(model, shard, width, opts.lane_words,
                                          factory);
    deltas[i] = run_range(*states[i],
                          shard.first_batch + round * batches_per_round, trials,
                          trace != nullptr ? &shard_traces[i] : nullptr);
    if (done + trials == shard.trials) states[i].reset();
  };
  for (; round < rounds; ++round) {
    scheduler.run_round(job, round + 1 == rounds);
    for (const Estimate& d : deltas) total += d;
    if (on_round(round, std::as_const(total))) break;
  }
  if (trace != nullptr) trace->absorb(shard_traces);
  return total;
}

/// The plain engine's shard binding: a batch range of run_mc_span
/// over `circuit`.
inline auto mc_range(const Circuit& circuit) {
  return [&circuit](auto& s, std::uint64_t first_batch, std::uint64_t trials,
                    telemetry::ShardTrace* trace) {
    return run_mc_span(s.sim, s.state, circuit, first_batch, trials,
                       s.prepare_fn(), s.classify_fn(), trace);
  };
}

}  // namespace detail

/// Thread-sharded Monte-Carlo run: one round of the shard driver, each
/// shard running its whole batch range. See the file comment for the
/// kernel-factory contract and the determinism guarantee. `trace`
/// (nullable) collects per-shard telemetry, absorbed in shard-index
/// order — the event stream inherits the bit-identical-
/// across-REVFT_THREADS guarantee.
template <typename KernelFactory>
BernoulliEstimate run_parallel_mc(const Circuit& circuit,
                                  const NoiseModel& model,
                                  const ParallelMcOptions& opts,
                                  KernelFactory&& factory,
                                  telemetry::Trace* trace = nullptr) {
  return detail::run_rounds<BernoulliEstimate>(
      model, circuit.width(), opts, opts.batches_per_shard, factory, trace,
      detail::mc_range(circuit), detail::never_stop);
}

/// Adapts bare prepare / per-lane classify callables into a kernel
/// factory: each shard receives its own *copies*, so state captured by
/// value is private per shard. Captures by reference must be either
/// immutable or externally synchronized.
template <typename PrepareFn, typename ClassifyFn>
auto per_shard_kernel(PrepareFn prepare, ClassifyFn classify) {
  struct Kernel {
    PrepareFn prepare_fn;
    ClassifyFn classify_fn;
    void prepare(PackedState& s, Xoshiro256& rng, std::uint64_t batch) {
      prepare_fn(s, rng, batch);
    }
    bool classify(const PackedState& s, int lane, std::uint64_t batch) {
      return classify_fn(s, lane, batch);
    }
  };
  return [prepare = std::move(prepare),
          classify = std::move(classify)](std::uint64_t) {
    return Kernel{prepare, classify};
  };
}

}  // namespace revft
