#include "noise/parallel_mc.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>

#include "support/error.h"
#include "support/mathutil.h"
#include "support/rng.h"

namespace revft {

std::vector<McShard> plan_shards(std::uint64_t trials, std::uint64_t master_seed,
                                 std::uint64_t batches_per_shard,
                                 unsigned lane_words) {
  REVFT_CHECK_MSG(batches_per_shard >= 1,
                  "plan_shards: batches_per_shard=" << batches_per_shard);
  REVFT_CHECK_MSG(valid_lane_words(lane_words),
                  "plan_shards: lane_words=" << lane_words);
  std::vector<McShard> shards;
  if (trials == 0) return shards;
  const std::uint64_t trials_per_shard = batches_per_shard * 64 * lane_words;
  const std::uint64_t count = (trials + trials_per_shard - 1) / trials_per_shard;
  shards.reserve(count);
  Xoshiro256 master(master_seed);
  for (std::uint64_t i = 0; i < count; ++i) {
    McShard shard;
    shard.index = i;
    shard.first_batch = i * batches_per_shard;
    const std::uint64_t first_trial = i * trials_per_shard;
    shard.trials = std::min(trials_per_shard, trials - first_trial);
    shard.seed = master.derive_seed();
    shards.push_back(shard);
  }
  return shards;
}

int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("REVFT_THREADS")) {
    const auto parsed = parse_u64(env);
    REVFT_CHECK_MSG(parsed && *parsed <= std::numeric_limits<int>::max(),
                    "REVFT_THREADS=\"" << env
                                       << "\": want a whole decimal or 0x hex "
                                          "worker count (0 = hardware)");
    if (*parsed > 0) return static_cast<int>(*parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

namespace detail {

struct RoundScheduler::Impl {
  std::size_t jobs;
  std::size_t helpers;  ///< pool threads; the coordinator works too
  /// Two-phase handshake, helpers + coordinator on both barriers:
  /// `start` releases a round, `done` joins it. A last round is joined
  /// by joining the threads instead. Nobody skips a phase — exceptions
  /// are captured per job, so arrive counts stay consistent no matter
  /// what fn throws.
  std::barrier<> start;
  std::barrier<> done;
  std::atomic<std::size_t> next{0};
  const std::function<void(std::size_t)>* fn = nullptr;
  std::vector<std::exception_ptr> errors;
  bool last = false;  ///< written before a round's release
  bool quit = false;  ///< read after `start` — the barrier orders it
  std::vector<std::thread> pool;

  Impl(std::size_t jobs_in, std::size_t helpers_in)
      : jobs(jobs_in),
        helpers(helpers_in),
        start(static_cast<std::ptrdiff_t>(helpers_in + 1)),
        done(static_cast<std::ptrdiff_t>(helpers_in + 1)),
        errors(jobs_in) {}

  void drain() {
    for (std::size_t i = next.fetch_add(1); i < jobs; i = next.fetch_add(1)) {
      try {
        (*fn)(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  }

  void helper() {
    for (;;) {
      drain();
      if (last) return;
      done.arrive_and_wait();
      start.arrive_and_wait();
      if (quit) return;
    }
  }
};

RoundScheduler::RoundScheduler(std::size_t jobs, int threads) : jobs_(jobs) {
  const std::size_t workers = std::min<std::size_t>(
      threads < 1 ? 1 : static_cast<std::size_t>(threads), jobs);
  // A single worker gains nothing over the coordinator doing the work
  // itself; only build the pool when there is real parallelism.
  if (workers >= 2) impl_ = std::make_unique<Impl>(jobs, workers - 1);
}

RoundScheduler::~RoundScheduler() {
  if (impl_ == nullptr || impl_->pool.empty()) return;
  impl_->quit = true;
  impl_->start.arrive_and_wait();  // release helpers into the quit check
  for (std::thread& t : impl_->pool) t.join();
}

void RoundScheduler::run_round(const std::function<void(std::size_t)>& fn,
                               bool last) {
  if (impl_ == nullptr) {
    for (std::size_t i = 0; i < jobs_; ++i) fn(i);
    return;
  }
  Impl& im = *impl_;
  im.fn = &fn;
  im.next.store(0);
  im.last = last;
  std::fill(im.errors.begin(), im.errors.end(), std::exception_ptr{});
  if (im.pool.empty()) {
    // First round: the helpers start on it as they are spawned.
    im.pool.reserve(im.helpers);
    for (std::size_t t = 0; t < im.helpers; ++t)
      im.pool.emplace_back([&im] { im.helper(); });
  } else {
    im.start.arrive_and_wait();
  }
  im.drain();
  if (last) {
    for (std::thread& t : im.pool) t.join();
    im.pool.clear();
  } else {
    im.done.arrive_and_wait();
  }
  for (const std::exception_ptr& e : im.errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace detail

}  // namespace revft
