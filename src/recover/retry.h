// revft/recover/retry.h
//
// Retry policies and the exact outcome accounting of a recovering run.
// This is where PR 4's retry-cost MODEL (detect/retry_model.h) becomes
// a mechanism with measured numbers:
//
//   kNoRetry       — abort-and-discard (post-selection): a fired check
//                    ends the trial at that boundary; nothing replays.
//                    The measured baseline the geometric model prices.
//   kWholeProgram  — roll back to the entry checkpoint and re-run the
//                    whole program on the same inputs with fresh fault
//                    randomness, up to max_program_attempts.
//   kBlockLocal    — roll back to the LAST ACCEPTED boundary, restore
//                    only the fired rails' replay components (see
//                    recover/plan.h) and re-run just their ops, up to
//                    max_local_attempts per event; a component whose
//                    replays keep firing (damage older than the last
//                    accepted boundary — an even-per-group escape that
//                    only a later zero check can flag) falls back to a
//                    whole-program restart rather than rejecting.
//
// Every counter is an exact integer so shard estimates merge
// associatively — the recovering Monte-Carlo inherits the engine-wide
// determinism contract (bit-identical across REVFT_THREADS).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace revft::recover {

enum class RetryPolicyKind {
  kNoRetry,       ///< abort on first fired check, discard the trial
  kWholeProgram,  ///< restart from the entry checkpoint
  kBlockLocal,    ///< replay the fired components from the last boundary
};

struct RetryPolicy {
  RetryPolicyKind kind = RetryPolicyKind::kBlockLocal;
  /// Block-local replay attempts per detection event before falling
  /// back to a whole-program restart (kBlockLocal only).
  int max_local_attempts = 3;
  /// Whole-program attempts per trial (restarts under kWholeProgram,
  /// fallbacks under kBlockLocal); a trial that exhausts them is
  /// rejected. The first pass does not count as an attempt.
  int max_program_attempts = 8;

  static RetryPolicy no_retry() { return {RetryPolicyKind::kNoRetry, 0, 0}; }
  static RetryPolicy whole_program(int max_attempts = 8) {
    return {RetryPolicyKind::kWholeProgram, 0, max_attempts};
  }
  static RetryPolicy block_local(int local = 3, int program = 8) {
    return {RetryPolicyKind::kBlockLocal, local, program};
  }
};

/// Exact outcome and cost counts of a recovering Monte-Carlo run. The
/// headline number is expected_ops_per_accept(): TOTAL fallible ops
/// executed (first pass + replays + restarts, counted per trial the
/// way an independent physical run would pay them) divided by accepted
/// trials — the measured counterpart of detect::RetryCostModel.
struct RecoveryEstimate {
  std::uint64_t trials = 0;
  std::uint64_t accepted = 0;  ///< produced an output (clean or repaired)
  std::uint64_t rejected = 0;  ///< aborted (kNoRetry) or attempts exhausted
  std::uint64_t silent_failures = 0;   ///< accepted but logically wrong
  std::uint64_t detected_trials = 0;   ///< trials with >= 1 fired check
  std::uint64_t local_retries = 0;     ///< component replay attempts
  std::uint64_t program_restarts = 0;  ///< whole-program attempts
  std::uint64_t fallbacks = 0;         ///< local events escalated to restart
  std::uint64_t restart_accepts = 0;   ///< trials accepted by a restart
  /// Detection events attributed to rail r on still-active trials (a
  /// trial can fire several rails at one boundary and fire at several
  /// boundaries) — the per-rail retry counters of the protocol.
  ///
  /// Naming note: this counts EVENTS, while the detection engine's
  /// DetectionEstimate::rail_detected counts TRIALS; events per trial
  /// can exceed 1. telemetry::RunReport merges both views into one
  /// per-block table.
  std::vector<std::uint64_t> rail_events;
  std::uint64_t zero_check_events = 0;
  /// Per-trial fallible ops actually executed, split by phase.
  std::uint64_t ops_main = 0;     ///< first-pass execution
  std::uint64_t ops_local = 0;    ///< block-local component replays
  std::uint64_t ops_restart = 0;  ///< whole-program restarts
  /// Per-segment split of local_retries and ops_local: the replay
  /// attempts that landed on segment s, and the ops they charged —
  /// the segment table of telemetry::RunReport.
  std::vector<std::uint64_t> segment_replays;
  std::vector<std::uint64_t> segment_replay_ops;

  std::uint64_t ops_total() const noexcept {
    return ops_main + ops_local + ops_restart;
  }
  /// Total retry attempts of either flavour — block-local component
  /// replays plus whole-program restarts.
  std::uint64_t total_retries() const noexcept {
    return local_retries + program_restarts;
  }
  /// Sum of rail_events[] — the recovery counterpart of
  /// DetectionEstimate::total_detected().
  std::uint64_t total_rail_events() const noexcept {
    std::uint64_t sum = 0;
    for (const std::uint64_t count : rail_events) sum += count;
    return sum;
  }
  double acceptance_rate() const noexcept {
    return trials != 0 ? static_cast<double>(accepted) /
                             static_cast<double>(trials)
                       : 0.0;
  }
  /// Failure rate of the delivered outputs (the quality side of the
  /// economics; rejected trials deliver nothing).
  double accepted_error_rate() const noexcept {
    return accepted != 0 ? static_cast<double>(silent_failures) /
                               static_cast<double>(accepted)
                         : 0.0;
  }
  /// The measured E[ops/accept]. Infinite when nothing was accepted.
  double expected_ops_per_accept() const noexcept {
    return accepted != 0 ? static_cast<double>(ops_total()) /
                               static_cast<double>(accepted)
                         : std::numeric_limits<double>::infinity();
  }

  /// Exact integer merge (shard combination); per-rail and per-segment
  /// counters merge element-wise, an empty accumulator adopts the other
  /// side's shape.
  RecoveryEstimate& operator+=(const RecoveryEstimate& other) {
    trials += other.trials;
    accepted += other.accepted;
    rejected += other.rejected;
    silent_failures += other.silent_failures;
    detected_trials += other.detected_trials;
    local_retries += other.local_retries;
    program_restarts += other.program_restarts;
    fallbacks += other.fallbacks;
    restart_accepts += other.restart_accepts;
    add_slots(rail_events, other.rail_events);
    zero_check_events += other.zero_check_events;
    ops_main += other.ops_main;
    ops_local += other.ops_local;
    ops_restart += other.ops_restart;
    add_slots(segment_replays, other.segment_replays);
    add_slots(segment_replay_ops, other.segment_replay_ops);
    return *this;
  }

  bool operator==(const RecoveryEstimate&) const = default;

 private:
  static void add_slots(std::vector<std::uint64_t>& mine,
                        const std::vector<std::uint64_t>& theirs) {
    if (mine.size() < theirs.size()) mine.resize(theirs.size(), 0);
    for (std::size_t i = 0; i < theirs.size(); ++i) mine[i] += theirs[i];
  }
};

}  // namespace revft::recover
