// revft/telemetry/convergence.h
//
// Convergence observability for streaming Monte-Carlo runs: the data
// model of "how tight is the estimate NOW, and when is it safe to
// stop" that telemetry/stream.h fills in while an engine is running.
//
// Everything here obeys the repo's determinism contract. A snapshot is
// taken only at a MERGED ROUND BOUNDARY (one batch per still-active
// shard, partial estimates folded in shard-index order — see
// stream.h), so the snapshot series, the early-stop decision, and the
// stopped estimate are all pure functions of the determinism key
// (trials, seed, batches_per_shard, lane_words) — bit-identical across
// REVFT_THREADS, ctest-enforced. Wall-clock lives in the ONE section
// the contract exempts (WallProfile), excluded from
// deterministic_equal and from the exported deterministic payload's
// comparisons, exactly like ShardTrace::ticks in trace.h.
//
// The artifact is CONV_<name>.json — the convergence trajectory a
// dashboard plots and examples/telemetry_check validates (strict
// parse, monotone trials, sound half-width monotonicity, bar
// enforcement) — plus an optional Chrome-trace counter series
// (ph:"C") so Perfetto can graph rate/half-width against the round
// timeline next to the event stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.h"
#include "support/stats.h"

namespace revft::telemetry {

/// When may a streaming run stop early? All criteria are evaluated on
/// the MERGED headline estimate at round boundaries only, so the
/// decision inherits the thread-count independence of the merge. A
/// zero target disables that criterion; all-zero targets mean "never
/// stop early" (the run exhausts its trial budget — the legacy
/// fixed-trial behaviour, snapshot series included).
struct EarlyStopPolicy {
  /// Confidence parameter of the Wilson interval every criterion and
  /// every snapshot half-width uses (1.96 = 95%).
  double z = 1.96;
  /// Stop when the Wilson half-width falls to this absolute value.
  double target_half_width = 0.0;
  /// Stop when half_width <= target_rel_half_width * rate() — the
  /// "know p to within X%" criterion. Gated on min_failures so a
  /// zero-failure prefix (rate 0, half-width finite) cannot trigger it.
  double target_rel_half_width = 0.0;
  /// Stop when wilson(z).hi <= target_upper_bound — sequential
  /// CERTIFICATION that the failure rate is below a bound, the
  /// sub-threshold use case (BoykinR05 §4: certify p_L < bound without
  /// paying for a pinpoint estimate).
  double target_upper_bound = 0.0;
  /// Burn-in: no criterion fires before this many raw trials.
  std::uint64_t min_trials = 0;
  /// Failure floor for the relative criterion (see above).
  std::uint64_t min_failures = 0;

  bool enabled() const noexcept {
    return target_half_width > 0.0 || target_rel_half_width > 0.0 ||
           target_upper_bound > 0.0;
  }

  json::Value to_json() const;
  bool operator==(const EarlyStopPolicy&) const = default;
};

/// Why a streaming run ended. Values are stable (exported in JSON).
enum class StopReason : std::uint8_t {
  kNone = 0,       ///< still running (never exported as final)
  kExhausted = 1,  ///< trial budget ran out before any criterion fired
  kHalfWidth = 2,  ///< absolute half-width target reached
  kRelHalfWidth = 3,  ///< relative half-width target reached
  kUpperBound = 4,    ///< upper bound certified
};

/// Stable lower-case name ("exhausted", "half_width", ...).
const char* stop_reason_name(StopReason reason) noexcept;

/// The early-stop decision — a PURE function of (policy, raw trials
/// consumed, merged headline estimate), which is what makes the stop
/// deterministic: every input is itself bit-identical across thread
/// counts at a round boundary. Returns kNone to keep running; checks
/// fire in enum order (absolute, relative, bound) so a snapshot
/// satisfying several criteria reports a stable reason.
StopReason decide_stop(const EarlyStopPolicy& policy, std::uint64_t raw_trials,
                       const BernoulliEstimate& headline) noexcept;

/// The inputs that pin a streaming run's entire observable payload
/// (plan, RNG streams, snapshot series, stop decision). Thread count
/// is deliberately absent — it is the one knob that must NOT matter.
struct DeterminismKey {
  std::uint64_t trials = 0;  ///< trial budget (ceiling, not necessarily spent)
  std::uint64_t seed = 0;
  std::uint64_t batches_per_shard = 0;
  unsigned lane_words = 1;

  json::Value to_json() const;
  bool operator==(const DeterminismKey&) const = default;
};

/// One merged-round observation of the headline estimate.
struct ConvergenceSnapshot {
  std::uint64_t round = 0;   ///< merged round index, 0-based
  std::uint64_t trials = 0;  ///< raw trials consumed so far (all shards)
  /// Headline denominator. Equals `trials` for the plain engine;
  /// post-selected engines divide by accepted trials instead.
  std::uint64_t denominator = 0;
  std::uint64_t failures = 0;  ///< headline numerator
  double rate = 0.0;           ///< failures / denominator
  double half_width = 0.0;     ///< Wilson half-width at the policy's z

  bool operator==(const ConvergenceSnapshot&) const = default;
};

/// Per-round wall-clock durations — the ONE non-deterministic section,
/// kept out of deterministic_equal and summarized (not compared) in
/// the artifact. The summary leans on Histogram::quantile for the
/// round-duration percentiles.
struct WallProfile {
  std::vector<double> round_seconds;

  double total_seconds() const noexcept;
  /// {"rounds", "total_seconds", "p50_us", "p90_us", "p99_us",
  ///  "max_us"} — microsecond percentiles at bucket resolution.
  json::Value to_json() const;
};

/// The whole convergence story of one streaming run.
struct ConvergenceTrajectory {
  std::string name;    ///< artifact name (CONV_<name>.json)
  std::string engine;  ///< "plain" | "checked" | "recovering"
  DeterminismKey key;
  EarlyStopPolicy policy;
  std::vector<ConvergenceSnapshot> snapshots;
  StopReason stop_reason = StopReason::kNone;
  WallProfile wall;  ///< excluded from deterministic_equal

  /// Append the snapshot for `round` (half-width computed at
  /// policy.z). Called by the stream runner at each merged boundary.
  void record(std::uint64_t round, std::uint64_t raw_trials,
              const BernoulliEstimate& headline);

  /// True when an early-stop criterion actually fired (kExhausted and
  /// kNone are "ran the full budget").
  bool stopped_early() const noexcept {
    return stop_reason == StopReason::kHalfWidth ||
           stop_reason == StopReason::kRelHalfWidth ||
           stop_reason == StopReason::kUpperBound;
  }
  std::uint64_t rounds() const noexcept { return snapshots.size(); }
  /// Raw trials actually consumed (<= key.trials; equal when no
  /// criterion fired).
  std::uint64_t trials_consumed() const noexcept {
    return snapshots.empty() ? 0 : snapshots.back().trials;
  }

  /// Deterministic-payload equality: everything except `wall` — the
  /// comparison the REVFT_THREADS determinism tests use.
  bool deterministic_equal(const ConvergenceTrajectory& other) const noexcept;

  /// The CONV document (deterministic payload + the wall summary,
  /// provenance-stamped like every artifact in the repo).
  json::Value to_json() const;
};

/// Chrome trace-event counter series ({"traceEvents": [...]}) over the
/// snapshot timeline: the ph:"M" process_name record followed by
/// ph:"C" counter samples (conv.rate / conv.half_width / conv.trials)
/// with ts = round index — synthetic but DETERMINISTIC, like the
/// untimed branch of chrome_trace.h, so the file golden-tests cleanly.
json::Value convergence_chrome_json(const ConvergenceTrajectory& trajectory,
                                    const std::string& process_name);

}  // namespace revft::telemetry
