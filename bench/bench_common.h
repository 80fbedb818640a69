// bench/bench_common.h
//
// Shared scaffolding for the paper-reproduction bench binaries. Each
// binary first prints its reproduction table ([paper] vs [measured]
// columns), emits a machine-readable BENCH_<name>.json results file,
// then runs its google-benchmark kernel timings.
//
// Two harness pieces live here so every binary uses the same ones:
//   * time_interleaved() — the one timer behind every timed acceptance
//     bar (kernel overheads, tracing hooks, SIMD speedup, certificate
//     vs census);
//   * JsonResultWriter — the BENCH_<name>.json document, written
//     through provenance::write_artifact like every other artifact.
//
// Environment knobs:
//   REVFT_TRIALS   — Monte-Carlo trials per data point (default differs
//                    per bench; raise it for tighter error bars).
//   REVFT_SEED     — master seed (default 0xD5A2005).
//                    Both take decimal or 0x-prefixed hex digits only;
//                    anything else exits with status 2.
//   REVFT_THREADS  — worker threads for the sharded Monte-Carlo engine
//                    (default: hardware concurrency). Never changes the
//                    estimates, only wall-clock time.
//   REVFT_JSON_DIR — directory for the JSON artifacts (default ".";
//                    empty string disables emission).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rev/circuit.h"
#include "support/json.h"

namespace revft::benchutil {

/// Monte-Carlo trial count: REVFT_TRIALS or `fallback`.
std::uint64_t trials_from_env(std::uint64_t fallback);

/// Master seed: REVFT_SEED or 0xD5A2005.
std::uint64_t seed_from_env();
// (REVFT_THREADS is read by the engine itself — resolve_thread_count
// in noise/parallel_mc.h — whenever a config leaves threads at 0.)

/// The shared machine workload of the checked, recovering, streaming
/// and telemetry benches: five gates whose operands are scattered
/// across a 10-bit machine, so the compiler routes heavily — the
/// regime the §3 schemes (and their rails) are built for, and the one
/// where checking is nearly free.
Circuit scattered_workload();

/// Print a section header for one reproduced table/figure.
void print_header(const std::string& title, const std::string& paper_ref);

/// One variant of a timed comparison: a single-threaded body and the
/// work units (original ops, op-lanes, censuses, ...) one call covers.
struct TimedBody {
  double units;
  std::function<void()> body;
};

/// What time_interleaved() measured, one entry per variant.
struct Timing {
  std::vector<double> ns_per_unit;  ///< minimum over repetitions
  std::vector<double> ratio;        ///< median per-rep ns/unit over variant 0
  std::vector<std::vector<double>> rep_ns;  ///< [variant][rep] ns/unit
};

/// The one timer behind every timed bar. Each variant gets one untimed
/// warm-up call; then each of `reps` repetitions times `iters` calls
/// of every variant back to back, in an order that rotates by one
/// variant per repetition, and takes the ratios within the repetition:
///
///   * the clock is process CPU time, which does not tick while the
///     process is descheduled, so time-slicing against neighbours on a
///     shared host does not land in the measurement. Bodies must
///     therefore be single-threaded;
///   * back-to-back blocks put clock-frequency and load drift on every
///     variant of a repetition roughly equally, and rotating the order
///     keeps a monotonic load ramp from always landing on the variant
///     timed last;
///   * the median of the per-repetition ratios discards the repetitions
///     a noisy neighbour stomped on.
///
/// Bars use `ratio`; `ns_per_unit` is the usual best-observed figure,
/// and `rep_ns` keeps every repetition's, for medians and spreads.
/// With reps = 1 the ratio is the single measurement's.
Timing time_interleaved(const std::vector<TimedBody>& variants, int reps,
                        int iters);

/// The widest SIMD tier this binary was compiled for ("avx512f",
/// "avx2" or "sse2") — the compile-time answer, what the
/// auto-vectorized packed kernels could use, independent of runtime
/// CPU detection (there is none; the build flag decides).
const char* target_isa();

/// Collects named results and writes them as BENCH_<name>.json
/// (provenance::write_artifact) so successive PRs accumulate a
/// machine-readable perf/accuracy trajectory:
///
///   {
///     "bench": "fig2_threshold",
///     "meta":    {"git_sha": "...", "compiler": "...", "trials": 1000000, ...},
///     "results": {"noisy_init": {"pseudo_threshold": 0.021, ...}, ...}
///   }
///
/// Every writer is pre-stamped with "git_sha" and "compiler", the stamp
/// every artifact carries. write() is idempotent and also runs from the
/// destructor, so a bench can simply construct one recorder, add
/// values, and exit.
class JsonResultWriter {
 public:
  /// `name` is the bench identifier, e.g. "fig2_threshold".
  explicit JsonResultWriter(std::string name);
  ~JsonResultWriter();

  JsonResultWriter(const JsonResultWriter&) = delete;
  JsonResultWriter& operator=(const JsonResultWriter&) = delete;

  /// Record one run-configuration value (trials, seed, ...) under meta.
  /// json::Value keeps 64-bit integers (seeds!) exact. A repeated key
  /// throws revft::Error: the strict parser would reject the file.
  void meta(const std::string& key, json::Value value);
  /// Record one measured value — a number, or an array/object — under
  /// `section`. A repeated key throws revft::Error.
  void add(const std::string& section, const std::string& key,
           json::Value value);

  /// Write BENCH_<name>.json. Returns false (silently when emission is
  /// disabled, with a message on stderr when the file cannot be
  /// written — benches must still print their tables); never throws.
  /// Subsequent calls are no-ops.
  bool write();

 private:
  std::string name_;
  json::Value meta_ = json::Value::object();
  json::Value results_ = json::Value::object();
  bool written_ = false;
};

/// Stamp the run-configuration meta every bench repeats — "trials",
/// "seed", plus the packed-engine geometry ("lane_words") and the
/// compiled SIMD tier ("target_isa") — in one call so the keys cannot
/// drift between binaries (CI's JSON checker greps for them by name).
/// lane_words is part of the determinism key (like batches_per_shard),
/// which is why it belongs in the meta block of every results file.
void stamp_run_meta(JsonResultWriter& json, std::uint64_t trials,
                    std::uint64_t seed, unsigned lane_words = 1);

}  // namespace revft::benchutil
