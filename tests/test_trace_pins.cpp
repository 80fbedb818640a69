// Exact pins of the traced output of all three Monte-Carlo engines.
// Each traced run is reduced to one FNV-1a fingerprint over its merged
// event stream (every Event field, in order), the trace's emitted and
// dropped counts, the estimate's exact counts and — for the checked
// and recovering engines — the RunReport's rail rows (fired, hot
// ranking) and segment rows (replays, replayed ops). The plain engine,
// the checked 1D machine and the recovering 1D machine under all three
// retry policies each run at lane_words 1 and 8, so a change to any
// span loop's instrumentation that moves, drops or reorders a single
// event, or changes a count, fails here.
// deterministic_equal only compares runs with each other; this suite
// pins their content.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "noise/parallel_mc.h"
#include "recovery_pins.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

namespace revft {
namespace {

constexpr double kG = 1e-3;
constexpr std::uint64_t kTrials = 20000;
constexpr int kThreads = 3;
constexpr std::size_t kRing = 1 << 18;

/// 64-bit FNV-1a over little-endian 8-byte words.
class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void add_all(const std::vector<std::uint64_t>& values) {
    add(values.size());
    for (const std::uint64_t v : values) add(v);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

Circuit scattered_workload() {
  Circuit logical(10);
  logical.maj(9, 4, 0)
      .toffoli(0, 7, 9)
      .majinv(4, 1, 8)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return logical;
}

/// The merged event stream plus the emitted/dropped accounting.
void add_trace(Fnv1a& h, const telemetry::Trace& trace) {
  h.add(trace.events().size());
  for (const telemetry::Event& e : trace.events()) {
    h.add(static_cast<std::uint64_t>(e.kind));
    h.add(e.shard);
    h.add(e.rail);
    h.add(e.segment);
    h.add(e.batch);
    h.add(e.lanes);
    h.add(e.value);
  }
  h.add(trace.emitted());
  h.add(trace.dropped());
}

/// The report's rail rows (fired + hot ranking) and segment rows.
void add_report(Fnv1a& h, const telemetry::RunReport& report) {
  h.add(report.rails.size());
  for (const telemetry::RailProfile& r : report.rails) h.add(r.fired);
  h.add(report.hot_rails.size());
  for (const std::uint32_t r : report.hot_rails) h.add(r);
  h.add(report.segments.size());
  for (const telemetry::SegmentProfile& s : report.segments) {
    h.add(s.replays);
    h.add(s.replay_ops);
  }
}

telemetry::TraceConfig ring() {
  telemetry::TraceConfig cfg;
  cfg.ring_capacity = kRing;
  return cfg;
}

std::uint64_t plain_fingerprint(unsigned lane_words) {
  const Circuit logical = scattered_workload();
  const MachineWorkloadKernel kernel = make_circuit_kernel(logical);
  ParallelMcOptions opts;
  opts.trials = kTrials;
  opts.threads = kThreads;
  opts.lane_words = lane_words;
  telemetry::Trace trace(ring());
  const BernoulliEstimate est = run_parallel_mc(
      logical, NoiseModel::uniform(kG), opts,
      [&kernel](std::uint64_t) { return kernel; }, &trace);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_GT(trace.emitted(), 0u);
  Fnv1a h;
  add_trace(h, trace);
  h.add(est.trials);
  h.add(est.failures);
  return h.value();
}

std::uint64_t checked_fingerprint(unsigned lane_words) {
  const Circuit logical = scattered_workload();
  CheckedMachineExperiment::Config config;
  config.trials = kTrials;
  config.lane_words = lane_words;
  const CheckedMachineExperiment exp(CheckedMachine1d(10).compile(logical),
                                     logical, config);
  telemetry::Trace trace(ring());
  const detect::DetectionEstimate est = exp.run(kG, kThreads, &trace);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_GT(trace.emitted(), 0u);
  Fnv1a h;
  add_trace(h, trace);
  h.add(est.trials);
  h.add(est.detected);
  h.add(est.detected_failures);
  h.add(est.silent_failures);
  h.add_all(est.rail_detected);
  h.add(est.zero_check_detected);
  add_report(h, telemetry::build_run_report("pin", exp.program().checked, &est,
                                            nullptr, nullptr, &trace));
  return h.value();
}

/// A recovering run's fingerprint, with its estimate and the checked
/// circuit's op count for the 5-sigma bands.
struct RecoveryRun {
  std::uint64_t fingerprint;
  recover::RecoveryEstimate est;
  std::uint64_t program_ops;
};

RecoveryRun recovery_run(const recover::RetryPolicy& policy,
                         unsigned lane_words) {
  const Circuit logical = scattered_workload();
  RecoveryExperiment::Config config;
  config.trials = kTrials;
  config.lane_words = lane_words;
  const RecoveryExperiment exp(
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical),
      logical, config);
  telemetry::Trace trace(ring());
  const recover::RecoveryEstimate est = exp.run(kG, policy, kThreads, &trace);
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_GT(trace.emitted(), 0u);
  Fnv1a h;
  add_trace(h, trace);
  h.add(est.trials);
  h.add(est.accepted);
  h.add(est.rejected);
  h.add(est.silent_failures);
  h.add(est.detected_trials);
  h.add(est.local_retries);
  h.add(est.program_restarts);
  h.add(est.fallbacks);
  h.add_all(est.rail_events);
  h.add(est.zero_check_events);
  h.add(est.ops_main);
  h.add(est.ops_local);
  h.add(est.ops_restart);
  add_report(h, telemetry::build_run_report("pin", exp.program().checked,
                                            nullptr, &est, &exp.plan(),
                                            &trace));
  return {h.value(), est, exp.program().checked.circuit.size()};
}

/// Prints the measured fingerprint on mismatch, so a deliberate change
/// can be re-pinned from the failure message.
void expect_pin(const char* name, std::uint64_t got, std::uint64_t want) {
  EXPECT_EQ(got, want) << name << ": got 0x" << std::hex << got;
}

TEST(TracePins, PlainEngine) {
  expect_pin("plain W=1", plain_fingerprint(1), 0x426f35cae2a855b4ull);
  expect_pin("plain W=8", plain_fingerprint(8), 0x765c6b777d345502ull);
}

TEST(TracePins, CheckedMachine1d) {
  expect_pin("checked W=1", checked_fingerprint(1), 0x371b1a9c6831e533ull);
  expect_pin("checked W=8", checked_fingerprint(8), 0xf8f5a63d26d7c66bull);
}

TEST(TracePins, RecoveringNoRetry) {
  const auto policy = recover::RetryPolicy::no_retry();
  expect_pin("no_retry W=1", recovery_run(policy, 1).fingerprint,
             0x1c85287ea2b01754ull);
  expect_pin("no_retry W=8", recovery_run(policy, 8).fingerprint,
             0x4b65aad8f5a1cfe0ull);
}

// The whole-program and block-local pins were re-recorded when restart
// attempts began to run side by side in a batch's idle lanes: the law
// of every count is unchanged, the RNG order is not. A fingerprint
// cannot be compared statistically, so each run's counts must also lie
// within 5 sigma of the estimate recorded before that change.
void expect_recovery_pin(const char* name, const recover::RetryPolicy& policy,
                         unsigned lane_words, std::uint64_t want,
                         const recover::RecoveryEstimate& before) {
  const RecoveryRun run = recovery_run(policy, lane_words);
  expect_pin(name, run.fingerprint, want);
  test::expect_recovery_within_5_sigma(run.est, before, run.program_ops,
                                       name);
}

TEST(TracePins, RecoveringWholeProgram) {
  const auto policy = recover::RetryPolicy::whole_program();
  expect_recovery_pin(
      "whole_program W=1", policy, 1, 0x8b676ace9591e458ull,
      {.trials = 20000, .accepted = 14128, .rejected = 5872,
       .silent_failures = 0, .detected_trials = 17432, .local_retries = 0,
       .program_restarts = 90934, .fallbacks = 0,
       .rail_events = {3566, 1554, 1262, 732, 2008, 1256, 1519, 1893, 1624,
                       4383},
       .zero_check_events = 17335, .ops_main = 21471012, .ops_local = 0,
       .ops_restart = 97762109, .segment_replays = {},
       .segment_replay_ops = {}});
  expect_recovery_pin(
      "whole_program W=8", policy, 8, 0x6947426c2161e40full,
      {.trials = 20000, .accepted = 14241, .rejected = 5759,
       .silent_failures = 1, .detected_trials = 17391, .local_retries = 0,
       .program_restarts = 90417, .fallbacks = 0,
       .rail_events = {3602, 1577, 1262, 741, 2055, 1244, 1441, 1891, 1689,
                       4278},
       .zero_check_events = 17243, .ops_main = 21623183, .ops_local = 0,
       .ops_restart = 97378626, .segment_replays = {},
       .segment_replay_ops = {}});
}

TEST(TracePins, RecoveringBlockLocal) {
  const auto policy = recover::RetryPolicy::block_local();
  expect_recovery_pin(
      "block_local W=1", policy, 1, 0xdb9e1d9bab9498d1ull,
      {.trials = 20000, .accepted = 19944, .rejected = 56,
       .silent_failures = 0, .detected_trials = 17482, .local_retries = 41768,
       .program_restarts = 974, .fallbacks = 197,
       .rail_events = {7389, 3671, 3760, 1343, 4326, 3757, 4065, 4040, 4094,
                       8173},
       .zero_check_events = 39005, .ops_main = 47958927,
       .ops_local = 2450198, .ops_restart = 1068341, .segment_replays = {},
       .segment_replay_ops = {}});
  expect_recovery_pin(
      "block_local W=8", policy, 8, 0x20047437fd021398ull,
      {.trials = 20000, .accepted = 19941, .rejected = 59,
       .silent_failures = 1, .detected_trials = 17405, .local_retries = 41462,
       .program_restarts = 904, .fallbacks = 176,
       .rail_events = {7433, 3733, 3660, 1221, 4201, 3676, 4055, 3915, 4119,
                       8197},
       .zero_check_events = 39013, .ops_main = 47984756,
       .ops_local = 2422387, .ops_restart = 993486, .segment_replays = {},
       .segment_replay_ops = {}});
}

}  // namespace
}  // namespace revft
