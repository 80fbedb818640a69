// revft/ft/recover_experiment.h
//
// Monte-Carlo driver for the retry protocols on whole checked local
// machines: the same workload family as CheckedMachineExperiment
// (uniformly random logical inputs, majority-decode at the final
// slots), but run through the recovering packed engine so the three
// RetryPolicies can be priced against each other — and against the
// geometric retry-cost MODEL (detect/retry_model.h) — at equal
// fallible-op budgets: all policies execute the same checked circuit,
// the only difference is how they react to a fired check.
//
// The driver arms the machine's rails for recovery:
// rail_check_every_boundary is turned ON (the per-boundary rail
// evaluation is what localizes a violation to the segment it happened
// in — with the default final-only evaluation a rail firing at program
// end could name a segment whose snapshot is long gone), on top of the
// shipped per-block partition and boundary zero checks.
#pragma once

#include <cstdint>
#include <vector>

#include "ft/machine_kernel.h"
#include "local/checked_machine.h"
#include "noise/parallel_mc.h"
#include "recover/plan.h"
#include "recover/recovering_mc.h"
#include "recover/retry.h"
#include "telemetry/stream.h"

namespace revft {

/// CheckedMachineOptions armed for recovery: per-block rails, boundary
/// zero checks AND per-boundary rail checkpoints — the configuration
/// every recovering workload (this experiment, bench_recover, the
/// test_recover suites) shares.
CheckedMachineOptions recovering_machine_options();

/// Compile once (via CheckedMachine1d/2d with recovering options),
/// build the segment plan once, then sweep (g, policy) with run().
class RecoveryExperiment {
 public:
  struct Config {
    bool noisy_init = true;
    std::uint64_t trials = 100000;
    std::uint64_t seed = 0x2ec04e2ULL;
    int threads = 0;  ///< see LogicalGateExperimentConfig::threads
    /// Lane words per circuit bit (64 * lane_words trials per batch).
    /// Part of the determinism key, like batches_per_shard.
    unsigned lane_words = 1;
  };

  /// `logical` must be the circuit `program` was compiled from (width
  /// <= 16 — the truth table judging outputs is exhaustive). The
  /// program must have been compiled with per-boundary rail
  /// checkpoints (recovering_machine_options()).
  RecoveryExperiment(CheckedMachineProgram program, const Circuit& logical,
                     const Config& config);

  /// Run one policy at error rate g. Results are bit-identical for a
  /// fixed seed at any worker count (pass `threads` >= 1 to pin one
  /// for determinism checks; -1 = the config's). `trace` (nullable)
  /// collects per-shard telemetry — see run_parallel_recovering_mc —
  /// with the same thread-count-independence guarantee.
  recover::RecoveryEstimate run(double g, const recover::RetryPolicy& policy,
                                int threads = -1,
                                telemetry::Trace* trace = nullptr) const;

  /// Streaming variant of run(): the stop policy watches the
  /// delivered-output quality (silent_failures / accepted). `stream`
  /// contributes policy/granularity/callbacks; the experiment's config
  /// overrides mc.trials/seed/threads/lane_words. A never-firing
  /// policy reproduces run() bit for bit, retries included.
  telemetry::StreamResult<recover::RecoveryEstimate> run_streaming(
      double g, const recover::RetryPolicy& policy,
      const telemetry::StreamOptions& stream,
      telemetry::Trace* trace = nullptr) const;

  const CheckedMachineProgram& program() const noexcept { return program_; }
  const recover::SegmentPlan& plan() const noexcept { return plan_; }

 private:
  CheckedMachineProgram program_;
  Config config_;
  recover::SegmentPlan plan_;
  MachineWorkloadKernel kernel_;  ///< judged by the 2^B truth table
};

}  // namespace revft
