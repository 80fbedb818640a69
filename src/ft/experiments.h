// revft/ft/experiments.h
//
// Monte-Carlo experiment drivers for the paper's threshold claims
// (§2.2, Fig 3 / Eq. 2). Each experiment compiles one logical gate to
// a chosen concatenation level and measures the probability that the
// compiled module produces the wrong logical output on uniformly
// random logical inputs at physical gate error rate g.
//
// Relation to the paper's accounting: with noisy initialization the
// level-1 cycle charges G = 3 + 8 = 11 fallible operations per encoded
// bit (threshold 1/165); with perfect initialization G = 3 + 6 = 9
// (threshold 1/108). The analytic ρ are *lower bounds* — measured
// pseudo-thresholds land above them.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "detect/checked_mc.h"
#include "ft/concat.h"
#include "ft/machine_kernel.h"
#include "local/checked_machine.h"
#include "local/recovery_meta.h"
#include "noise/parallel_mc.h"
#include "support/stats.h"
#include "telemetry/stream.h"

namespace revft {

struct LogicalGateExperimentConfig {
  /// Concatenation level (0 = the bare physical gate, as an anchor).
  int level = 1;
  /// The logical gate under test (any 3-bit reversible kind).
  GateKind gate = GateKind::kToffoli;
  /// Charge gate error to the recovery initializations (G = 11
  /// regime); false models the paper's "initialization far more
  /// accurate than our gates" (G = 9 regime).
  bool noisy_init = true;
  std::uint64_t trials = 100000;
  std::uint64_t seed = 0x1ea7beefULL;
  /// Worker threads for the sharded Monte-Carlo engine. 0 = auto
  /// (REVFT_THREADS env, else hardware concurrency). Never affects the
  /// estimate — results are bit-identical for a fixed seed.
  int threads = 0;
};

/// Compile once, then sweep g with run().
class LogicalGateExperiment {
 public:
  explicit LogicalGateExperiment(const LogicalGateExperimentConfig& config);

  /// P[compiled gate outputs a wrong logical value] at error rate g.
  BernoulliEstimate run(double g) const;

  /// Streaming variant of run(): identical per-batch semantics (a
  /// never-firing stop policy reproduces run() bit for bit), observed
  /// at merged round boundaries. `stream` contributes the stop policy,
  /// round granularity (mc.batches_per_shard), name and callbacks; the
  /// experiment's config overrides mc.trials/seed/threads, keeping the
  /// determinism key in one place (drive_workload).
  telemetry::StreamResult<BernoulliEstimate> run_streaming(
      double g, const telemetry::StreamOptions& stream) const;

  const CompiledModule& module() const noexcept { return module_; }
  const LogicalGateExperimentConfig& config() const noexcept { return config_; }

 private:
  LogicalGateExperimentConfig config_;
  CompiledModule module_;
  MachineWorkloadKernel kernel_;
};

/// A point of the logical-error-vs-g curve.
struct ThresholdPoint {
  double g = 0.0;
  BernoulliEstimate logical_error;
};

/// Sweep the experiment over the given g values.
std::vector<ThresholdPoint> sweep_gate_error(const LogicalGateExperiment& exp,
                                             const std::vector<double>& gs);

/// Logical memory under repeated recovery: one codeword held for R
/// rounds of the Fig 2 stage (no computation), measuring how storage
/// errors accumulate. Below threshold the per-round logical error is
/// ~constant, so P[failure after R rounds] grows linearly in R — the
/// property that makes "modules of bounded noise" composable (§2.3).
class MemoryExperiment {
 public:
  struct Config {
    int rounds = 10;
    bool noisy_init = true;
    std::uint64_t trials = 100000;
    std::uint64_t seed = 0x3e3042ULL;
    int threads = 0;  ///< see LogicalGateExperimentConfig::threads
  };

  explicit MemoryExperiment(const Config& config);

  /// P[stored logical value decodes wrong after all rounds] at g.
  BernoulliEstimate run(double g) const;

  /// The chained circuit (rounds * 8 ops with init).
  const Circuit& circuit() const noexcept { return circuit_; }

 private:
  Config config_;
  Circuit circuit_;  // all rounds chained
  MachineWorkloadKernel kernel_;
};

/// Monte-Carlo driver for the level-1 *local* cycles (scheme1d /
/// scheme2d): one transversal 3-bit logical gate on three flat
/// codewords, with the cycle's own routing and recovery. The caller
/// provides the concrete cycle circuit and where each codeword's three
/// bits sit before and after; passing the cycle's recovery boundaries
/// additionally arms the detection rail, so the same workload also
/// reports detected / silent / accepted splits through the checked
/// packed engine (run_checked).
class CodewordCycleExperiment {
 public:
  struct Config {
    GateKind gate = GateKind::kToffoli;  ///< must match the cycle's gate
    bool noisy_init = true;
    std::uint64_t trials = 100000;
    std::uint64_t seed = 0x10ca1ULL;
    int threads = 0;  ///< see LogicalGateExperimentConfig::threads
    /// How run_checked arms the rails (granularity, zero checks,
    /// elision) — the same knobs as the checked machines, applied to
    /// the bare cycle. Per-block = one rail per 9-cell block.
    CheckedMachineOptions check;
  };

  CodewordCycleExperiment(Circuit circuit,
                          std::array<std::array<std::uint32_t, 3>, 3> data_before,
                          std::array<std::array<std::uint32_t, 3>, 3> data_after,
                          const Config& config,
                          std::vector<RecoveryBoundary> boundaries = {});

  /// P[any of the three codewords majority-decodes to the wrong
  /// logical value] at gate error rate g, over random logical inputs.
  BernoulliEstimate run(double g) const;

  /// The same workload in parity-rail form under the checked packed
  /// engine: detected / silent / accepted outcome counts,
  /// bit-identical for a fixed seed at any worker count. Pass an
  /// explicit worker count for determinism checks (-1 = the config's).
  detect::DetectionEstimate run_checked(double g, int threads = -1) const;

  const Circuit& circuit() const noexcept { return circuit_; }
  const detect::CheckedCircuit& checked() const noexcept { return checked_; }

 private:
  Circuit circuit_;
  Config config_;
  detect::CheckedCircuit checked_;  ///< railed cycle (boundary checkpoints)
  MachineWorkloadKernel kernel_;
};

/// Monte-Carlo driver for whole checked local machines: a compiled
/// CheckedMachineProgram (1D or 2D) run under the checked packed
/// engine on uniformly random logical inputs. Failure = any logical
/// bit majority-decodes wrong at its final slot; detection = rail
/// checkpoint or recovery-boundary zero check fired. This is the
/// "checked packed engine everywhere" driver: the local-machine
/// workload family reports the same detected / silent / accepted
/// splits as ft/detect_experiment, with the same thread-count
/// determinism contract.
class CheckedMachineExperiment {
 public:
  struct Config {
    bool noisy_init = true;
    std::uint64_t trials = 100000;
    std::uint64_t seed = 0xc8ec2edULL;
    int threads = 0;  ///< see LogicalGateExperimentConfig::threads
    /// Lane words per circuit bit (64 * lane_words trials per batch).
    /// Part of the determinism key: changing it changes the stream,
    /// like batches_per_shard — unlike threads, which never does.
    unsigned lane_words = 1;
  };

  /// `logical` must be the circuit `program` was compiled from (its
  /// truth table judges the outputs); width is capped at 16 logical
  /// bits — the table is exhaustive.
  CheckedMachineExperiment(CheckedMachineProgram program,
                           const Circuit& logical, const Config& config);

  /// `trace` (nullable) collects per-shard telemetry — see
  /// run_parallel_checked_mc; the stream is bit-identical across
  /// thread counts for a fixed seed.
  detect::DetectionEstimate run(double g, int threads = -1,
                                telemetry::Trace* trace = nullptr) const;

  /// Streaming variant of run(): the stop policy watches the
  /// POST-SELECTED silent rate (silent_failures / accepted). `stream`
  /// contributes policy/granularity/callbacks; the experiment's config
  /// overrides mc.trials/seed/threads/lane_words. A never-firing
  /// policy reproduces run() bit for bit.
  telemetry::StreamResult<detect::DetectionEstimate> run_streaming(
      double g, const telemetry::StreamOptions& stream,
      telemetry::Trace* trace = nullptr) const;

  const CheckedMachineProgram& program() const noexcept { return program_; }

 private:
  CheckedMachineProgram program_;
  Config config_;
  MachineWorkloadKernel kernel_;  ///< judged by the 2^B truth table
};

}  // namespace revft
