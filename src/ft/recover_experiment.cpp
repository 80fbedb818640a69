#include "ft/recover_experiment.h"

#include "support/error.h"

namespace revft {

CheckedMachineOptions recovering_machine_options() {
  CheckedMachineOptions opts;  // per-block rails + zero checks (defaults)
  opts.rail_check_every_boundary = true;  // localize violations per segment
  return opts;
}

RecoveryExperiment::RecoveryExperiment(CheckedMachineProgram program,
                                       const Circuit& logical,
                                       const Config& config)
    : program_(std::move(program)), config_(config) {
  REVFT_CHECK_MSG(logical.width() == program_.logical_bits,
                  "RecoveryExperiment: program/logical width mismatch");
  plan_ = recover::build_segment_plan(program_.checked);
  kernel_ = make_machine_kernel(program_, machine_truth_table(logical));
}

recover::RecoveryEstimate RecoveryExperiment::run(
    double g, const recover::RetryPolicy& policy, int threads,
    telemetry::Trace* trace) const {
  ParallelMcOptions mc;
  return drive_workload(
      kernel_, config_, g, mc, threads,
      [&](const NoiseModel& model, auto factory) {
        return recover::run_parallel_recovering_mc(
            program_.checked, plan_, policy, model, mc, factory, trace);
      });
}

telemetry::StreamResult<recover::RecoveryEstimate>
RecoveryExperiment::run_streaming(double g, const recover::RetryPolicy& policy,
                                  const telemetry::StreamOptions& stream,
                                  telemetry::Trace* trace) const {
  telemetry::StreamOptions opts = stream;
  return drive_workload(
      kernel_, config_, g, opts.mc, -1,
      [&](const NoiseModel& model, auto factory) {
        return telemetry::run_streaming_recovering_mc(
            program_.checked, plan_, policy, model, opts, factory, trace);
      });
}

}  // namespace revft
