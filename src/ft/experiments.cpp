#include "ft/experiments.h"

#include <numeric>

#include "ft/ec_circuit.h"
#include "support/error.h"

namespace revft {

LogicalGateExperiment::LogicalGateExperiment(
    const LogicalGateExperimentConfig& config)
    : config_(config) {
  const int arity = gate_arity(config.gate);
  REVFT_CHECK_MSG(gate_is_reversible(config.gate),
                  "LogicalGateExperiment: gate must be reversible");
  Circuit logical(static_cast<std::uint32_t>(arity));
  Gate g{config.gate, {0, 0, 0}};
  for (int i = 0; i < arity; ++i)
    g.bits[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i);
  logical.push(g);
  module_ = concat_compile(logical, config.level, ConcatOptions{true});
  std::vector<std::uint32_t> bits(logical.width());
  std::iota(bits.begin(), bits.end(), 0u);
  kernel_ =
      make_module_kernel(module_, bits, bits, machine_truth_table(logical));
}

BernoulliEstimate LogicalGateExperiment::run(double g) const {
  ParallelMcOptions mc;
  return drive_workload(kernel_, config_, g, mc, -1,
                        [&](const NoiseModel& model, auto factory) {
                          return run_parallel_mc(module_.physical, model, mc,
                                                 factory);
                        });
}

telemetry::StreamResult<BernoulliEstimate> LogicalGateExperiment::run_streaming(
    double g, const telemetry::StreamOptions& stream) const {
  telemetry::StreamOptions opts = stream;
  return drive_workload(kernel_, config_, g, opts.mc, -1,
                        [&](const NoiseModel& model, auto factory) {
                          return telemetry::run_streaming_mc(
                              module_.physical, model, opts, factory);
                        });
}

std::vector<ThresholdPoint> sweep_gate_error(const LogicalGateExperiment& exp,
                                             const std::vector<double>& gs) {
  std::vector<ThresholdPoint> points;
  points.reserve(gs.size());
  for (double g : gs) points.push_back({g, exp.run(g)});
  return points;
}

MemoryExperiment::MemoryExperiment(const Config& config) : config_(config) {
  REVFT_CHECK_MSG(config.rounds >= 1, "MemoryExperiment: rounds >= 1");
  // Chain R recovery stages, each picking up the previous rotation.
  circuit_ = Circuit(9);
  EcLayout layout;
  layout.data = {0, 1, 2};
  layout.ancilla = {3, 4, 5, 6, 7, 8};
  const std::vector<std::uint32_t> entry(layout.data.begin(),
                                         layout.data.end());
  for (int round = 0; round < config.rounds; ++round) {
    const EcStage stage = make_ec_stage(9, layout, /*with_init=*/true);
    circuit_.append(stage.circuit);
    layout.data = stage.after.data;
    layout.ancilla = stage.after.ancilla;
  }
  std::vector<std::uint32_t> exit(layout.data.begin(), layout.data.end());
  kernel_ = make_workload_kernel(3, entry, 3, std::move(exit), {0, 1});
}

BernoulliEstimate MemoryExperiment::run(double g) const {
  ParallelMcOptions mc;
  return drive_workload(kernel_, config_, g, mc, -1,
                        [&](const NoiseModel& model, auto factory) {
                          return run_parallel_mc(circuit_, model, mc, factory);
                        });
}

CodewordCycleExperiment::CodewordCycleExperiment(
    Circuit circuit, std::array<std::array<std::uint32_t, 3>, 3> data_before,
    std::array<std::array<std::uint32_t, 3>, 3> data_after, const Config& config,
    std::vector<RecoveryBoundary> boundaries)
    : circuit_(std::move(circuit)), config_(config) {
  REVFT_CHECK_MSG(gate_arity(config.gate) == 3,
                  "CodewordCycleExperiment: need a 3-bit gate");
  std::vector<std::uint32_t> entry, exit;
  for (const auto& cw : data_before)
    entry.insert(entry.end(), cw.begin(), cw.end());
  for (const auto& cw : data_after)
    exit.insert(exit.end(), cw.begin(), cw.end());
  std::vector<unsigned> truth;
  for (unsigned v = 0; v < 8; ++v)
    truth.push_back(gate_apply_local(config.gate, v));
  // Rail the cycle exactly as the checked machines arm theirs: a zero
  // check per recovery boundary plus the entry known-zero promise
  // (the kernel prepares only the data_before cells), coupled per the
  // known_zero contract. No boundaries = plain rail, final checkpoint
  // only.
  checked_ = detect::to_parity_rail(
      circuit_,
      boundary_rail_options(boundaries, entry, circuit_.width(), config.check));
  kernel_ = make_workload_kernel(3, std::move(entry), 3, std::move(exit),
                                 std::move(truth));
}

BernoulliEstimate CodewordCycleExperiment::run(double g) const {
  ParallelMcOptions mc;
  return drive_workload(kernel_, config_, g, mc, -1,
                        [&](const NoiseModel& model, auto factory) {
                          return run_parallel_mc(circuit_, model, mc, factory);
                        });
}

detect::DetectionEstimate CodewordCycleExperiment::run_checked(
    double g, int threads) const {
  // Decorrelate from the unchecked arm (the railed circuit consumes a
  // different op stream anyway, but keep the seeds visibly distinct).
  Config config = config_;
  config.seed ^= 0x9e3779b97f4a7c15ULL;
  ParallelMcOptions mc;
  return drive_workload(kernel_, config, g, mc, threads,
                        [&](const NoiseModel& model, auto factory) {
                          return detect::run_parallel_checked_mc(
                              checked_, model, mc, factory);
                        });
}

CheckedMachineExperiment::CheckedMachineExperiment(CheckedMachineProgram program,
                                                   const Circuit& logical,
                                                   const Config& config)
    : program_(std::move(program)), config_(config) {
  REVFT_CHECK_MSG(logical.width() == program_.logical_bits,
                  "CheckedMachineExperiment: program/logical width mismatch");
  kernel_ = make_machine_kernel(program_, machine_truth_table(logical));
}

detect::DetectionEstimate CheckedMachineExperiment::run(
    double g, int threads, telemetry::Trace* trace) const {
  ParallelMcOptions mc;
  return drive_workload(
      kernel_, config_, g, mc, threads,
      [&](const NoiseModel& model, auto factory) {
        return detect::run_parallel_checked_mc(program_.checked, model, mc,
                                               factory, trace);
      });
}

telemetry::StreamResult<detect::DetectionEstimate>
CheckedMachineExperiment::run_streaming(double g,
                                        const telemetry::StreamOptions& stream,
                                        telemetry::Trace* trace) const {
  telemetry::StreamOptions opts = stream;
  return drive_workload(
      kernel_, config_, g, opts.mc, -1,
      [&](const NoiseModel& model, auto factory) {
        return telemetry::run_streaming_checked_mc(program_.checked, model,
                                                   opts, factory, trace);
      });
}

}  // namespace revft
