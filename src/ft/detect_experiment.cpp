#include "ft/detect_experiment.h"

#include <algorithm>

#include "code/repetition.h"
#include "detect/checker.h"
#include "ft/ec_circuit.h"
#include "rev/simulator.h"
#include "support/error.h"

namespace revft {

detect::DetectionCensus checked_maj_cycle_census(
    const std::vector<std::vector<std::uint32_t>>& rail_partition) {
  const EcStage stage = make_fig2_ec(/*with_init=*/true);
  detect::ParityRailOptions opts;
  opts.check_every = 1;
  opts.rail_partition = rail_partition;
  const auto checked = detect::to_parity_rail(stage.circuit, opts);

  std::vector<StateVector> inputs;
  for (int logical = 0; logical <= 1; ++logical) {
    StateVector sv(9);
    for (auto bit : stage.before.data)
      sv.set_bit(bit, static_cast<std::uint8_t>(logical));
    inputs.push_back(std::move(sv));
  }
  return detect::single_fault_detection_census(
      checked, inputs, [&](const StateVector& out, std::size_t input) {
        return majority3(out.bit(stage.after.data[0]),
                         out.bit(stage.after.data[1]),
                         out.bit(stage.after.data[2])) !=
               static_cast<int>(input);
      });
}

detect::DetectionCensus machine_detection_census(
    const CheckedMachineProgram& program, const Circuit& logical) {
  const std::uint32_t bits = logical.width();
  REVFT_CHECK_MSG(bits == program.logical_bits && bits <= 16,
                  "machine_detection_census: program/logical mismatch");
  std::vector<StateVector> inputs;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t x = 0; x < (1ull << bits); ++x) {
    inputs.push_back(machine_data_input(program, x));
    expected.push_back(simulate(logical, x));
  }
  return detect::single_fault_detection_census(
      program.checked, inputs, [&](const StateVector& out, std::size_t in) {
        return machine_decode(program, out) != expected[in];
      });
}

Circuit DetectVsCorrectExperiment::scrambler_round() {
  // MAJ for nonlinear mixing, a rotation so every line visits every
  // role, and a CNOT so corruption crosses lines linearly too. The
  // round is reversible and its repeated composition has full period
  // over several rounds (no early fixpoint that would mask errors).
  Circuit round(3);
  round.maj(0, 1, 2).swap3(0, 1, 2).cnot(2, 0);
  return round;
}

namespace {

/// Checkpoint density of the detection arm, in original (pre-rail)
/// ops between invariant evaluations.
constexpr std::size_t kDetectionCheckEvery = 6;

Circuit repeat_rounds(const Circuit& round, int rounds) {
  Circuit chain(round.width());
  for (int r = 0; r < rounds; ++r) chain.append(round);
  return chain;
}

}  // namespace

DetectVsCorrectExperiment::DetectVsCorrectExperiment(
    const DetectVsCorrectConfig& config)
    : config_(config) {
  REVFT_CHECK_MSG(config.gate_budget >= 1, "DetectVsCorrect: empty budget");
  const Circuit round = scrambler_round();

  // Correction arm: ops per level-1 round measured on a one-round
  // compile, then the chain recompiled at the chosen length. The
  // recovery inits are always IN the circuit (a multi-round chain
  // needs its ancillas re-zeroed every round); noisy_init only decides
  // whether the noise model charges them (model.with_perfect_init()
  // in run()).
  const ConcatOptions concat_opts{true};
  const std::uint64_t ops_per_round_corr =
      concat_compile(round, 1, concat_opts).physical.size();
  correction_rounds_ = static_cast<int>(
      std::max<std::uint64_t>(1, config.gate_budget / ops_per_round_corr));
  const Circuit correction_chain = repeat_rounds(round, correction_rounds_);
  module_ = concat_compile(correction_chain, 1, concat_opts);
  correction_kernel_ = make_module_kernel(
      module_, {0, 1, 2}, {0, 1, 2}, machine_truth_table(correction_chain));

  // Detection arm: railed ops per round measured the same way (the
  // 3-op encoder is charged once, not per round).
  detect::ParityRailOptions rail_opts;
  rail_opts.check_every = kDetectionCheckEvery;
  const std::uint64_t one_round_railed =
      detect::to_parity_rail(round, rail_opts).circuit.size();
  const std::uint64_t encoder_ops = round.width();
  const std::uint64_t ops_per_round_det = one_round_railed - encoder_ops;
  detection_rounds_ = static_cast<int>(std::max<std::uint64_t>(
      1, (std::max(config.gate_budget, encoder_ops + 1) - encoder_ops) /
             ops_per_round_det));
  const Circuit detection_chain = repeat_rounds(round, detection_rounds_);
  checked_ = detect::to_parity_rail(detection_chain, rail_opts);
  // Data rails 0..2 carry the logical bits in and out; the rail enters
  // zero.
  detection_kernel_ = make_circuit_kernel(detection_chain);
}

detect::DetectionEstimate DetectVsCorrectExperiment::run_detection(
    double g, int threads) const {
  // Decorrelate the arms without coupling them to each other's stream.
  DetectVsCorrectConfig config = config_;
  config.seed ^= 0x9e3779b97f4a7c15ULL;
  ParallelMcOptions mc;
  return drive_workload(detection_kernel_, config, g, mc, threads,
                        [&](const NoiseModel& model, auto factory) {
                          return detect::run_parallel_checked_mc(
                              checked_, model, mc, factory);
                        });
}

DetectVsCorrectPoint DetectVsCorrectExperiment::run(double g) const {
  DetectVsCorrectPoint point;
  point.g = g;
  ParallelMcOptions mc;
  point.correction = drive_workload(
      correction_kernel_, config_, g, mc, -1,
      [&](const NoiseModel& model, auto factory) {
        return run_parallel_mc(module_.physical, model, mc, factory);
      });
  point.detection = run_detection(g, config_.threads);
  return point;
}

}  // namespace revft
