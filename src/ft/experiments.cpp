#include "ft/experiments.h"

#include "ft/ec_circuit.h"
#include "ft/machine_kernel.h"
#include "rev/simulator.h"
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
  // Input leaves come from the canonical (pre-rotation) layout.
  for (std::uint32_t i = 0; i < logical.width(); ++i) {
    const auto block =
        BlockTree::canonical(config.level, i * static_cast<std::uint32_t>(
                                                   module_.blocks[i].span()));
    input_leaves_.push_back(collect_data_leaves(block));
  }
}

namespace {

// Per-shard kernel: lane_inputs is the mutable prepare→classify
// hand-off (bit-major, lane_inputs[k * W + w] holds lane word w of
// logical input bit k), so each shard owns a private copy; everything
// reached through pointers is immutable during the run.
struct LogicalGateKernel {
  const CompiledModule* module;
  const std::vector<std::vector<std::uint32_t>>* input_leaves;
  GateKind gate;
  int arity;
  std::vector<std::uint64_t> lane_inputs;

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    lane_inputs.resize(static_cast<std::size_t>(arity) * W);
    for (int k = 0; k < arity; ++k) {
      for (unsigned w = 0; w < W; ++w)
        lane_inputs[static_cast<std::size_t>(k) * W + w] = rng.next();
      // Broadcast: every data leaf of logical bit k carries that
      // lane-pattern; all other bits stay zero (state was cleared).
      for (const auto bit : (*input_leaves)[static_cast<std::size_t>(k)]) {
        std::uint64_t* dst = state.words(bit);
        for (unsigned w = 0; w < W; ++w)
          dst[w] = lane_inputs[static_cast<std::size_t>(k) * W + w];
      }
    }
  }

  bool classify(const PackedState& state, int lane, std::uint64_t) const {
    const unsigned W = state.lane_words();
    const unsigned wi = static_cast<unsigned>(lane) >> 6;
    const unsigned sh = static_cast<unsigned>(lane) & 63u;
    unsigned input = 0;
    for (int k = 0; k < arity; ++k)
      input |= static_cast<unsigned>(
                   (lane_inputs[static_cast<std::size_t>(k) * W + wi] >> sh) &
                   1u)
               << k;
    const unsigned expected = gate_apply_local(gate, input);
    auto reader = [&](std::uint32_t bit) {
      return static_cast<int>(state.bit_lane(bit, lane));
    };
    for (int k = 0; k < arity; ++k) {
      const int decoded =
          decode_block(module->blocks[static_cast<std::size_t>(k)], reader);
      if (decoded != static_cast<int>((expected >> k) & 1u)) return true;
    }
    return false;
  }
};

}  // namespace

template <typename Run>
auto LogicalGateExperiment::drive(double g, ParallelMcOptions& mc,
                                  Run&& run) const {
  NoiseModel model = NoiseModel::uniform(g);
  if (!config_.noisy_init) model.with_perfect_init();
  mc.trials = config_.trials;
  mc.seed = config_.seed;
  mc.threads = config_.threads;
  const int arity = gate_arity(config_.gate);
  return run(model, [this, arity](std::uint64_t) {
    return LogicalGateKernel{
        &module_, &input_leaves_, config_.gate, arity,
        std::vector<std::uint64_t>(static_cast<std::size_t>(arity), 0)};
  });
}

BernoulliEstimate LogicalGateExperiment::run(double g) const {
  ParallelMcOptions mc;
  return drive(g, mc, [&](const NoiseModel& model, auto factory) {
    return run_parallel_mc(module_.physical, model, mc, factory);
  });
}

telemetry::StreamResult<BernoulliEstimate> LogicalGateExperiment::run_streaming(
    double g, const telemetry::StreamOptions& stream) const {
  telemetry::StreamOptions opts = stream;
  return drive(g, opts.mc, [&](const NoiseModel& model, auto factory) {
    return telemetry::run_streaming_mc(module_.physical, model, opts, factory);
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
  input_ = layout.data;
  for (int round = 0; round < config.rounds; ++round) {
    const EcStage stage = make_ec_stage(9, layout, /*with_init=*/true);
    circuit_.append(stage.circuit);
    layout.data = stage.after.data;
    layout.ancilla = stage.after.ancilla;
  }
  output_ = layout.data;
}

namespace {

struct MemoryKernel {
  std::array<std::uint32_t, 3> input;
  std::array<std::uint32_t, 3> output;
  std::array<std::uint64_t, kMaxLaneWords> lane_values{};

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    for (unsigned w = 0; w < W; ++w) lane_values[w] = rng.next();
    for (auto bit : input) {
      std::uint64_t* dst = state.words(bit);
      for (unsigned w = 0; w < W; ++w) dst[w] = lane_values[w];
    }
  }

  bool classify(const PackedState& state, int lane, std::uint64_t) const {
    const int expected = static_cast<int>(
        (lane_values[static_cast<unsigned>(lane) >> 6] >> (lane & 63)) & 1u);
    const int decoded = (static_cast<int>(state.bit_lane(output[0], lane)) +
                         static_cast<int>(state.bit_lane(output[1], lane)) +
                         static_cast<int>(state.bit_lane(output[2], lane))) >= 2
                            ? 1
                            : 0;
    return decoded != expected;
  }
};

}  // namespace

BernoulliEstimate MemoryExperiment::run(double g) const {
  NoiseModel model = NoiseModel::uniform(g);
  if (!config_.noisy_init) model.with_perfect_init();

  ParallelMcOptions opts;
  opts.trials = config_.trials;
  opts.seed = config_.seed;
  opts.threads = config_.threads;

  return run_parallel_mc(circuit_, model, opts, [&](std::uint64_t) {
    return MemoryKernel{input_, output_, 0};
  });
}

CodewordCycleExperiment::CodewordCycleExperiment(
    Circuit circuit, std::array<std::array<std::uint32_t, 3>, 3> data_before,
    std::array<std::array<std::uint32_t, 3>, 3> data_after, const Config& config,
    std::vector<RecoveryBoundary> boundaries)
    : circuit_(std::move(circuit)),
      before_(data_before),
      after_(data_after),
      config_(config) {
  REVFT_CHECK_MSG(gate_arity(config.gate) == 3,
                  "CodewordCycleExperiment: need a 3-bit gate");
  // Rail the cycle exactly as the checked machines arm theirs: a zero
  // check per recovery boundary plus the entry known-zero promise
  // (the kernels prepare only the data_before cells), coupled per the
  // known_zero contract. No boundaries = plain rail, final checkpoint
  // only.
  std::vector<std::uint32_t> data_bits;
  for (const auto& cw : before_)
    data_bits.insert(data_bits.end(), cw.begin(), cw.end());
  checked_ = detect::to_parity_rail(
      circuit_, boundary_rail_options(boundaries, data_bits, circuit_.width(),
                                      config.check));
}

namespace {

struct CodewordCycleKernel {
  const std::array<std::array<std::uint32_t, 3>, 3>* before;
  const std::array<std::array<std::uint32_t, 3>, 3>* after;
  GateKind gate;
  std::array<std::uint64_t, 3 * kMaxLaneWords> lane_inputs{};

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    for (unsigned k = 0; k < 3; ++k) {
      for (unsigned w = 0; w < W; ++w) lane_inputs[k * W + w] = rng.next();
      for (auto bit : (*before)[k]) {
        std::uint64_t* dst = state.words(bit);
        for (unsigned w = 0; w < W; ++w) dst[w] = lane_inputs[k * W + w];
      }
    }
  }

  bool classify(const PackedState& state, int lane, std::uint64_t) const {
    const unsigned W = state.lane_words();
    const unsigned wi = static_cast<unsigned>(lane) >> 6;
    const unsigned sh = static_cast<unsigned>(lane) & 63u;
    unsigned input = 0;
    for (unsigned k = 0; k < 3; ++k)
      input |= static_cast<unsigned>((lane_inputs[k * W + wi] >> sh) & 1u)
               << k;
    const unsigned expected = gate_apply_local(gate, input);
    for (int k = 0; k < 3; ++k) {
      const auto& cw = (*after)[static_cast<std::size_t>(k)];
      const int decoded =
          (static_cast<int>(state.bit_lane(cw[0], lane)) +
           static_cast<int>(state.bit_lane(cw[1], lane)) +
           static_cast<int>(state.bit_lane(cw[2], lane))) >= 2
              ? 1
              : 0;
      if (decoded != static_cast<int>((expected >> k) & 1u)) return true;
    }
    return false;
  }
};

}  // namespace

BernoulliEstimate CodewordCycleExperiment::run(double g) const {
  NoiseModel model = NoiseModel::uniform(g);
  if (!config_.noisy_init) model.with_perfect_init();

  ParallelMcOptions opts;
  opts.trials = config_.trials;
  opts.seed = config_.seed;
  opts.threads = config_.threads;

  return run_parallel_mc(circuit_, model, opts, [&](std::uint64_t) {
    return CodewordCycleKernel{&before_, &after_, config_.gate, {}};
  });
}

detect::DetectionEstimate CodewordCycleExperiment::run_checked(
    double g, int threads) const {
  NoiseModel model = NoiseModel::uniform(g);
  if (!config_.noisy_init) model.with_perfect_init();

  ParallelMcOptions opts;
  opts.trials = config_.trials;
  opts.threads = threads < 0 ? config_.threads : threads;
  // Decorrelate from the unchecked arm (the railed circuit consumes a
  // different op stream anyway, but keep the seeds visibly distinct).
  opts.seed = config_.seed ^ 0x9e3779b97f4a7c15ULL;

  return detect::run_parallel_checked_mc(
      checked_, model, opts, [&](std::uint64_t) {
        return CodewordCycleKernel{&before_, &after_, config_.gate, {}};
      });
}

CheckedMachineExperiment::CheckedMachineExperiment(CheckedMachineProgram program,
                                                   const Circuit& logical,
                                                   const Config& config)
    : program_(std::move(program)), config_(config) {
  REVFT_CHECK_MSG(logical.width() == program_.logical_bits,
                  "CheckedMachineExperiment: program/logical width mismatch");
  truth_ = machine_truth_table(logical);
}

detect::DetectionEstimate CheckedMachineExperiment::run(
    double g, int threads, telemetry::Trace* trace) const {
  ParallelMcOptions mc;
  return drive_machine_workload(
      program_, truth_, config_, g, mc, threads,
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
  return drive_machine_workload(
      program_, truth_, config_, g, opts.mc, -1,
      [&](const NoiseModel& model, auto factory) {
        return telemetry::run_streaming_checked_mc(program_.checked, model,
                                                   opts, factory, trace);
      });
}

}  // namespace revft
