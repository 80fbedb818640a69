// revft/ft/machine_kernel.h
//
// THE machine-workload Monte-Carlo kernel: uniformly random logical
// inputs broadcast onto a compiled program's entry cells, majority
// decode at the final slots against an exhaustive truth table.
//
// One definition on purpose: the checked engine
// (CheckedMachineExperiment), the recovering engine
// (RecoveryExperiment) and bench_recover's timing kernels all
// instantiate this type, and the cross-engine bit-for-bit contract
// (tests/test_recover.cpp, RecoveringMc.NoRetryMatchesCheckedEngine-
// BitForBit) holds only while every consumer consumes randomness
// identically — separate copies would drift silently.
#pragma once

#include <cstdint>
#include <vector>

#include "local/checked_machine.h"
#include "noise/packed_sim.h"
#include "noise/parallel_mc.h"
#include "rev/simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace revft {

/// Exhaustive truth table judging a machine workload's outputs
/// (width-capped: the table has 2^width entries).
inline std::vector<unsigned> machine_truth_table(const Circuit& logical) {
  REVFT_CHECK_MSG(logical.width() <= 16,
                  "machine_truth_table: capped at 16 bits");
  std::vector<unsigned> truth;
  truth.reserve(1u << logical.width());
  for (unsigned v = 0; v < (1u << logical.width()); ++v)
    truth.push_back(static_cast<unsigned>(simulate(logical, v)));
  return truth;
}

/// Per-shard kernel (the parallel engines' factory contract): one
/// rng.next() per logical bit per lane word per batch, broadcast to
/// that bit's entry cells; classify majority-decodes one lane's final
/// slots. Works at any lane width (lane_inputs is laid out bit-major,
/// lane_inputs[k * lane_words + w]); at lane_words = 1 the draw order
/// is the legacy one-next()-per-logical-bit stream.
struct MachineWorkloadKernel {
  const CheckedMachineProgram* program;
  const std::vector<unsigned>* truth;
  std::vector<std::uint64_t> lane_inputs;

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    lane_inputs.resize(static_cast<std::size_t>(program->logical_bits) * W);
    for (std::uint32_t k = 0; k < program->logical_bits; ++k) {
      for (unsigned w = 0; w < W; ++w) lane_inputs[k * W + w] = rng.next();
      for (const auto bit : program->input_cells[k]) {
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
    for (std::uint32_t k = 0; k < program->logical_bits; ++k)
      input |= static_cast<unsigned>((lane_inputs[k * W + wi] >> sh) & 1u)
               << k;
    const unsigned expected = (*truth)[input];
    for (std::uint32_t k = 0; k < program->logical_bits; ++k) {
      const auto& cw = program->output_cells[k];
      const int votes = static_cast<int>(state.bit_lane(cw[0], lane)) +
                        static_cast<int>(state.bit_lane(cw[1], lane)) +
                        static_cast<int>(state.bit_lane(cw[2], lane));
      if ((votes >= 2 ? 1u : 0u) != ((expected >> k) & 1u)) return true;
    }
    return false;
  }
};

/// Factory-call convenience: a fresh kernel for one shard.
inline MachineWorkloadKernel make_machine_kernel(
    const CheckedMachineProgram& program, const std::vector<unsigned>& truth) {
  return MachineWorkloadKernel{
      &program, &truth, std::vector<std::uint64_t>(program.logical_bits, 0)};
}

/// The machine experiments' one run setup: CheckedMachineExperiment's
/// and RecoveryExperiment's run and run_streaming all go through it,
/// so both engines draw from the same kernel. Writes `config`'s
/// determinism key into `mc` (`threads` < 0 = the config's), then
/// hands the noise model at g and the kernel factory to run.
template <typename Config, typename Run>
auto drive_machine_workload(const CheckedMachineProgram& program,
                            const std::vector<unsigned>& truth,
                            const Config& config, double g,
                            ParallelMcOptions& mc, int threads, Run&& run) {
  NoiseModel model = NoiseModel::uniform(g);
  if (!config.noisy_init) model.with_perfect_init();
  mc.trials = config.trials;
  mc.seed = config.seed;
  mc.threads = threads < 0 ? config.threads : threads;
  mc.lane_words = config.lane_words;
  return run(model, [&program, &truth](std::uint64_t) {
    return make_machine_kernel(program, truth);
  });
}

}  // namespace revft
