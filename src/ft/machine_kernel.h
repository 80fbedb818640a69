// revft/ft/machine_kernel.h
//
// THE workload Monte-Carlo kernel. Every experiment measures the same
// thing: the probability that a module's logical outputs
// majority-decode wrong on uniformly random logical inputs — the §2.2
// threshold (LogicalGateExperiment), §2.3 memory, the §3 local cycles,
// both detection-vs-correction arms and the checked and recovering
// machines. One kernel serves them all, driven by a flat description
// of the workload's logical I/O (MachineWorkloadKernel::Io):
//
//   entry — entry_stride cells per logical input bit, bit-major.
//           prepare broadcasts the bit's random lane pattern to all of
//           them; every other cell stays zero (the state arrives
//           cleared).
//   exit  — exit_stride cells per logical output bit, bit-major, in
//           DECODE ORDER: the bit's value is repeated majority over
//           consecutive triples, so a 3-cell exit is one codeword's
//           majority, a single cell is a raw read, and the 3^L cells
//           of collect_data_leaves(block) reproduce decode_block(block)
//           at level L (tests/test_block_tree.cpp).
//   truth — 2^inputs expected output words (bit k = logical output k),
//           indexed by the input word (bit k = logical input k). The
//           kernel keeps each output's algebraic normal form instead
//           (one Möbius transform over the packed words at build), so
//           classify_words evaluates a whole batch in word operations
//           (MachineKernel.WordJudgeMatchesPerLaneReference checks it
//           lane for lane against the per-lane decode).
//
// Input and output counts may differ: an adder draws its operands and
// judges only its sum. prepare draws, for each logical input bit k in
// order, lane_words rng.next() words — at lane_words = 1 the legacy
// one-next()-per-logical-bit stream.
//
// One definition on purpose: every experiment pin (tests/
// test_experiments.cpp, test_simd_lanes.cpp) and the cross-engine
// bit-for-bit contract (tests/test_recover.cpp, RecoveringMc.
// NoRetryMatchesCheckedEngineBitForBit) hold only while every consumer
// consumes randomness and judges outputs identically — separate copies
// would drift silently. That contract covers the checked engine's
// every-lane batches: scripted runs, and sampled runs whose trials
// fault with chance q > 1/2. Below that the checked engine prepares
// only its faulty lanes, on a stream of its own, and matches the
// recovering engine in law, not bit for bit (detect/checked_mc.h).
// prepare draws each lane's inputs i.i.d., whatever the lane's
// position, which is what lets it do so.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ft/concat.h"
#include "local/checked_machine.h"
#include "noise/packed_sim.h"
#include "noise/parallel_mc.h"
#include "support/rng.h"

namespace revft {

/// Exhaustive truth table judging a workload's outputs when every
/// logical bit is both input and output (width-capped: the table has
/// 2^width entries).
std::vector<unsigned> machine_truth_table(const Circuit& logical);

/// Per-shard kernel (the parallel engines' factory contract). Copies
/// share the immutable Io; lane_inputs is each copy's private
/// prepare→classify_words hand-off, bit-major (lane_inputs[k * W + w]
/// holds lane word w of logical input bit k).
struct MachineWorkloadKernel {
  struct Io {
    std::uint32_t inputs = 0;
    std::uint32_t outputs = 0;
    std::uint32_t entry_stride = 1;
    std::uint32_t exit_stride = 1;
    std::vector<std::uint32_t> entry;  ///< inputs * entry_stride cells
    std::vector<std::uint32_t> exit;   ///< outputs * exit_stride cells
    /// Output k's ANF: the monomials anf[anf_start[k] .. anf_start[k+1])
    /// (bit j = logical input j, 0 = the constant 1), XORed.
    std::vector<std::uint32_t> anf;
    std::vector<std::uint32_t> anf_start;  ///< outputs + 1 offsets
  };

  std::shared_ptr<const Io> io;
  std::vector<std::uint64_t> lane_inputs;

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const Io& w = *io;
    const unsigned W = state.lane_words();
    lane_inputs.resize(static_cast<std::size_t>(w.inputs) * W);
    const std::uint32_t* cells = w.entry.data();
    for (std::uint32_t k = 0; k < w.inputs; ++k) {
      std::uint64_t* in = lane_inputs.data() + k * W;
      for (unsigned i = 0; i < W; ++i) in[i] = rng.next();
      for (std::uint32_t j = 0; j < w.entry_stride; ++j, ++cells) {
        std::uint64_t* dst = state.words(*cells);
        for (unsigned i = 0; i < W; ++i) dst[i] = in[i];
      }
    }
  }

  /// The word judge: sets, in `wrong`, every lane of the batch whose
  /// decoded outputs differ from the truth table at its inputs. Each
  /// expected output word is its ANF evaluated over the lane_inputs
  /// words; each decoded word is the majority word (a & b) | (c &
  /// (a ^ b)), repeated over the 3^L exit cells.
  void classify_words(const PackedState& state, std::uint64_t,
                      LaneMask& wrong) const;
};

/// The kernel of a described workload: `entry` and `exit` list
/// entry_stride / exit_stride cells per logical bit (see the file
/// comment); the counts follow from the list sizes, and `truth` must
/// have 2^inputs entries.
MachineWorkloadKernel make_workload_kernel(std::uint32_t entry_stride,
                                           std::vector<std::uint32_t> entry,
                                           std::uint32_t exit_stride,
                                           std::vector<std::uint32_t> exit,
                                           std::vector<unsigned> truth);

/// A bare circuit: bit k enters and exits on cell k, judged by
/// machine_truth_table(circuit).
MachineWorkloadKernel make_circuit_kernel(const Circuit& circuit);

/// A checked machine program: logical bit k enters on input_cells[k]
/// and exits on output_cells[k], judged against `truth`.
MachineWorkloadKernel make_machine_kernel(const CheckedMachineProgram& program,
                                          const std::vector<unsigned>& truth);

/// A concatenated module (ft/concat.h): logical input k enters on the
/// data leaves of bit in_bits[k]'s canonical (pre-rotation) block and
/// output k exits on the leaves of module.blocks[out_bits[k]].
MachineWorkloadKernel make_module_kernel(
    const CompiledModule& module, const std::vector<std::uint32_t>& in_bits,
    const std::vector<std::uint32_t>& out_bits, std::vector<unsigned> truth);

/// The experiments' one run setup: every ft/ experiment's run,
/// run_checked and run_streaming go through it. Writes `config`'s
/// determinism key into `mc` — trials, seed, threads (`threads` < 0 =
/// the config's) and lane_words where the config has one — then hands
/// the noise model at g (perfect init unless config.noisy_init) and a
/// factory of copies of `kernel` to run(model, factory).
template <typename Config, typename Run>
auto drive_workload(const MachineWorkloadKernel& kernel, const Config& config,
                    double g, ParallelMcOptions& mc, int threads, Run&& run) {
  NoiseModel model = NoiseModel::uniform(g);
  if (!config.noisy_init) model.with_perfect_init();
  mc.trials = config.trials;
  mc.seed = config.seed;
  mc.threads = threads < 0 ? config.threads : threads;
  if constexpr (requires { config.lane_words; })
    mc.lane_words = config.lane_words;
  return run(model, [&kernel](std::uint64_t) { return kernel; });
}

}  // namespace revft
