#include "ft/machine_kernel.h"

#include <numeric>

#include "rev/simulator.h"
#include "support/error.h"

namespace revft {

std::vector<unsigned> machine_truth_table(const Circuit& logical) {
  REVFT_CHECK_MSG(logical.width() <= 16,
                  "machine_truth_table: capped at 16 bits");
  std::vector<unsigned> truth;
  truth.reserve(1u << logical.width());
  for (unsigned v = 0; v < (1u << logical.width()); ++v)
    truth.push_back(static_cast<unsigned>(simulate(logical, v)));
  return truth;
}

unsigned MachineWorkloadKernel::decode(const PackedState& state, int lane,
                                       const std::uint32_t* cells,
                                       std::uint32_t n) {
  if (n == 1) return state.bit_lane(cells[0], lane);
  if (n == 3) return vote(state, lane, cells);
  n /= 3;
  const unsigned votes = decode(state, lane, cells, n) +
                         decode(state, lane, cells + n, n) +
                         decode(state, lane, cells + 2 * n, n);
  return votes >= 2 ? 1u : 0u;
}

MachineWorkloadKernel make_workload_kernel(std::uint32_t entry_stride,
                                           std::vector<std::uint32_t> entry,
                                           std::uint32_t exit_stride,
                                           std::vector<std::uint32_t> exit,
                                           std::vector<unsigned> truth) {
  std::uint64_t power = 1;
  while (power < exit_stride) power *= 3;
  REVFT_CHECK_MSG(entry_stride >= 1 && entry.size() % entry_stride == 0,
                  "make_workload_kernel: entry stride " << entry_stride);
  REVFT_CHECK_MSG(power == exit_stride && exit.size() % exit_stride == 0,
                  "make_workload_kernel: exit stride " << exit_stride
                                                       << " not 3^L");
  MachineWorkloadKernel::Io io;
  io.inputs = static_cast<std::uint32_t>(entry.size() / entry_stride);
  io.outputs = static_cast<std::uint32_t>(exit.size() / exit_stride);
  REVFT_CHECK_MSG(io.inputs <= 16 && truth.size() == (1u << io.inputs),
                  "make_workload_kernel: " << truth.size()
                                           << "-entry truth table for "
                                           << io.inputs << " inputs");
  REVFT_CHECK_MSG(io.outputs <= 32,
                  "make_workload_kernel: " << io.outputs << " outputs");
  io.entry_stride = entry_stride;
  io.exit_stride = exit_stride;
  io.entry = std::move(entry);
  io.exit = std::move(exit);
  io.truth = std::move(truth);
  return MachineWorkloadKernel{
      std::make_shared<const MachineWorkloadKernel::Io>(std::move(io)), {}};
}

MachineWorkloadKernel make_circuit_kernel(const Circuit& circuit) {
  std::vector<std::uint32_t> bits(circuit.width());
  std::iota(bits.begin(), bits.end(), 0u);
  return make_workload_kernel(1, bits, 1, bits, machine_truth_table(circuit));
}

MachineWorkloadKernel make_machine_kernel(const CheckedMachineProgram& program,
                                          const std::vector<unsigned>& truth) {
  std::vector<std::uint32_t> entry, exit;
  for (const auto& cw : program.input_cells)
    entry.insert(entry.end(), cw.begin(), cw.end());
  for (const auto& cw : program.output_cells)
    exit.insert(exit.end(), cw.begin(), cw.end());
  return make_workload_kernel(3, std::move(entry), 3, std::move(exit), truth);
}

MachineWorkloadKernel make_module_kernel(
    const CompiledModule& module, const std::vector<std::uint32_t>& in_bits,
    const std::vector<std::uint32_t>& out_bits, std::vector<unsigned> truth) {
  std::vector<std::uint32_t> entry, exit;
  for (const std::uint32_t bit : in_bits) {
    const auto leaves = collect_data_leaves(BlockTree::canonical(
        module.level,
        bit * static_cast<std::uint32_t>(module.blocks.at(bit).span())));
    entry.insert(entry.end(), leaves.begin(), leaves.end());
  }
  for (const std::uint32_t bit : out_bits) {
    const auto leaves = collect_data_leaves(module.blocks.at(bit));
    exit.insert(exit.end(), leaves.begin(), leaves.end());
  }
  std::uint32_t stride = 1;
  for (int l = 0; l < module.level; ++l) stride *= 3;
  return make_workload_kernel(stride, std::move(entry), stride, std::move(exit),
                              std::move(truth));
}

}  // namespace revft
