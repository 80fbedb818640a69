#include "ft/machine_kernel.h"

#include <bit>
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

namespace {

/// Repeated majority over consecutive triples of the n = 3^L cells at
/// `cells`, all W lane words at once: out[i] is lane word i.
void decode_words(const PackedState& state, const std::uint32_t* cells,
                  std::uint32_t n, unsigned W, std::uint64_t* out) {
  if (n == 1) {
    const std::uint64_t* cell = state.words(cells[0]);
    for (unsigned i = 0; i < W; ++i) out[i] = cell[i];
    return;
  }
  n /= 3;
  std::uint64_t a[kMaxLaneWords], b[kMaxLaneWords];
  decode_words(state, cells, n, W, a);
  decode_words(state, cells + n, n, W, b);
  decode_words(state, cells + 2 * n, n, W, out);
  for (unsigned i = 0; i < W; ++i)
    out[i] = (a[i] & b[i]) | (out[i] & (a[i] ^ b[i]));
}

}  // namespace

void MachineWorkloadKernel::classify_words(const PackedState& state,
                                           std::uint64_t,
                                           LaneMask& wrong) const {
  const Io& w = *io;
  const unsigned W = state.lane_words();
  wrong = LaneMask(W);
  std::uint64_t expected[kMaxLaneWords], decoded[kMaxLaneWords];
  for (std::uint32_t k = 0; k < w.outputs; ++k) {
    for (unsigned i = 0; i < W; ++i) expected[i] = 0;
    for (std::uint32_t t = w.anf_start[k]; t < w.anf_start[k + 1]; ++t) {
      std::uint64_t term[kMaxLaneWords];
      for (unsigned i = 0; i < W; ++i) term[i] = ~0ULL;
      for (std::uint32_t m = w.anf[t]; m != 0; m &= m - 1) {
        const std::uint64_t* in =
            lane_inputs.data() + std::countr_zero(m) * std::size_t{W};
        for (unsigned i = 0; i < W; ++i) term[i] &= in[i];
      }
      for (unsigned i = 0; i < W; ++i) expected[i] ^= term[i];
    }
    decode_words(state, w.exit.data() + k * w.exit_stride, w.exit_stride, W,
                 decoded);
    for (unsigned i = 0; i < W; ++i)
      wrong.data()[i] |= expected[i] ^ decoded[i];
  }
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
  // Möbius transform over the packed words, in place: afterwards bit k
  // of truth[m] is the coefficient of monomial m in output k's ANF.
  const std::uint32_t size = static_cast<std::uint32_t>(truth.size());
  for (std::uint32_t half = 1; half < size; half <<= 1)
    for (std::uint32_t x = 0; x < size; x += 2 * half)
      for (std::uint32_t y = x; y < x + half; ++y) truth[y + half] ^= truth[y];
  std::vector<std::uint32_t> terms;  // monomials of some output's ANF
  for (std::uint32_t m = 0; m < size; ++m)
    if (truth[m] != 0) terms.push_back(m);
  for (std::uint32_t k = 0; k < io.outputs; ++k) {
    io.anf_start.push_back(static_cast<std::uint32_t>(io.anf.size()));
    for (const std::uint32_t m : terms)
      if ((truth[m] >> k) & 1u) io.anf.push_back(m);
  }
  io.anf_start.push_back(static_cast<std::uint32_t>(io.anf.size()));
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
