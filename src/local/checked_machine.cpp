#include "local/checked_machine.h"

#include "detect/parity.h"
#include "support/error.h"

namespace revft {

detect::ParityRailOptions boundary_rail_options(
    const std::vector<RecoveryBoundary>& boundaries,
    const std::vector<std::uint32_t>& entry_data_bits, std::uint32_t width,
    const CheckedMachineOptions& opts) {
  detect::ParityRailOptions rail;
  rail.check_every = opts.check_every;
  // The §3 block layout as a rail partition: one group per 9-cell
  // block (a 3x3 patch in 2D, a 9-cell line segment in 1D).
  if (opts.rails == RailGranularity::kPerBlock)
    rail.rail_partition = detect::partition_into_blocks(width, 9);
  for (const RecoveryBoundary& boundary : boundaries) {
    // The scheduling pass clears rail_checkpoint on the non-final
    // stages of a batch so their zero checks defer into one shared
    // segment delimiter; the checks themselves always register.
    if (opts.rail_check_every_boundary && boundary.rail_checkpoint)
      rail.checkpoint_after.push_back(boundary.op_index);
    if (opts.zero_checks)
      rail.zero_checks.push_back({boundary.op_index, boundary.clean_cells});
  }
  // Elision is only sound under the zero-check net (see the known_zero
  // contract in detect/rail.h), so the promise is armed only when the
  // boundaries provide one — a zero_checks=false ablation then really
  // measures the plain rail.
  if (opts.zero_checks && !boundaries.empty())
    rail.known_zero = detect::known_zero_outside(width, entry_data_bits);
  return rail;
}

CheckedMachineProgram check_machine_program(const MachineProgram& program,
                                            const CheckedMachineOptions& opts) {
  const Circuit& physical = program.physical;
  REVFT_CHECK_MSG(!physical.empty(), "check_machine_program: empty program");

  CheckedMachineProgram out;
  out.logical_bits = static_cast<std::uint32_t>(program.slot_of_logical.size());
  out.slot_of_logical = program.slot_of_logical;
  out.input_cells = program.entry_cells;
  out.output_cells = program.data_cells;
  out.block_transpositions = program.block_transpositions;
  out.routing_cell_swaps = program.routing_cell_swaps;
  out.gate_cycles = program.gate_cycles;
  out.recovery_stages = program.recovery_stages;

  for (const RecoveryBoundary& boundary : program.recovery_boundaries)
    REVFT_CHECK_MSG(boundary.op_index < physical.size(),
                    "check_machine_program: boundary op out of range");
  // Every cell that is not an entry data cell is an ancilla, zero by
  // the machines' preparation contract.
  std::vector<std::uint32_t> data_bits;
  for (const auto& cw : program.entry_cells)
    data_bits.insert(data_bits.end(), cw.begin(), cw.end());
  out.checked = detect::to_parity_rail(
      physical, boundary_rail_options(program.recovery_boundaries, data_bits,
                                      physical.width(), opts));
  // Free-checking accounting: a gate is self-checking for free when it
  // queued no rail compensation — the routing fabric always (SWAP and
  // SWAP3 migrate rail membership instead of compensating, at any
  // granularity), plus every kernel gate whose parity delta the
  // known-zero dataflow elided. The transform itself is the one source
  // of truth, so the split cannot drift from what was actually
  // emitted.
  out.stats.total_ops = physical.size();
  out.stats.compensated_ops = out.checked.compensated_ops;
  out.stats.free_ops = physical.size() - out.checked.compensated_ops;
  for (const auto& [first, last] : program.routing_spans) {
    REVFT_CHECK_MSG(first <= last && last < physical.size(),
                    "check_machine_program: bad routing span");
    out.stats.routing_ops += last - first + 1;
  }
  out.stats.rail_ops = out.checked.rail_ops;
  out.stats.rails = out.checked.rails.size();
  out.stats.checkpoints = out.checked.checkpoints.size();
  out.stats.zero_checks = out.checked.zero_checks.size();
  return out;
}

StateVector machine_data_input(const CheckedMachineProgram& program,
                               std::uint64_t x) {
  StateVector data(program.checked.data_width);
  for (std::uint32_t j = 0; j < program.logical_bits; ++j)
    for (const std::uint32_t cell : program.input_cells[j])
      data.set_bit(cell, static_cast<std::uint8_t>((x >> j) & 1u));
  return data;
}

std::uint64_t machine_decode(const CheckedMachineProgram& program,
                             const StateVector& state) {
  std::uint64_t value = 0;
  for (std::uint32_t j = 0; j < program.logical_bits; ++j) {
    const auto& cw = program.output_cells[j];
    if (state.bit(cw[0]) + state.bit(cw[1]) + state.bit(cw[2]) >= 2)
      value |= 1ull << j;
  }
  return value;
}

CheckedMachine::CheckedMachine(BlockLayout layout, std::uint32_t logical_bits,
                               bool with_init, CheckedMachineOptions opts)
    : base_(layout, logical_bits, with_init), opts_(opts) {}

CheckedMachineProgram CheckedMachine::compile(const Circuit& logical) const {
  return check_machine_program(base_.compile(logical), opts_);
}

}  // namespace revft
