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

CheckedMachineProgram check_machine_program(
    const Circuit& physical, const std::vector<std::uint32_t>& slot_of_logical,
    const std::vector<std::array<std::uint32_t, 3>>& input_cells,
    const std::vector<std::array<std::uint32_t, 3>>& output_cells,
    const std::vector<RecoveryBoundary>& boundaries,
    const std::vector<std::pair<std::size_t, std::size_t>>& routing_spans,
    const CheckedMachineOptions& opts) {
  REVFT_CHECK_MSG(!physical.empty(), "check_machine_program: empty program");

  CheckedMachineProgram out;
  out.logical_bits = static_cast<std::uint32_t>(slot_of_logical.size());
  out.slot_of_logical = slot_of_logical;
  out.input_cells = input_cells;
  out.output_cells = output_cells;

  for (const RecoveryBoundary& boundary : boundaries)
    REVFT_CHECK_MSG(boundary.op_index < physical.size(),
                    "check_machine_program: boundary op out of range");
  // Every cell that is not an entry data cell is an ancilla, zero by
  // the machines' preparation contract.
  std::vector<std::uint32_t> data_bits;
  for (const auto& cw : input_cells)
    data_bits.insert(data_bits.end(), cw.begin(), cw.end());
  out.checked = detect::to_parity_rail(
      physical,
      boundary_rail_options(boundaries, data_bits, physical.width(), opts));

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
  for (const auto& [first, last] : routing_spans) {
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

namespace {

std::vector<std::array<std::uint32_t, 3>> entry_cells(
    std::uint32_t logical_bits, const std::array<std::uint32_t, 3>& offsets) {
  std::vector<std::array<std::uint32_t, 3>> cells;
  cells.reserve(logical_bits);
  for (std::uint32_t i = 0; i < logical_bits; ++i)
    cells.push_back(
        {9 * i + offsets[0], 9 * i + offsets[1], 9 * i + offsets[2]});
  return cells;
}

}  // namespace

CheckedMachine1d::CheckedMachine1d(std::uint32_t logical_bits, bool with_init,
                                   CheckedMachineOptions opts)
    : base_(logical_bits, with_init, opts.schedule.enabled), opts_(opts) {}

CheckedMachineProgram CheckedMachine1d::compile(const Circuit& logical) const {
  Machine1dProgram program = base_.compile(logical);
  schedule_program(program, opts_.schedule);
  CheckedMachineProgram out = check_machine_program(
      program.physical, program.slot_of_logical,
      entry_cells(base_.logical_bits(), {0, 3, 6}), program.data_cells,
      program.recovery_boundaries, program.routing_spans, opts_);
  out.block_transpositions = program.block_transpositions;
  out.routing_cell_swaps = program.routing_cell_swaps;
  out.gate_cycles = program.gate_cycles;
  out.recovery_stages = program.recovery_stages;
  return out;
}

CheckedMachine2d::CheckedMachine2d(std::uint32_t logical_bits, bool with_init,
                                   CheckedMachineOptions opts)
    : base_(logical_bits, with_init, opts.schedule.enabled), opts_(opts) {}

CheckedMachineProgram CheckedMachine2d::compile(const Circuit& logical) const {
  Machine2dProgram program = base_.compile(logical);
  schedule_program(program, opts_.schedule);
  CheckedMachineProgram out = check_machine_program(
      program.physical, program.slot_of_logical,
      entry_cells(base_.logical_bits(), {0, 1, 2}), program.data_cells,
      program.recovery_boundaries, program.routing_spans, opts_);
  out.block_transpositions = program.block_transpositions;
  out.routing_cell_swaps = program.routing_cell_swaps;
  out.gate_cycles = program.gate_cycles;
  out.recovery_stages = program.recovery_stages;
  return out;
}

}  // namespace revft
