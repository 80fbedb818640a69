// revft/local/machine.h
//
// The §3 block machine: B encoded bits, one 9-cell block per logical
// bit, and a compiler from logical circuits to nearest-neighbour
// physical programs. The paper gives one recipe in two geometries —
// the 1D line (Fig 7: 9B cells, data at block cells {0,3,6}) and the
// 2D strip (Fig 4: a 3B x 3 grid, data along each block's top row
// {0,1,2}) — and this is one compiler for both:
//
//   * a logical 3-bit gate routes the operand blocks until they are
//     adjacent in operand order ("when it is necessary to operate on
//     pairs of remote bits, we must first move them close together by
//     a series of SWAP operations"; gather_triple_target in
//     local/router.h picks where they meet), runs the §3 cycle
//     (interleave / transversal gate / uninterleave / recovery) and
//     then the layout's per-block post-cycle stages;
//   * logical NOT is transversal on the data cells (no routing),
//     followed by the layout's recovery stages;
//   * logical initialization resets whole blocks in place.
//
// Everything layout-specific is block-relative and built once per
// compile:
//
//   * the block-pair exchange — one width-18 circuit appended at 9*s
//     to swap the blocks in slots s and s+1. 1D routes the 18-cell
//     window (81 adjacent swaps, the inversion-count optimum); 2D
//     routes each column's 6-cell window (27 swaps, three parallel
//     columns);
//   * the recovery stages after a NOT (1D: one stage; 2D: row then
//     column, so the data ends row-oriented again) and after a cycle on
//     each operand block (2D only: the cycle's Fig 4 recovery leaves
//     the data column-oriented, and one column stage restores the row
//     orientation — the paper's footnote-3 rotation tracked
//     explicitly);
//   * the at-rest offsets: the data cells and the six clean (zero)
//     ancilla cells of a block between operations, read off the last
//     NOT stage's Ec1d / Ec2d data_after / clean_after.
//
// Block-relative contract: a block at rest in slot s holds its
// codeword at 9*s + data offsets and zeros at 9*s + rest_clean, in
// either layout; every emitted stage records a RecoveryBoundary
// (local/recovery_meta.h) with the cells it leaves zero, so the
// checked machines, the scheduling pass and the recovering engine
// read one program shape.
//
// Routing is lazy: blocks stay where a gate leaves them, and the next
// gate routes from the current arrangement (slot_of_logical maps
// logical bits to final block slots). The compiled program is
// nearest-neighbour throughout (1D init3 exempt, as §3.2 counts it).
//
// compile() ends with the scheduling pass (local/schedule.h), which
// wave-packs the routing and adds interior boundaries. There is one
// layout: the unchecked program is, op for op, the original-op
// sequence its checked program wraps (CheckedMachine::compile is the
// rail transform of this output).
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "local/recovery_meta.h"
#include "rev/circuit.h"

namespace revft {

/// Geometry of the block machine.
enum class BlockLayout {
  k1d,  ///< Fig 7 line of 9B cells; data at block cells {0,3,6}
  k2d,  ///< Fig 4 strip of 3B x 3 cells; data along block row 0
};

/// Result of compiling a logical circuit onto a block machine.
struct MachineProgram {
  Circuit physical;  ///< width 9 * logical_bits, fully local
  /// slot_of_logical[i] = final block slot of logical bit i.
  std::vector<std::uint32_t> slot_of_logical;
  /// Data cells of logical bit i at program entry (block slot i).
  std::vector<std::array<std::uint32_t, 3>> entry_cells;
  /// Data cells of logical bit i at program exit (its final slot).
  std::vector<std::array<std::uint32_t, 3>> data_cells;
  /// Block-relative cells that are zero whenever a block is at rest
  /// (between operations) in a fault-free run.
  std::array<std::uint32_t, 6> rest_clean{};
  /// Rail metadata: every block-recovery stage (and block init) the
  /// program contains, in op order, with the cells it leaves zero — a
  /// checked machine turns each into a checkpoint + zero check, and
  /// because the compiler records them while chaining cycles, the
  /// checks compose across any program length.
  std::vector<RecoveryBoundary> recovery_boundaries;
  /// [first, last] op ranges of block-transposition routing — all
  /// SWAP3/SWAP, i.e. self-checking for free under a parity rail.
  std::vector<std::pair<std::size_t, std::size_t>> routing_spans;
  // Cost accounting.
  std::uint64_t block_transpositions = 0;  ///< block-level moves
  std::uint64_t routing_cell_swaps = 0;    ///< 81 (1D) / 27 (2D) per move
  std::uint64_t gate_cycles = 0;           ///< 3-bit logical cycles run
  std::uint64_t recovery_stages = 0;       ///< EC stages emitted
};

/// Compiler from logical circuits to block-machine programs.
/// Supported logical ops: every reversible 3-bit kind, kNot, kInit3.
/// (2-bit logical gates are not in the §3 constructions; express them
/// with 3-bit gates, e.g. CNOT = Toffoli with a constant-1 bit.)
class Machine {
 public:
  /// A machine with `logical_bits` >= 3 encoded bits.
  Machine(BlockLayout layout, std::uint32_t logical_bits,
          bool with_init = true);

  std::uint32_t logical_bits() const noexcept { return logical_bits_; }
  std::uint32_t cells() const noexcept { return logical_bits_ * 9; }

  /// Compile and schedule (local/schedule.h); throws revft::Error on
  /// unsupported ops.
  MachineProgram compile(const Circuit& logical) const;

 private:
  BlockLayout layout_;
  std::uint32_t logical_bits_;
  bool with_init_;
};

}  // namespace revft
