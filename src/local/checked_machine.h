// revft/local/checked_machine.h
//
// Detection-aware local machines: the §3 block machines with the
// detect/ parity rails threaded through their compiled physical
// programs. The synthesis is nearly free because of a structural
// coincidence the paper never exploits: every routing primitive of the
// locally-connected schemes is a SWAP/SWAP3 chain, and swaps are
// parity-preserving — so the routing fabric (81 cell swaps per 1D
// block transposition, 27 per 2D) is self-checking at ZERO extra gate
// cost wherever it stays inside one rail group. Only the recovery/gate
// kernels (MAJ, MAJ⁻¹, Toffoli-like transversal gates, init3) and —
// under per-block rails — the few swaps crossing a block-territory
// boundary need rail compensation.
//
// The machines arm a rail PARTITION derived from their block layout
// (RailGranularity::kPerBlock, the default): one rail per 9-cell block
// territory, so each rail carries the running parity of one logical
// bit's patch. A partition detects a strict superset of the single
// global rail (any corruption odd in some block fires that block's
// rail even when the total weight is even) and LOCALIZES the damage:
// the fired rail names the block to re-run, turning whole-program
// aborts into block-sized retries (see examples/multi_rail.cpp for the
// economics). The classic single rail remains available as
// RailGranularity::kGlobal — bit-for-bit the PR 2/3 configuration.
//
// The transform registers a checkpoint at every recovery boundary the
// machine compiler recorded (local/recovery_meta.h): the boundary's
// clean cells become a detect::ZeroCheck, and the rail invariants are
// evaluated at the always-present final checkpoint (per boundary too,
// optionally — violations persist, so the final evaluation already
// sees every single-fault flip). The pairing matters: the rails catch
// every corruption that is odd in some group, while the zero checks
// catch the even-per-group escapes — a cross-codeword swap fault in
// the 1D interleave damages one bit of two different codewords (total
// parity unchanged!) but leaves both codewords non-uniform, so their
// next recovery decodes a nonzero syndrome. Per-block rails see the
// odd-per-block half of those interleave faults directly (the half
// that straddles a territory boundary — the pinned census test), but
// both-in-one-territory damage still needs the boundary checks. The
// exhaustive census (tests/test_local_checked.cpp) proves the
// combination fault-secure at either granularity: no single fault of a
// checked 1D or 2D single-cycle program is both silent and harmful.
// Without the zero checks the 1D machine has exactly such faults — the
// interleave finding of bench_fig7 in detection clothing.
//
// Composition (cf. arXiv:0812.3871's invariant relationships): the
// boundary list is recorded while cycles chain, so a B-bit program of
// any length carries checkpoints at every block recovery, and the 2D
// machine's re-orientation stages keep decode positions fixed — the
// rail metadata composes with no per-workload bookkeeping.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "detect/rail.h"
#include "local/machine.h"

namespace revft {

/// Rail-partition granularity of a checked machine (see
/// detect::ParityRailOptions::rail_partition).
enum class RailGranularity {
  /// One rail over every cell — the classic single parity rail (the
  /// PR 2/3 configuration, bit-for-bit).
  kGlobal,
  /// One rail per 9-cell block (a logical bit's 3x3 patch in 2D, its
  /// 9-cell line segment in 1D), derived from the machines' block
  /// layout; any cells outside the blocks would form one residual
  /// routing-ancilla rail (the current machines have none). Catches
  /// even-weight corruptions that are odd per block — the
  /// cross-codeword interleave faults a global rail cannot see — and
  /// localizes which block's rail fired, at the cost of compensating
  /// the few routing swaps that cross block territory.
  kPerBlock,
};

struct CheckedMachineOptions {
  /// Rail partition granularity. Per-block is the shipped default:
  /// the routing fabric stays parity-preserving *within* each block's
  /// territory, so only territory-boundary crossings pay compensation,
  /// and the census (tests/test_local_checked.cpp) proves the
  /// combination with the boundary zero checks fault-secure.
  RailGranularity rails = RailGranularity::kPerBlock;
  /// Register each recovery boundary's clean cells as a ZeroCheck (the
  /// even-weight net; disable to measure what the plain rails alone
  /// catch). The net also arms the entry known-zero promise: every
  /// non-data cell is zero at program entry (true for every census and
  /// Monte-Carlo preparation in this repo), so the known-zero dataflow
  /// elides the encoder and compensation gates that are provably no-ops
  /// fault-free — most of the recovery stages' rail traffic. Elision
  /// narrows the rail's guarantee to states reachable from the promise
  /// (see ParityRailOptions::known_zero); the boundary checks cover the
  /// promised cells, and the census proves the combination
  /// fault-secure.
  bool zero_checks = true;
  /// Also evaluate the GLOBAL rail invariant at every recovery
  /// boundary (on top of the boundary zero checks, which always sit
  /// there). Off by default: for the un-elided rail an invariant
  /// violation persists (every op group conserves I on every state),
  /// so the always-present final checkpoint sees it, and for the
  /// shipped elided-plus-zero-checks configuration the exhaustive
  /// census proves fault security without them — while each costs one
  /// data_width-word parity reduction, the dominant term of the
  /// checked kernel on wide machines. Turn on for denser multi-fault
  /// observation (cancellations between boundaries are an O(g^2)
  /// effect) or for violation localization in the scalar checker.
  bool rail_check_every_boundary = false;
  /// Extra periodic rail checkpoints every N original ops on top of
  /// the boundary checkpoints (0 = boundaries + final only).
  std::size_t check_every = 0;
};

/// Self-checking accounting of one compiled program.
struct CheckingStats {
  std::uint64_t total_ops = 0;        ///< original physical ops
  std::uint64_t free_ops = 0;         ///< parity-preserving: checked for free
  std::uint64_t compensated_ops = 0;  ///< need a rail-compensation gate
  std::uint64_t routing_ops = 0;      ///< block-transposition swaps (all free)
  std::uint64_t rail_ops = 0;         ///< encoder + compensation gates added
  std::uint64_t rails = 1;            ///< parity rails armed (partition size)
  std::uint64_t checkpoints = 0;
  std::uint64_t zero_checks = 0;

  /// Fraction of original ops that are self-checking at zero cost.
  double free_fraction() const noexcept {
    return total_ops ? static_cast<double>(free_ops) /
                           static_cast<double>(total_ops)
                     : 0.0;
  }
  /// Checked ops per original op (gate-count overhead of the rail).
  double gate_overhead() const noexcept {
    return total_ops ? static_cast<double>(total_ops + rail_ops) /
                           static_cast<double>(total_ops)
                     : 0.0;
  }
};

/// A machine program in parity-rail form plus everything a checked
/// Monte-Carlo or census needs to prepare, decode and audit it.
struct CheckedMachineProgram {
  detect::CheckedCircuit checked;
  std::uint32_t logical_bits = 0;
  std::vector<std::uint32_t> slot_of_logical;
  /// Data cells of logical bit i at program entry (initial slots).
  std::vector<std::array<std::uint32_t, 3>> input_cells;
  /// Data cells of logical bit i at program exit (final slots).
  std::vector<std::array<std::uint32_t, 3>> output_cells;
  CheckingStats stats;
  // Cost accounting carried over from the unchecked program.
  std::uint64_t block_transpositions = 0;
  std::uint64_t routing_cell_swaps = 0;
  std::uint64_t gate_cycles = 0;
  std::uint64_t recovery_stages = 0;
};

/// The data-width entry state of logical input `x`: bit j of x on
/// logical bit j's three input cells, every other data cell zero.
StateVector machine_data_input(const CheckedMachineProgram& program,
                               std::uint64_t x);

/// The logical value a final state carries: bit j is the majority of
/// logical bit j's three output cells. A run is wrong when this
/// differs from simulate(logical, x).
std::uint64_t machine_decode(const CheckedMachineProgram& program,
                             const StateVector& state);

/// Build the rail options every boundary-armed workload (checked
/// machines, cycle experiments) shares: one zero check per boundary,
/// optional per-boundary rail checkpoints, the rail partition derived
/// from the block layout (one 9-cell group per block under
/// RailGranularity::kPerBlock; leftover cells — a machine's routing
/// ancillas, none on the current 9B-cell machines — fall into one
/// residual group), and the entry known-zero promise — armed only
/// together with the zero-check net, the coupling the known_zero
/// contract in detect/rail.h requires.
detect::ParityRailOptions boundary_rail_options(
    const std::vector<RecoveryBoundary>& boundaries,
    const std::vector<std::uint32_t>& entry_data_bits, std::uint32_t width,
    const CheckedMachineOptions& opts);

/// Rail-transform an already-compiled machine program: checkpoint +
/// zero check per recovery boundary, stats from the routing spans, the
/// cost counters carried over.
CheckedMachineProgram check_machine_program(const MachineProgram& program,
                                            const CheckedMachineOptions& opts);

/// Compile-and-check convenience: the block-machine compiler with the
/// rail threaded through every program it emits (Machine::compile,
/// then check_machine_program).
class CheckedMachine {
 public:
  CheckedMachine(BlockLayout layout, std::uint32_t logical_bits,
                 bool with_init = true, CheckedMachineOptions opts = {});

  std::uint32_t logical_bits() const noexcept { return base_.logical_bits(); }

  CheckedMachineProgram compile(const Circuit& logical) const;

 private:
  Machine base_;
  CheckedMachineOptions opts_;
};

/// The two geometries by name.
struct CheckedMachine1d : CheckedMachine {
  explicit CheckedMachine1d(std::uint32_t logical_bits, bool with_init = true,
                            CheckedMachineOptions opts = {})
      : CheckedMachine(BlockLayout::k1d, logical_bits, with_init, opts) {}
};
struct CheckedMachine2d : CheckedMachine {
  explicit CheckedMachine2d(std::uint32_t logical_bits, bool with_init = true,
                            CheckedMachineOptions opts = {})
      : CheckedMachine(BlockLayout::k2d, logical_bits, with_init, opts) {}
};

}  // namespace revft
