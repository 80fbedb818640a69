// revft/detect/rail.h
//
// Parity-rail form of an arbitrary circuit, generalized to a *rail
// partition*: the data bits are split into disjoint groups, and each
// group gets its own parity rail carrying the running XOR of the
// group's bits. An encoder (one CNOT per group member) loads each
// rail; every gate whose action can change a group's parity is
// followed (or, where its inputs are consumed, preceded) by a
// compensation gate that applies the same parity delta to that
// group's rail. For every rail r the quantity
//
//   I_r  =  rail_r XOR (XOR of the bits in group r)
//
// is then conserved by every emitted op *group* on every state — not
// just reachable ones — so I_r != 0 at a checkpoint is proof that some
// fault corrupted the state, and it names WHICH group's bits (or
// rail) took the damage: a partition both detects and localizes.
//
// The default partition is a single group covering all data bits —
// exactly the classic single parity rail, and the transform emits a
// bit-for-bit identical circuit for it. A finer partition detects a
// strict superset of the single rail's faults: the XOR of all rail
// invariants is the single rail's invariant, so any corruption the
// coarse rail sees is odd in some group — and corruptions that are
// even globally but odd per group (a cross-codeword interleave fault)
// become visible at all.
//
// Group membership is not static: an unconditional permutation gate
// (SWAP, SWAP3) MIGRATES membership with the moving values instead of
// paying compensation — the values carry their group along, so every
// rail invariant is conserved with zero added gates, and a machine's
// entire routing fabric stays free at any partition granularity. The
// groups therefore follow the *data*: under the checked machines'
// per-block partition each rail tracks one logical block wherever
// routing carries it, which is exactly the localization a
// block-granular retry wants. In the checked walk (WalkIndex) routing
// is a renaming of cells to slots, so each rail is one fixed slot set:
// its rail bit plus its entry group. index_walk is the one place that
// derives the cells each rail covers at a checkpoint
// (CheckedCircuit::checkpoint_spans), by reading that set back through
// the renaming in force there. Gates that are not unconditional
// permutations and straddle groups (a transversal gate on a gathered
// triple, a conditional Fredkin swap) are compensated per rail with
// the exact parity delta of each group's operand subset.
//
// Checkpoints are recorded op positions; the online checker of the
// packed engine (detect/checked_mc.h, which also runs the single
// checked runs and censuses of detect/checker.h) evaluates every I_r
// there without adding gates, and reports which rail fired. A checked
// circuit is therefore its data bits plus one rail per group and
// nothing else: every observation is an online read, never a gate.
//
// Detection is weaker than correction: a corruption of even weight
// *within every group* leaves all I_r unchanged, and a fault inside a
// compensated group of ops can be absorbed by its own compensation
// gate (the rail hardware computes with the corrupted values).
// Those escapes are exactly the `silent_failures` the detection
// Monte-Carlo measures; for circuits of parity-preserving gates every
// corruption that is odd in some group is provably caught (see
// single_fault_detection_census). Constructions that guarantee clean
// cells at known positions (the §3 recovery stages leave every
// ancilla zero) can close the remaining even-weight escapes too, by
// registering ZeroChecks — see add_zero_check and
// local/checked_machine.h.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "rev/circuit.h"
#include "rev/simulator.h"

namespace revft::detect {

struct ZeroCheck;

struct ParityRailOptions {
  /// Record a checkpoint after every `check_every` original ops
  /// (0 = only the final checkpoint). A checkpoint always lands after
  /// the op group — never between a gate and its compensation.
  std::size_t check_every = 0;
  /// Additional checkpoints after these ORIGINAL op indices (e.g. the
  /// last op of every block-recovery stage of a compiled local-machine
  /// program). Duplicates with the periodic schedule collapse to one
  /// checkpoint; an entry naming the last op folds into the final
  /// checkpoint. Each entry must be < circuit.size().
  std::vector<std::size_t> checkpoint_after;
  /// Partition of the data bits into disjoint rail groups — the ENTRY
  /// membership; SWAP/SWAP3 migrate it with the moving values (see the
  /// file comment). Empty = one group covering every data bit (the
  /// classic single rail; the emitted circuit is bit-for-bit the
  /// single-rail one). Groups must be non-empty, within [0, width) and
  /// pairwise disjoint; bits left out of every group are simply
  /// unwatched by the rails (their corruption is only visible through
  /// zero checks or propagation). Non-permutation gates whose operands
  /// span several groups — or touch unwatched bits — are compensated
  /// per rail from the exact parity delta of each group's operand
  /// subset, so every rail invariant holds on every state regardless
  /// of the partition's geometry.
  std::vector<std::vector<std::uint32_t>> rail_partition;
  /// Bits promised zero at circuit entry (a §3 machine's ancilla
  /// cells). The transform propagates zero-ness exactly through every
  /// gate kind and elides the encoder/compensation gates whose parity
  /// delta is provably zero in every fault-free run — the bulk of the
  /// recovery stages' rail traffic (init3 resets of clean ancillas,
  /// MAJ⁻¹ encoders with zero controls). Fault-free behaviour is
  /// identical, but the conserved invariants now hold only on states
  /// REACHABLE FROM THE PROMISE: a fault that dirties a promised-zero
  /// cell can have its invariant flip cancelled by a later elided
  /// compensation reading the dirty cell, so a lone elided rail
  /// detects strictly less than the plain rail on such faults
  /// (DetectRail.KnownZeroElisionNeedsCoveringZeroChecks pins the
  /// counterexample). Pair elision with `zero_checks` covering the
  /// promised cells — the check flags the dirty state before an
  /// elided group can absorb it — and let the exhaustive census
  /// arbitrate the combination (the checked machines do both). Inputs
  /// that violate the promise raise false alarms — callers own the
  /// contract (widen_input does not check it).
  std::vector<std::uint32_t> known_zero;
  /// Zero checks to register during the transform, with op_index
  /// naming ORIGINAL ops (sorted). Beyond what add_zero_check does
  /// after the fact, the transform RE-ARMS the known-zero flags at
  /// each check: once the checker has asserted the cells clean, any
  /// state where they are not is already flagged (detection is
  /// sticky), so downstream compensation against those cells may be
  /// elided as well — in a chained machine program this removes the
  /// recovery stages' init/encode rail traffic wholesale. Faults
  /// landing between a check and an elided group reshape what is
  /// detectable; the exhaustive census stays the arbiter
  /// (tests/test_local_checked.cpp proves the machine configurations
  /// fault-secure).
  std::vector<ZeroCheck> zero_checks;
};

/// A side-condition checkpoint: after op `op_index`, every listed bit
/// must be zero in a fault-free run. The coordinate system of
/// op_index depends on where the check lives: entries in
/// ParityRailOptions::zero_checks name ORIGINAL ops (the transform
/// maps them), entries in CheckedCircuit::zero_checks name CHECKED
/// ops (already mapped). The parity rails only see corruptions that
/// are odd in some group; zero checks close the remaining even-weight
/// escapes wherever the construction guarantees clean cells — e.g.
/// the recovery stages of the §3 local schemes leave every ancilla
/// holding a syndrome that is zero unless some earlier fault
/// corrupted the codeword. Like rail checkpoints they are pure
/// observations: the online checkers read the bits, no gates are
/// added.
struct ZeroCheck {
  std::size_t op_index = 0;
  std::vector<std::uint32_t> bits;
};

/// One parity rail of a checked circuit: the data bits whose XOR it
/// carries at ENTRY, the circuit bit holding the running parity, and
/// the encoder/compensation gates attributed to it. Membership
/// migrates through SWAP/SWAP3 in cell space, but in the checked walk
/// (WalkIndex) the rail bit plus the entry group is the rail's one
/// fixed slot set; index_walk derives the per-checkpoint cells from
/// it (CheckedCircuit::checkpoint_spans).
struct RailInfo {
  /// Data bits of the rail's group at circuit entry, ascending, and
  /// its slots for the whole walk. Disjoint across rails.
  std::vector<std::uint32_t> group;
  /// Circuit bit carrying the group's running parity
  /// (data_width + rail index). No SWAP/SWAP3 moves it (index_walk
  /// rejects one that does), so it is its own slot too.
  std::uint32_t rail_bit = 0;
  /// Encoder + compensation gates emitted for this rail.
  std::uint64_t rail_ops = 0;
};

/// Rail membership at one checkpoint, in cell space and CSR form:
/// every watched data bit of the checkpoint, rail-major, so the
/// cell-space readers stream one contiguous array instead of chasing
/// per-group vectors. index_walk derives it.
struct CheckpointSpan {
  /// Watched data bits at this checkpoint, rail-major: rail r's group
  /// occupies bits[rail_first[r] .. rail_first[r+1]), ascending.
  std::vector<std::uint32_t> bits;
  /// CSR offsets into `bits`, size rails + 1.
  std::vector<std::uint32_t> rail_first;

  /// The data bits rail r covers at this checkpoint, ascending.
  std::span<const std::uint32_t> group(std::size_t r) const {
    return {bits.data() + rail_first[r], bits.data() + rail_first[r + 1]};
  }
};

/// Rail invariant I_r on a scalar state: the rail bit XOR the parity
/// of `group`, rail r's membership at the checkpoint being evaluated
/// (CheckpointSpan::group). Zero in every fault-free run.
inline int rail_invariant(const StateVector& state, std::uint32_t rail_bit,
                          std::span<const std::uint32_t> group) {
  int parity = static_cast<int>(state.bit(rail_bit));
  for (const std::uint32_t bit : group)
    parity ^= static_cast<int>(state.bit(bit));
  return parity;
}

/// Migrates rail membership through one op: a SWAP/SWAP3 moves its
/// operands' values and their membership moves with them (SWAP3
/// (a,b,c) -> (b,c,a): b's lands on a, c's on b, a's on c); any other
/// kind leaves membership alone. rail_of[d] is data bit d's rail, or
/// -1 when unwatched. Returns false, changing nothing, when a SWAP or
/// SWAP3 operand lies outside the data bits (>= rail_of.size()).
bool migrate_membership(const Gate& g, std::span<int> rail_of);

/// What the checked and recovering engines' draws and walks read of a
/// CheckedCircuit, derived from it once by index_walk instead of per
/// batch (recover::build_segment_plan reads it too).
///
/// Routing moves no data in the walk: a SWAP or SWAP3 only renames
/// which storage slot holds which cell. So the walk runs the other ops
/// on slots, reads every zero check's cells and every injected operand
/// through the renaming in force at its op, and restores cell order at
/// the end. A rail's membership moves with the data, so in slot space
/// it never moves: at every checkpoint rail r reads the fixed slots
/// rails[r].rail_bit and rails[r].group, and needs no entry here.
struct WalkIndex {
  KindIndex kinds;  ///< the circuit's ops by kind, for the fault draw
  /// Op i with its operands renamed to their slots after op i.
  std::vector<Gate> slot_ops;
  /// The ops of slot_ops other than SWAP and SWAP3, in order.
  std::vector<Gate> data_ops;
  /// data_ops_before[i]: data_ops among ops [0, i); size ops + 1.
  std::vector<std::uint32_t> data_ops_before;
  /// Zero check z's cells as slots: zero_bits[zero_start[z] ..
  /// zero_start[z + 1]).
  std::vector<std::uint32_t> zero_bits, zero_start;
  /// The cycles of the final renaming: in cycle c0, c1, ... (each cell
  /// listed once, fixed cells omitted) cell c_i ends in slot c_{i+1},
  /// and the last cell in slot c0. cycles[cycle_start[k] ..
  /// cycle_start[k + 1]) is cycle k.
  std::vector<std::uint32_t> cycles, cycle_start;
  /// The kinds the circuit uses, and kinds_before[i * used_kinds.size()
  /// + k]: the ops of kind used_kinds[k] among ops [0, i), ops + 1
  /// rows. Under a model they give the chance that no op before i
  /// fails, which the checked engine draws first faults from
  /// (detail::FirstFaultLaw, detect/checked_mc.h).
  std::vector<GateKind> used_kinds;
  std::vector<std::uint32_t> kinds_before;
};

/// A circuit rewritten into parity-rail form, plus the bookkeeping the
/// online checkers need.
struct CheckedCircuit {
  Circuit circuit;
  std::uint32_t data_width = 0;   ///< original width; data rails are [0, data_width)
  /// The rail partition: one entry per group, rail bits at
  /// [data_width, data_width + rails.size()).
  std::vector<RailInfo> rails;
  /// Op indices after which every I_r == 0 must hold in a fault-free
  /// run.
  std::vector<std::size_t> checkpoints;
  /// checkpoint_spans[k].group(r) = the data bits rail r covers at
  /// checkpoint k: the cells whose slot lies in rail r's entry group
  /// (SWAP/SWAP3 migrate membership with the data, so the cells
  /// depend on where the checkpoint sits). One entry per checkpoint,
  /// aligned with `checkpoints`; the last entry is the exit
  /// membership — under the checked machines' per-block partition,
  /// rail r's exit group is wherever routing left block r. Derived by
  /// index_walk and written nowhere else; the cell-space readers (the
  /// certifier, dataflow) reject a circuit that was not indexed
  /// (check_walk_index). The engines read slots (WalkIndex) instead.
  std::vector<CheckpointSpan> checkpoint_spans;
  /// Original ops that queued at least one rail-compensation gate
  /// (before fusion; the transform's exact "not free" count — SWAPs
  /// never compensate, elided deltas don't count).
  std::uint64_t compensated_ops = 0;
  /// For each ORIGINAL op, its position in `circuit` (compensation
  /// gates shift positions; this is the composition map layers
  /// above need to attach checks to construction landmarks).
  std::vector<std::size_t> source_position;
  /// Clean-cell checkpoints, sorted by op_index (see add_zero_check).
  std::vector<ZeroCheck> zero_checks;
  /// The checked engine's index of everything above (index_walk);
  /// every engine rejects a circuit whose index does not match it.
  WalkIndex walk;
  /// Added-gate accounting: encoder + compensation (summed over
  /// rails[].rail_ops).
  std::uint64_t rail_ops = 0;
};

/// Rewrite `circuit` into parity-rail form. The input must have
/// width >= 1; its gates keep their bit positions, the rails are
/// appended at index width (one per partition group, partition order).
/// Inputs enter with the rails zero — see widen_input.
CheckedCircuit to_parity_rail(const Circuit& circuit,
                              const ParityRailOptions& opts = {});

/// Lift a data-width input state to the checked circuit's width (rails
/// zeroed).
StateVector widen_input(const CheckedCircuit& checked,
                        const StateVector& data_input);

/// The entry promise for circuits whose inputs populate only
/// `data_bits`: every other bit of [0, width) is zero. The one
/// derivation behind every rail-arming path (checked machines, cycle
/// experiments) of ParityRailOptions::known_zero.
std::vector<std::uint32_t> known_zero_outside(
    std::uint32_t width, const std::vector<std::uint32_t>& data_bits);

/// Partition [0, width) into consecutive `block_size`-bit groups (the
/// last group takes the remainder) — the §3 machines' block layout as
/// a rail partition: block s of a 9-cell-per-block machine is group s.
std::vector<std::vector<std::uint32_t>> partition_into_blocks(
    std::uint32_t width, std::uint32_t block_size);

/// Register a zero check after ORIGINAL op `source_op`: in a fault-free
/// run every bit of `bits` is zero once that op has executed, so a
/// nonzero bit there is proof of a fault. Checks must be registered in
/// nondecreasing source order; bits must be data rails (< data_width —
/// the rails have their own invariants).
void add_zero_check(CheckedCircuit& checked, std::size_t source_op,
                    std::vector<std::uint32_t> bits);

/// Rebuilds checked.walk and checked.checkpoint_spans from the
/// circuit, its rails, checkpoints and zero checks — the only code
/// that derives rail membership. to_parity_rail and add_zero_check
/// call it; a hand-assembled CheckedCircuit must, before a checked
/// run. Throws revft::Error on a SWAP/SWAP3 that moves a rail bit (any
/// bit >= data_width), on overlapping or out-of-range rail groups and
/// on unsorted checks.
void index_walk(CheckedCircuit& checked);

/// Throws revft::Error, naming `caller` and index_walk, unless
/// checked.walk and checked.checkpoint_spans match the circuit, its
/// zero checks and its checkpoints — the one guard of every reader of
/// them.
void check_walk_index(const CheckedCircuit& checked, const char* caller);

}  // namespace revft::detect
