// revft/recover/plan.h
//
// The static analysis behind block-local retry: slice a checked
// circuit into SEGMENTS at its check positions, and decide — before
// any trial runs — which slice of a segment each fired rail names for
// replay.
//
// A segment is the op span between two consecutive check positions
// (rail checkpoints and zero checks both delimit; the final checkpoint
// ends the last segment). One refinement: a zero-check-only position
// is folded into the next delimiting position when no op in between
// can WRITE its cells — the §3 machines' boundaries register the zero
// check a few ops before the rail checkpoint (the transform flushes
// pending rail compensation in between, and those gates only write
// rail bits), and keeping the two apart would detect every rail
// violation one segment after the snapshot that can repair it was
// replaced. When a check fires at a segment's end, the
// last accepted boundary is a certified restart point, but re-running
// the whole segment wastes the localization the rail partition paid
// for. The sound smaller unit is the REPLAY COMPONENT:
//
//   * every op is attributed to the rail groups its operands belong to
//     at the moment it executes (membership migrates through
//     SWAP/SWAP3, detect::migrate_membership; the cells a rail covers
//     at a checkpoint come from detect::index_walk, which derives them
//     from the same moves);
//   * ops whose operands span several groups union those groups — a
//     routing swap carrying block r past block q entangles r and q,
//     because replaying r's traffic rewrites cells q's values pass
//     through;
//   * ops sharing a CELL union their groups even when they touch it at
//     different times (the cell hosts different blocks' values as
//     routing streams through it — replaying one writer without the
//     other would tear the interleave);
//   * a zero check's bits union their groups too, so every fired check
//     (rail or zero) names exactly one component.
//
// The result: within a segment, components partition the ops AND the
// touched cells, so replaying one component's ops in original order on
// its restored footprint commutes with everything else in the segment
// — a block-local retry is exact, not approximate. The component is
// also the honest price of localization: the 1/B cost model of
// detect/retry_model.h assumes blocks replay independently, while the
// mechanism must replay the routing-connected component — the measured
// gap between the two is one of bench_recover's outputs.
//
// The attribution above runs in cell space; the recovering engine
// runs in slot space (detect::WalkIndex), where routing moves no data.
// So each component also carries its slot-space view, built once
// here: its data ops as indices into the walk index, a kind index of
// its ops for the replay's fault draw, and its footprint as slots.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/rail.h"

namespace revft::recover {

/// One independently replayable slice of a segment.
struct ReplayComponent {
  /// Rail indices of the component (ascending; empty for the residual
  /// component of unwatched-cell activity, when a circuit has any).
  std::vector<std::uint32_t> rails;
  /// Positions (in checked.circuit) of the component's ops, ascending.
  std::vector<std::size_t> ops;

  // The same component in slot space (detect::WalkIndex), where the
  // recovering engine replays it.

  /// The non-routing ops of `ops`, as ascending indices into
  /// checked.walk.data_ops: what a replay runs through the gate
  /// kernels (routing is a renaming there and runs nothing).
  std::vector<std::uint32_t> data_ops;
  /// `ops` by gate kind: a replay draws the faults of every op, routing
  /// included, through it (PackedSimulator::draw_faults).
  KindIndex kinds;
  /// Restore/merge footprint, as slots: those of the rails' group
  /// cells at segment entry, of every cell the ops touch, of the rails'
  /// rail bits and of the bits of the zero checks the component
  /// evaluates. The set is the same at segment entry and end (a cell
  /// the component touches only ever holds a slot of another cell it
  /// touches). Unique, unsorted. Replaying the component = restore
  /// these slots from the boundary checkpoint, re-run `ops` in order,
  /// re-evaluate the component's checks.
  std::vector<std::uint32_t> slots;
};

/// One op span between consecutive check positions.
struct Segment {
  std::size_t begin = 0;  ///< first op (inclusive)
  std::size_t end = 0;    ///< last op (inclusive) — the check position
  /// Index into checked.checkpoints evaluated at `end` (-1 when this
  /// boundary is zero-check only).
  int checkpoint = -1;
  /// Indices into checked.zero_checks evaluated at `end`.
  std::vector<std::size_t> zero_checks;
  std::vector<ReplayComponent> components;
  /// component index of every rail (size = rails.size()).
  std::vector<std::uint32_t> component_of_rail;
  /// component index of every entry of `zero_checks` (aligned).
  std::vector<std::uint32_t> component_of_zero_check;
  /// Positions (in checked.circuit, ascending) of this segment's ops
  /// whose operands span two or more distinct membership nodes at
  /// execution time — the gluers that union replay components. An op
  /// here is WHY localization degrades: remove or reschedule them and
  /// the components fall apart into per-rail retries (the
  /// mean_max_replay_share = 1.0 pathology of BENCH_recover.json is
  /// exactly a segment whose straddlers chain every rail together).
  /// Surfaced by verify/lint.h as the scheduling pass' target list.
  std::vector<std::size_t> straddling_ops;
  /// The segment's ops by gate kind: a first pass or restart draws the
  /// segment's faults through it (PackedSimulator::draw_faults) with
  /// no search of the circuit's index.
  KindIndex kinds;

  std::uint64_t op_count() const noexcept {
    return static_cast<std::uint64_t>(end - begin + 1);
  }
};

/// The full slicing of a checked circuit.
struct SegmentPlan {
  std::vector<Segment> segments;
  std::uint64_t total_ops = 0;  ///< == checked.circuit.size()

  /// Replay-share accounting for the economics tables: the mean and
  /// max over segments of (largest component op count) / (segment op
  /// count) — what fraction of a segment the worst-localized retry
  /// actually re-runs (the mechanism's counterpart of the model's 1/B).
  double mean_max_replay_share() const;
  double worst_replay_share() const;
};

/// Build the plan. Requirements: a non-empty checked circuit ending at
/// its final checkpoint, with a matching walk index
/// (detect::check_walk_index), no SWAP/SWAP3 that moves a rail bit,
/// and at most 64 components per segment (the packed engine names a
/// segment's components in one 64-bit set — always true for the
/// per-block machines, whose component count is bounded by rails + 1).
/// A zero check folded into a later boundary must keep its cells in
/// place until it (detail::check_zero_fold). The plan reads no
/// checkpoint_spans.
SegmentPlan build_segment_plan(const detect::CheckedCircuit& checked);

namespace detail {

/// Throws revft::Error unless no SWAP/SWAP3 among ops (zc.op_index,
/// boundary] of `c` touches a cell of `zc`. The recovering engine
/// reads a zero check at its boundary off the slots its cells held at
/// its own op (WalkIndex::zero_bits), which is the cells' value at
/// the boundary only when no routing moved them in between.
/// build_segment_plan checks every zero check it folds; as its merge
/// rule counts routing as a write of every operand, no plan it builds
/// can fail this.
void check_zero_fold(const Circuit& c, const detect::ZeroCheck& zc,
                     std::size_t boundary);

}  // namespace detail

}  // namespace revft::recover
