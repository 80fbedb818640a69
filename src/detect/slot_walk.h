// revft/detect/slot_walk.h
//
// The span walker of the checked and recovering engines
// (detect/checked_mc.cpp, recover/recovering_mc.cpp), which run every
// pass in slot space (WalkIndex, detect/rail.h). A span's data ops run
// through the ideal gate kernels; routing runs as the WalkIndex
// renaming and moves no data; each drawn or scripted fault is injected
// right after its op, on the op's slots (WalkIndex::slot_ops). The
// data ops come from a cursor: a contiguous run of WalkIndex::data_ops
// (the checked walk between check stops, a segment) or a list of
// indices into it (a replay component, recover/plan.h). Internal to
// the engines.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "detect/rail.h"
#include "noise/packed_kernels.h"

namespace revft::detect::detail {

/// The data ops of an op span: WalkIndex::data_ops from index `next`
/// on, contiguous.
struct SpanOps {
  const Gate* data_ops;
  std::uint32_t next;

  /// Runs the data ops before index `bound`.
  template <unsigned W>
  void run_to(PackedState& state, std::uint32_t bound) {
    PackedKernels<W>::ideal_ops(state, data_ops + next, data_ops + bound);
    next = bound;
  }
};

/// The data ops of an op list: ascending indices [next, end) into
/// WalkIndex::data_ops.
struct ListOps {
  const Gate* data_ops;
  const std::uint32_t* next;
  const std::uint32_t* end;

  template <unsigned W>
  void run_to(PackedState& state, std::uint32_t bound) {
    for (; next != end && *next < bound; ++next)
      PackedKernels<W>::ideal_gate(state, data_ops[*next]);
  }
};

/// Walks `ops` up to op `last` (exclusive) on `state`: each event of
/// [ev, ev_end) whose op is below `last` (events in op order) is
/// injected right after its op, and `ev` is left on the first event
/// past the span.
template <unsigned W, typename Ops>
[[gnu::always_inline]] inline void walk_span(PackedState& state,
                                             const WalkIndex& x, Ops& ops,
                                             std::size_t last,
                                             const FaultEvent*& ev,
                                             const FaultEvent* ev_end) {
  for (; ev != ev_end && ev->op < last; ++ev) {
    ops.template run_to<W>(state, x.data_ops_before[ev->op + 1]);
    PackedKernels<W>::inject(state, x.slot_ops[ev->op], *ev);
  }
  ops.template run_to<W>(state, x.data_ops_before[last]);
}

/// Undoes the final renaming of a whole-circuit walk, one cycle of
/// cells at a time: afterwards cell c is in storage c again.
template <unsigned W>
void undo_renaming(PackedState& state, const WalkIndex& x) {
  for (std::size_t k = 0; k + 1 < x.cycle_start.size(); ++k) {
    const std::uint32_t* cycle = x.cycles.data() + x.cycle_start[k];
    const std::size_t len = x.cycle_start[k + 1] - x.cycle_start[k];
    std::uint64_t first[W];
    std::copy_n(state.words(cycle[0]), W, first);
    for (std::size_t i = 0; i + 1 < len; ++i)
      std::copy_n(state.words(cycle[i + 1]), W, state.words(cycle[i]));
    std::copy_n(first, W, state.words(cycle[len - 1]));
  }
}

}  // namespace revft::detect::detail
