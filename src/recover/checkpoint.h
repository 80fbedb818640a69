// revft/recover/checkpoint.h
//
// Checkpoint/restore for the packed engine — the state layer of the
// block-local retry protocol (recover/plan.h explains the protocol;
// this header only moves bits).
//
// A checkpoint is a full-width snapshot taken at an ACCEPTED recovery
// boundary: every check evaluated there passed, so it is the certified
// prefix a retry may restart from. A whole-program restart (or the
// scratch copy a replay starts from) restores it wholesale; an
// accepted block-local replay blends back only its component's
// footprint cells, because every other cell is still vouched for by
// its own passed checks. A "cell" here is a storage position of the
// state: the recovering engine's state is in slot space, so it blends
// a component's footprint slots. Trial t lives in bit t%64 of lane word t/64
// of every cell, so both move lanes under a LaneMask of lane_words
// words; a restart pass fans one lane out into idle lanes and moves a
// winning attempt back into its owner's lane, a word per cell each.
// Nothing here draws randomness, so the sharded determinism contract
// of the Monte-Carlo engines is untouched.
#pragma once

#include <cstdint>
#include <vector>

#include "noise/lanes.h"
#include "noise/packed_sim.h"

namespace revft::recover {

/// Full-width snapshot of a PackedState (every lane of every cell).
class PackedCheckpoint {
 public:
  PackedCheckpoint() = default;

  /// Overwrite the snapshot with the current state (resizes on first
  /// use; later captures at the same geometry reuse the buffer).
  void capture(const PackedState& state);

  std::uint32_t width() const noexcept { return width_; }
  unsigned lane_words() const noexcept { return lane_words_; }

  /// Copy the snapshot back into `state` wholesale (every cell, every
  /// lane) — the start of a packed replay or program restart.
  void restore_all(PackedState& state) const;

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t width_ = 0;
  unsigned lane_words_ = 1;
};

/// Blend lanes of `src` into `dst` on `cells`: lanes set in
/// `lane_mask` take src's bits, the rest keep dst's — the block-local
/// merge: only the replayed component's footprint moves, every other
/// cell keeps the already-accepted values. lane_mask.words() must
/// equal the states' lane_words().
void blend_cells_lanes(PackedState& dst, const PackedState& src,
                       const std::vector<std::uint32_t>& cells,
                       const LaneMask& lane_mask);

/// Copy lane `from` of `state` into every lane set in `to`, for every
/// cell — the restart fan-out: idle lanes of a restart pass take a
/// pending lane's entry state and run further attempts of it.
/// to.words() must equal state.lane_words(); `from` may be in `to`.
void copy_lane(PackedState& state, unsigned from, const LaneMask& to);

/// Move lane `from` of `src` into lane `to` of `dst`, for every cell;
/// every other lane of dst keeps its bits. The restart merge: the
/// winning attempt's final state lands in the lane that owns the
/// trial. With from == to this is a one-lane blend over every cell.
void move_lane(PackedState& dst, unsigned to, const PackedState& src,
               unsigned from);

}  // namespace revft::recover
