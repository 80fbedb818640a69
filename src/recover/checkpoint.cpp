#include "recover/checkpoint.h"

#include <algorithm>

#include "support/error.h"

namespace revft::recover {

void PackedCheckpoint::capture(const PackedState& state) {
  width_ = state.width();
  lane_words_ = state.lane_words();
  words_.resize(static_cast<std::size_t>(width_) * lane_words_);
  if (width_ != 0)
    std::copy(state.words(0), state.words(0) + words_.size(), words_.begin());
}

void PackedCheckpoint::restore_all(PackedState& state) const {
  REVFT_CHECK_MSG(state.width() == width_ && state.lane_words() == lane_words_,
                  "restore_all: geometry mismatch");
  if (width_ != 0) std::copy(words_.begin(), words_.end(), state.words(0));
}

void blend_cells_lanes(PackedState& dst, const PackedState& src,
                       const std::vector<std::uint32_t>& cells,
                       const LaneMask& lane_mask) {
  REVFT_CHECK_MSG(dst.width() == src.width(),
                  "blend_cells_lanes: width mismatch");
  REVFT_CHECK_MSG(
      dst.lane_words() == src.lane_words() &&
          lane_mask.words() == dst.lane_words(),
      "blend_cells_lanes: lane_words mismatch");
  const unsigned W = dst.lane_words();
  for (const std::uint32_t cell : cells) {
    std::uint64_t* d = dst.words(cell);
    const std::uint64_t* s = src.words(cell);
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t m = lane_mask.word(w);
      d[w] = (d[w] & ~m) | (s[w] & m);
    }
  }
}

void copy_lane(PackedState& state, unsigned from, const LaneMask& to) {
  REVFT_CHECK_MSG(to.words() == state.lane_words() && from < to.lanes(),
                  "copy_lane: lane geometry mismatch");
  const unsigned W = state.lane_words();
  for (std::uint32_t cell = 0; cell < state.width(); ++cell) {
    std::uint64_t* d = state.words(cell);
    const std::uint64_t fill = 0 - ((d[from >> 6] >> (from & 63u)) & 1u);
    for (unsigned w = 0; w < W; ++w) {
      const std::uint64_t m = to.word(w);
      d[w] = (d[w] & ~m) | (fill & m);
    }
  }
}

void move_lane(PackedState& dst, unsigned to, const PackedState& src,
               unsigned from) {
  REVFT_CHECK_MSG(dst.width() == src.width(), "move_lane: width mismatch");
  REVFT_CHECK_MSG(dst.lane_words() == src.lane_words() &&
                      to < dst.lanes() && from < src.lanes(),
                  "move_lane: lane geometry mismatch");
  const std::uint64_t bit = 1ULL << (to & 63u);
  for (std::uint32_t cell = 0; cell < dst.width(); ++cell) {
    std::uint64_t& d = dst.words(cell)[to >> 6];
    const std::uint64_t v = (src.words(cell)[from >> 6] >> (from & 63u)) & 1u;
    d = (d & ~bit) | (v << (to & 63u));
  }
}

}  // namespace revft::recover
