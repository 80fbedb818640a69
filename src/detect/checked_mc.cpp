#include "detect/checked_mc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <string>

#include "detect/slot_walk.h"

namespace revft::detect {

namespace detail {

namespace {

// One instantiation per lane width (with_lane_words picks it once per
// call), so the gate kernels and the rail and zero-check evaluators
// (checked_mc.h detail) all run fixed-trip word loops.
template <unsigned W>
void walk_checked_impl(PackedState& state, const CheckedCircuit& checked,
                       std::span<const FaultEvent> events,
                       std::uint64_t* __restrict__ detected,
                       std::uint64_t* __restrict__ fired_masks) {
  const WalkIndex& x = checked.walk;
  const std::size_t n_rails = checked.rails.size();
  if (fired_masks != nullptr)
    std::fill(fired_masks, fired_masks + (n_rails + 1) * W, 0);
  for (unsigned w = 0; w < W; ++w) detected[w] = 0;
  // The walk stops at each check position (zero checks and rail
  // checkpoints, merged in op order): walk_span runs the data ops up to
  // it and injects the events up to it, then its checks OR the per-lane
  // rail invariants — or a zero-checked word — into the masks; all of
  // it on slots (WalkIndex).
  const std::size_t end = checked.circuit.size();
  const std::size_t n_cp = checked.checkpoints.size();
  const std::size_t n_zc = checked.zero_checks.size();
  SpanOps ops{x.data_ops.data(), 0};
  const FaultEvent* ev = events.data();
  const FaultEvent* const ev_end = ev + events.size();
  std::size_t ci = 0, zi = 0;
  while (ci < n_cp || zi < n_zc) {
    const std::size_t stop =
        std::min(ci < n_cp ? checked.checkpoints[ci] : end,
                 zi < n_zc ? checked.zero_checks[zi].op_index : end);
    walk_span<W>(state, x, ops, stop + 1, ev, ev_end);
    for (; zi < n_zc && checked.zero_checks[zi].op_index == stop; ++zi) {
      std::uint64_t zero_mask[W];
      zero_check_words<W>(state,
                          {x.zero_bits.data() + x.zero_start[zi],
                           x.zero_bits.data() + x.zero_start[zi + 1]},
                          zero_mask);
      for (unsigned w = 0; w < W; ++w) detected[w] |= zero_mask[w];
      if (fired_masks != nullptr)
        for (unsigned w = 0; w < W; ++w)
          fired_masks[n_rails * W + w] |= zero_mask[w];
    }
    for (; ci < n_cp && checked.checkpoints[ci] == stop; ++ci) {
      for (std::size_t r = 0; r < n_rails; ++r) {
        // A rail's slots are the same at every checkpoint (WalkIndex).
        std::uint64_t acc[W];
        rail_invariant_words<W>(state, checked.rails[r].rail_bit,
                                checked.rails[r].group, acc);
        for (unsigned w = 0; w < W; ++w) detected[w] |= acc[w];
        if (fired_masks != nullptr)
          for (unsigned w = 0; w < W; ++w) fired_masks[r * W + w] |= acc[w];
      }
    }
  }
  walk_span<W>(state, x, ops, end, ev, ev_end);
  undo_renaming<W>(state, x);
}

// Compaction buffers, overwritten by every walk_compact. They are per
// thread, not per walker: a streaming run calls the span loop once per
// batch, so a walker's own buffers would be reallocated every batch.
struct CompactScratch {
  // Compact lane j holds full lane lane_of[j]; rank_of inverts it.
  std::array<std::uint16_t, 64 * kMaxLaneWords> lane_of{};
  std::array<std::uint16_t, 64 * kMaxLaneWords> rank_of{};
  std::array<std::unique_ptr<PackedState>, 4> state;  // by log2 width
  std::vector<std::uint64_t> initial;
  std::vector<FaultEvent> events;
  std::vector<std::uint64_t> fired;
};

thread_local CompactScratch scratch;

}  // namespace

void walk_checked(PackedState& state, const CheckedCircuit& checked,
                  std::span<const FaultEvent> events, std::uint64_t* detected,
                  std::uint64_t* fired_masks) {
  REVFT_CHECK_MSG(checked.circuit.width() == state.width(),
                  "apply_noisy_checked_words: width mismatch");
  with_lane_words(state.lane_words(), "apply_noisy_checked_words",
                  [&](auto W) {
                    walk_checked_impl<W>(state, checked, events, detected,
                                         fired_masks);
                  });
}

CheckedBatchWalk::CheckedBatchWalk(const CheckedCircuit& checked,
                                   unsigned lane_words)
    : checked_(checked),
      lane_words_(lane_words),
      walked_(lane_words),
      detected_(lane_words),
      fired_((checked.rails.size() + 1) * lane_words, 0) {}

void CheckedBatchWalk::walk(PackedState& state,
                            std::span<const FaultEvent> events,
                            const LaneMask& live, const LaneMask& dirty) {
  const unsigned W = lane_words_;
  walked_ = dirty;
  // The sentinel: the lowest live lane that is not dirty.
  sentinel_ = -1;
  for (unsigned w = 0; w < W && sentinel_ < 0; ++w) {
    const std::uint64_t clean = live.word(w) & ~walked_.word(w);
    if (clean != 0) {
      sentinel_ = static_cast<int>(64 * w) + std::countr_zero(clean);
      walked_.set(static_cast<unsigned>(sentinel_));
    }
  }
  const std::uint64_t n = walked_.popcount();
  const unsigned compact_words = n <= 64 ? 1 : n <= 128 ? 2 : n <= 256 ? 4 : 8;
  if (compact_words >= W) {
    walk_checked(state, checked_, events, detected_.data(), fired_.data());
  } else {
    walk_compact(state, events, compact_words);
  }
  // Every count and event reads the walked lanes only.
  detected_ &= walked_;
  for (std::size_t slot = 0; slot <= checked_.rails.size(); ++slot)
    for (unsigned w = 0; w < W; ++w) fired_[slot * W + w] &= walked_.word(w);
}

void CheckedBatchWalk::walk_compact(PackedState& state,
                                    std::span<const FaultEvent> events,
                                    unsigned cw) {
  const unsigned W = lane_words_;
  const std::uint32_t width = state.width();
  CompactScratch& s = scratch;
  // The walked lanes of full word runs[r].word are compact lanes
  // [runs[r].first, runs[r].end), in lane order.
  struct Run {
    unsigned word, first, end;
  };
  Run runs[kMaxLaneWords];
  unsigned n_runs = 0, n = 0;
  for (unsigned w = 0; w < W; ++w) {
    const unsigned first = n;
    for (std::uint64_t bits = walked_.word(w); bits != 0; bits &= bits - 1) {
      const unsigned lane =
          64 * w + static_cast<unsigned>(std::countr_zero(bits));
      s.lane_of[n] = static_cast<std::uint16_t>(lane);
      s.rank_of[lane] = static_cast<std::uint16_t>(n);
      ++n;
    }
    if (n != first) runs[n_runs++] = {w, first, n};
  }
  std::unique_ptr<PackedState>& slot =
      s.state[static_cast<std::size_t>(std::countr_zero(cw))];
  if (slot == nullptr || slot->width() != width)
    slot = std::make_unique<PackedState>(width, cw);
  PackedState& compact = *slot;
  // Gather the cells prepare set in some walked lane, lane by lane and
  // one compact word at a time; every other cell is zero. Then keep a
  // copy to diff against.
  compact.clear();
  for (std::uint32_t bit = 0; bit < width; ++bit) {
    const std::uint64_t* src = state.words(bit);
    std::uint64_t any = 0;
    for (unsigned r = 0; r < n_runs; ++r)
      any |= src[runs[r].word] & walked_.word(runs[r].word);
    if (any == 0) continue;
    std::uint64_t* dst = compact.words(bit);
    for (unsigned w = 0, j = 0; w < cw; ++w) {
      std::uint64_t acc = 0;
      for (const unsigned end = std::min(n, 64 * (w + 1)); j < end; ++j) {
        const unsigned lane = s.lane_of[j];
        acc |= ((src[lane >> 6] >> (lane & 63u)) & 1u) << (j & 63u);
      }
      dst[w] = acc;
    }
  }
  const std::size_t cells = static_cast<std::size_t>(width) * cw;
  s.initial.assign(compact.words(0), compact.words(0) + cells);
  // The events, remapped lane by lane onto the compact words; lanes of
  // one op landing in one compact word share an event.
  s.events.clear();
  for (const FaultEvent& e : events)
    for (std::uint64_t lanes = e.mask & walked_.word(e.word); lanes != 0;
         lanes &= lanes - 1) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(lanes));
      const unsigned j = s.rank_of[64 * e.word + b];
      const std::uint64_t bit = 1ULL << (j & 63u);
      if (s.events.empty() || s.events.back().op != e.op ||
          s.events.back().word != j >> 6)
        s.events.push_back({e.op, j >> 6, 0, {}});
      FaultEvent& c = s.events.back();
      c.mask |= bit;
      for (std::size_t i = 0; i < c.fresh.size(); ++i)
        if (((e.fresh[i] >> b) & 1u) != 0) c.fresh[i] |= bit;
    }
  const std::size_t slots = checked_.rails.size() + 1;
  s.fired.resize(slots * cw);
  std::uint64_t compact_detected[kMaxLaneWords];
  walk_checked(compact, checked_, s.events, compact_detected,
               s.fired.data());
  // Scatter: the detected and fired masks lane by lane, and of the
  // state only the cells the walk changed, one full word at a time.
  const auto each_lane = [&](const std::uint64_t* words, auto&& f) {
    for (unsigned w = 0; w < cw; ++w)
      for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1)
        f(s.lane_of[64 * w + static_cast<unsigned>(std::countr_zero(bits))]);
  };
  detected_.clear();
  each_lane(compact_detected, [&](unsigned lane) { detected_.set(lane); });
  std::fill(fired_.begin(), fired_.end(), 0);
  for (std::size_t r = 0; r < slots; ++r)
    each_lane(s.fired.data() + r * cw, [&](unsigned lane) {
      fired_[r * W + (lane >> 6)] |= 1ULL << (lane & 63u);
    });
  for (std::uint32_t bit = 0; bit < width; ++bit) {
    const std::uint64_t* now = compact.words(bit);
    const std::uint64_t* before = s.initial.data() + std::size_t{bit} * cw;
    std::uint64_t diff[kMaxLaneWords];
    std::uint64_t any = 0;
    for (unsigned w = 0; w < cw; ++w) any |= diff[w] = now[w] ^ before[w];
    if (any == 0) continue;
    std::uint64_t* dst = state.words(bit);
    for (unsigned r = 0; r < n_runs; ++r) {
      std::uint64_t flip = 0;
      for (unsigned j = runs[r].first; j < runs[r].end; ++j)
        flip |= ((diff[j >> 6] >> (j & 63u)) & 1u) << (s.lane_of[j] & 63u);
      dst[runs[r].word] ^= flip;
    }
  }
}

void CheckedBatchWalk::check_sentinel(const LaneMask& wrong,
                                      std::uint64_t batch) const {
  if (sentinel_ < 0) return;
  const auto lane = static_cast<unsigned>(sentinel_);
  const bool fired = detected_.test(lane);
  if (!fired && !wrong.test(lane)) return;
  std::string msg = "run_checked_mc_span: lane ";
  msg += std::to_string(lane);
  msg += " of batch ";
  msg += std::to_string(batch);
  msg += " drew no fault but ";
  msg += fired ? "fired a check" : "was judged wrong";
  msg += "; the engine skips fault-free lanes only because such a lane is "
         "accepted and correct";
  throw Error(msg);
}

}  // namespace detail

DetectionEstimate run_scripted_checked(
    const CheckedCircuit& checked, std::span<const FaultScenario> scenarios,
    unsigned lane_words,
    const std::function<bool(const StateVector&, std::size_t)>& wrong) {
  ScriptedPass script(checked.circuit, checked.data_width, scenarios,
                      lane_words, wrong);
  PackedState state(checked.circuit.width(), lane_words);
  return detail::run_checked_mc_span(
      script, state, checked, /*first_batch=*/0, scenarios.size(),
      [&script](PackedState& s, Xoshiro256&, std::uint64_t batch) {
        script.prepare(s, batch);
      },
      [&script](const PackedState& s, int lane, std::uint64_t batch) {
        return script.classify(s, lane, batch);
      });
}

}  // namespace revft::detect
