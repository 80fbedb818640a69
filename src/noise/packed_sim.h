// revft/noise/packed_sim.h
//
// Bit-parallel Monte-Carlo engine: independent trials ("lanes") are
// simulated at once by storing trial t's value of circuit bit i in bit
// t%64 of lane word t/64 of cell i. Every primitive gate is then a
// handful of bitwise ops across all lanes, and a gate failure is a
// per-lane Bernoulli mask under which the touched words are
// overwritten with fresh random bits — exactly the paper's "randomize
// all the bits it is applied to with probability g" semantics (§2).
//
// A state carries lane_words (W ∈ {1,2,4,8}, see noise/lanes.h) words
// per circuit bit, i.e. 64*W lanes per batch. All gate kernels loop
// contiguously over the W words of each touched cell with W fixed at
// compile time, which the compiler auto-vectorizes to AVX2 (W=4) or
// AVX-512 (W=8) — no intrinsics anywhere. W=1 is the legacy 64-lane
// engine, bit for bit: same RNG draw order, same masks, same
// estimates (pinned by tests/test_simd_lanes.cpp).
//
// Exactness note: lane failure masks are drawn from an *exact*
// Bernoulli(g) stream (geometric gap sampling at small g, the bit-plane
// threshold draw of Xoshiro256::next_bernoulli_mask otherwise), so
// small-g tails — the regime the threshold theorem lives in — carry no
// approximation bias. The geometric gap counter spans word and batch
// boundaries, so widening the batch never perturbs the failure
// statistics.
//
// Draw order: op by op, each op's fail masks from its kind's stream,
// then — if a lane fails — its fresh injection words. A state never
// feeds back into a draw, so draw_faults may draw a whole span's
// faults before any gate runs (the checked engine does) and still
// consume exactly the RNG words apply_noisy_span would, in the same
// order: one per-op draw serves both.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "noise/lanes.h"
#include "noise/model.h"
#include "rev/circuit.h"
#include "support/error.h"
#include "support/rng.h"

namespace revft {

/// 64 * lane_words trial lanes of classical bit state, stored
/// bit-major: the lane words of circuit bit i are the contiguous run
/// words()[i*W .. i*W+W) — the layout every gate kernel streams over.
class PackedState {
 public:
  explicit PackedState(std::uint32_t width, unsigned lane_words = 1)
      : words_(static_cast<std::size_t>(width) * lane_words, 0),
        width_(width),
        lane_words_(lane_words) {
    REVFT_CHECK_MSG(valid_lane_words(lane_words),
                    "PackedState: lane_words=" << lane_words
                                               << " not in {1,2,4,8}");
  }

  std::uint32_t width() const noexcept { return width_; }
  unsigned lane_words() const noexcept { return lane_words_; }
  /// Trials simulated per batch: 64 * lane_words().
  unsigned lanes() const noexcept { return 64 * lane_words_; }

  // Hot path: the accessors below run inside the innermost gate loop,
  // so bounds checking is debug-only (REVFT_DASSERT), not vector::at().

  /// Lane words of circuit bit `bit` (contiguous, lane_words() long).
  const std::uint64_t* words(std::uint32_t bit) const {
    REVFT_DASSERT(bit < width_);
    return words_.data() + static_cast<std::size_t>(bit) * lane_words_;
  }
  std::uint64_t* words(std::uint32_t bit) {
    REVFT_DASSERT(bit < width_);
    return words_.data() + static_cast<std::size_t>(bit) * lane_words_;
  }

  /// Legacy single-word accessors of the 64-lane engine. Only valid at
  /// lane_words() == 1 (multi-word callers use words(bit)).
  std::uint64_t word(std::uint32_t bit) const {
    REVFT_DASSERT(lane_words_ == 1);
    REVFT_DASSERT(bit < width_);
    return words_[bit];
  }
  std::uint64_t& word(std::uint32_t bit) {
    REVFT_DASSERT(lane_words_ == 1);
    REVFT_DASSERT(bit < width_);
    return words_[bit];
  }

  /// Set circuit bit `bit` to `v` in every lane.
  void fill_bit(std::uint32_t bit, bool v) {
    std::uint64_t* w = words(bit);
    for (unsigned k = 0; k < lane_words_; ++k) w[k] = v ? ~0ULL : 0;
  }

  /// Value of `bit` in one lane (lane < lanes()).
  std::uint8_t bit_lane(std::uint32_t bit, int lane) const {
    REVFT_DASSERT(lane >= 0 && static_cast<unsigned>(lane) < lanes());
    const unsigned l = static_cast<unsigned>(lane);
    return static_cast<std::uint8_t>((words(bit)[l >> 6] >> (l & 63u)) & 1u);
  }

  /// Set `bit` in one lane.
  void set_bit_lane(std::uint32_t bit, int lane, bool v);

  /// All bits of all lanes to zero.
  void clear() { std::fill(words_.begin(), words_.end(), 0); }

 private:
  std::vector<std::uint64_t> words_;
  std::uint32_t width_;
  unsigned lane_words_;
};

/// One drawn gate failure: in lane word `word` of a batch, op `op`
/// fails in the lanes of `mask`, and operand i of those lanes becomes
/// the matching bits of fresh[i] (entries past the op's arity unused).
struct FaultEvent {
  std::uint32_t op;
  std::uint32_t word;
  std::uint64_t mask;
  std::array<std::uint64_t, 3> fresh;
};

/// Exact Bernoulli(p) bit stream producing 64-lane mask words. Uses
/// geometric gap sampling when p is small (about one RNG draw per
/// failure) and the bit-plane threshold draw otherwise (about 7.34 RNG
/// draws per word, Xoshiro256::next_bernoulli_mask). Both paths are
/// exact. Drawing a W-word batch via next_masks() consumes the
/// identical RNG stream as W successive next_mask() calls — the gap
/// counter carries across word boundaries — so lane_words enters the
/// determinism key only through how many words each gate draws, never
/// through the sampling math.
class BernoulliMaskStream {
 public:
  BernoulliMaskStream(double p, Xoshiro256* rng);

  /// One 64-lane mask: a one-word next_masks() draw.
  std::uint64_t next_mask() {
    std::uint64_t mask = 0;
    next_masks(&mask, 1);
    return mask;
  }

  /// Draw `words` consecutive 64-lane masks into out[0..words).
  /// Bit-identical to calling next_mask() `words` times. The draw-free
  /// branch — the pending geometric gap spans the whole batch, so no
  /// lane fails and no RNG state moves — is inline because it is THE
  /// hot path of every noisy gate at small g; keeping it out of line
  /// made per-gate mask work scale with the batch width instead of the
  /// failure count.
  void next_masks(std::uint64_t* out, unsigned words) {
    const std::uint64_t batch_lanes = 64ULL * words;
    if (use_geometric_ && next_index_ >= batch_lanes) {
      next_index_ -= batch_lanes;
      for (unsigned w = 0; w < words; ++w) out[w] = 0;
      return;
    }
    next_masks_slow(out, words);
  }

  /// Skips the leading masks of `words` words (a power of two), at
  /// most `masks` of them, in which no lane fails, and returns how
  /// many it skipped: the same as that many next_masks() calls, with
  /// no RNG draw. Only the gap path can tell ahead of time (0 on the
  /// bit-plane path and at p = 1).
  std::uint64_t skip_clean(std::uint64_t masks, unsigned words) {
    REVFT_DASSERT(std::has_single_bit(words));
    if (!use_geometric_) return 0;
    const int shift = 6 + std::countr_zero(words);  // log2(64 * words)
    const std::uint64_t k = std::min(masks, next_index_ >> shift);
    next_index_ -= k << shift;
    return k;
  }

  double p() const noexcept { return p_; }

 private:
  static constexpr std::uint64_t kNeverFails = ~0ULL;  // p = 0's gap

  double p_;
  Xoshiro256* rng_;  // not owned
  bool use_geometric_;
  double inv_log1m_p_ = 0.0;  // 1 / ln(1-p)
  std::uint64_t next_index_ = 0;  // lanes until next failure (geometric path)

  std::uint64_t draw_gap();
  void next_masks_slow(std::uint64_t* out, unsigned words);
};

/// Applies circuits to PackedState, ideally or under a NoiseModel.
/// The per-gate word loops are instantiated for each valid lane_words
/// at compile time (with_lane_words maps the state's width to its
/// instantiation), so the W=4/W=8 bodies present the compiler
/// straight-line 4- and 8-word array ops it turns into AVX2/AVX-512
/// vector code.
class PackedSimulator {
 public:
  /// Noisy simulator with explicit seed (reproducible).
  PackedSimulator(const NoiseModel& model, std::uint64_t seed);

  /// Apply with no noise (useful for checking lane-parallel semantics
  /// against the scalar reference simulator).
  static void apply_ideal(PackedState& state, const Gate& g);
  static void apply_ideal(PackedState& state, const Circuit& c);

  /// Apply ops [first, last) of `c` noisily; a whole circuit is the
  /// span [0, c.size()). The checked engine (detect/checked_mc) runs
  /// the segments between checkpoints through this (the inner loop
  /// lives in one TU and inlines the gate dispatch).
  void apply_noisy_span(PackedState& state, const Circuit& c, std::size_t first,
                        std::size_t last);

  /// Apply the ops of `c` at `positions` (ascending) noisily, in that
  /// order — the block-local replay of one component's ops
  /// (recover::ReplayComponent::ops) with the same inlined per-gate
  /// loop as apply_noisy_span.
  void apply_noisy_ops(PackedState& state, const Circuit& c,
                       const std::vector<std::size_t>& positions);

  /// Draws the failures of ops [first, last) of `c` for a batch of
  /// `lane_words` words without touching a state: one FaultEvent per
  /// (op, failing lane word), in op order, valid until the next draw.
  /// The RNG words, their order and faults_drawn() are exactly those
  /// of apply_noisy_span over the same ops. `index` is KindIndex(c):
  /// each kind's gap counter jumps over its fault-free ops, so the
  /// cost is O(faults), not O(ops), at gap rates. Throws revft::Error
  /// when `index` does not cover `c`.
  std::span<const FaultEvent> draw_faults(const Circuit& c,
                                          const KindIndex& index,
                                          std::size_t first, std::size_t last,
                                          unsigned lane_words);

  /// Apply ops [first, last) of `c` ideally, then each of `events` (in
  /// op order, within the span) right after its op: the faults of a
  /// draw_faults call, or scripted ones (noise/injection.h).
  static void apply_events(PackedState& state, const Circuit& c,
                           std::size_t first, std::size_t last,
                           std::span<const FaultEvent> events);

  /// Total number of (gate, lane) failures drawn so far — a cheap
  /// sanity diagnostic (its expectation is g * gates * lanes).
  std::uint64_t faults_drawn() const noexcept { return faults_drawn_; }

  const NoiseModel& model() const noexcept { return model_; }
  Xoshiro256& rng() noexcept { return rng_; }

 private:
  template <unsigned W>
  friend struct NoisyKernels;

  NoiseModel model_;
  Xoshiro256 rng_;
  std::uint64_t faults_drawn_ = 0;
  // One exact Bernoulli stream per gate kind (probabilities differ).
  std::vector<BernoulliMaskStream> streams_;
  std::vector<FaultEvent> events_;  // the last draw_faults
};

}  // namespace revft
