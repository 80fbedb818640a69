#include "noise/packed_sim.h"

#include <algorithm>
#include <cmath>

#include "noise/packed_kernels.h"
#include "support/error.h"

namespace revft {

void PackedState::set_bit_lane(std::uint32_t bit, int lane, bool v) {
  REVFT_DASSERT(lane >= 0 && static_cast<unsigned>(lane) < lanes());
  const unsigned l = static_cast<unsigned>(lane);
  const std::uint64_t m = 1ULL << (l & 63u);
  std::uint64_t& w = words(bit)[l >> 6];
  if (v)
    w |= m;
  else
    w &= ~m;
}

BernoulliMaskStream::BernoulliMaskStream(double p, Xoshiro256* rng)
    : p_(p), rng_(rng) {
  REVFT_CHECK_MSG(p >= 0.0 && p <= 1.0, "BernoulliMaskStream: p=" << p);
  REVFT_CHECK(rng != nullptr);
  // Gap sampling costs about one log per failure (64p per mask); the
  // bit-plane threshold draw costs about 7.34 words per mask at any p,
  // so it is already the cheaper one from about p = 0.008 (measured on
  // an x86-64 Xeon). The cutoff stays at 3% so that the estimates
  // pinned at g = 1e-2 and 2e-2 keep their RNG streams.
  // p = 0 takes the gap path too, with a gap that never runs out, so
  // a noiseless stream stays on next_masks' inline draw-free branch.
  use_geometric_ = p < 0.03;
  if (p == 0.0) {
    next_index_ = kNeverFails;
  } else if (use_geometric_) {
    inv_log1m_p_ = 1.0 / std::log1p(-p);
    next_index_ = draw_gap();
  }
}

std::uint64_t BernoulliMaskStream::draw_gap() {
  // Inversion of the geometric distribution: G = floor(ln U / ln(1-p))
  // with U in (0, 1] has P(G = k) = (1-p)^k p — exactly the number of
  // non-failures before the next failure in a Bernoulli(p) stream.
  double u = rng_->next_double();
  if (u <= 0.0) u = 0x1.0p-53;  // next_double() is in [0,1); map 0 to the
                                // smallest positive value so ln is finite
  const double gap = std::floor(std::log(u) * inv_log1m_p_);
  // Cap to keep the integer conversion defined; gaps this large behave
  // identically (no failure for a very long time).
  if (gap > 9.0e18) return 9000000000000000000ULL;
  return static_cast<std::uint64_t>(gap);
}

// The inline fast path (no failure anywhere in the batch) already
// handled the common case; here at least one lane fails, p = 1, the
// threshold path is active, or a noiseless stream's never-failing gap
// has been counted down (after 2^64 lanes; it is reset).
void BernoulliMaskStream::next_masks_slow(std::uint64_t* out, unsigned words) {
  if (p_ <= 0.0) {
    for (unsigned w = 0; w < words; ++w) out[w] = 0;
    next_index_ = kNeverFails;
    return;
  }
  if (p_ >= 1.0) {
    for (unsigned w = 0; w < words; ++w) out[w] = ~0ULL;
    return;
  }
  if (use_geometric_) {
    // Walk the gap chain once across the whole batch. Equivalent to
    // one-word calls — those track the same global lane index, just
    // rebased by 64 per word — with the same draws in the same order,
    // so the RNG stream is bit-identical; the cost is O(failures in
    // the batch) instead of O(words).
    const std::uint64_t batch_lanes = 64ULL * words;
    for (unsigned w = 0; w < words; ++w) out[w] = 0;
    while (next_index_ < batch_lanes) {
      out[next_index_ >> 6] |= 1ULL << (next_index_ & 63);
      next_index_ += 1 + draw_gap();
    }
    next_index_ -= batch_lanes;
    return;
  }
  for (unsigned w = 0; w < words; ++w) out[w] = rng_->next_bernoulli_mask(p_);
}

PackedSimulator::PackedSimulator(const NoiseModel& model, std::uint64_t seed)
    : model_(model), rng_(seed) {
  streams_.reserve(kNumGateKinds);
  for (int k = 0; k < kNumGateKinds; ++k)
    streams_.emplace_back(model_.error_for(static_cast<GateKind>(k)), &rng_);
}

// The noisy loops, per lane width on top of the ideal kernels
// (noise/packed_kernels.h).
template <unsigned W>
struct NoisyKernels {
  using K = PackedKernels<W>;

  /// One op's draw: its W fail masks and, when some lane fails, one
  /// fresh word per (operand, failing word).
  struct OpDraw {
    std::uint64_t fail[W];
    unsigned failing;           // words with a failing lane
    unsigned failing_w[W];      // those words, ascending
    std::uint64_t fresh[3][W];  // fresh[i][f]: operand i, failing_w[f]
  };

  /// The one per-op draw, shared by noisy_gate and draw_faults: the
  /// masks from g's kind stream, then — only if some lane fails — the
  /// fresh words in bit-major order over ascending failing words (at
  /// W=1 the legacy one-draw-per-touched-bit stream). False when no
  /// lane fails.
  static bool draw_op(PackedSimulator& sim, const Gate& g, OpDraw& d) {
    sim.streams_[static_cast<std::size_t>(g.kind)].next_masks(d.fail, W);
    std::uint64_t any = 0;
    for (unsigned w = 0; w < W; ++w) any |= d.fail[w];
    if (any == 0) return false;
    std::uint64_t pop = 0;
    d.failing = 0;
    for (unsigned w = 0; w < W; ++w) {
      pop += static_cast<std::uint64_t>(__builtin_popcountll(d.fail[w]));
      if (d.fail[w] != 0) d.failing_w[d.failing++] = w;
    }
    sim.faults_drawn_ += pop;
    const int n = g.arity();
    for (int i = 0; i < n; ++i)
      for (unsigned f = 0; f < d.failing; ++f) d.fresh[i][f] = sim.rng_.next();
    return true;
  }

  static void noisy_gate(PackedSimulator& sim, PackedState& state,
                         const Gate& g) {
    K::ideal_gate(state, g);
    OpDraw d;
    if (!draw_op(sim, g, d)) return;
    // In failed lanes, every touched bit becomes uniformly random —
    // independent of the correct output, per the paper's model.
    const int n = g.arity();
    for (int i = 0; i < n; ++i) {
      std::uint64_t* wp = state.words(g.bits[static_cast<std::size_t>(i)]);
      for (unsigned f = 0; f < d.failing; ++f) {
        const unsigned w = d.failing_w[f];
        wp[w] = (wp[w] & ~d.fail[w]) | (d.fresh[i][f] & d.fail[w]);
      }
    }
  }

  static void noisy_span(PackedSimulator& sim, PackedState& state,
                         const Circuit& c, std::size_t first,
                         std::size_t last) {
    const std::vector<Gate>& ops = c.ops();
    for (std::size_t i = first; i < last; ++i) noisy_gate(sim, state, ops[i]);
  }

  /// draw_faults: the ops that can draw are merged across kinds in op
  /// order. A kind's cursor sits on its next op that can fail: at a
  /// gap rate the stream's counter jumps straight over the kind's
  /// fault-free ops; at a bit-plane rate every op draws.
  static void draw_faults(PackedSimulator& sim, const Circuit& c,
                          const KindIndex& index, std::size_t first,
                          std::size_t last, std::vector<FaultEvent>& out) {
    struct Cursor {
      const std::uint32_t* next;
      const std::uint32_t* end;
      BernoulliMaskStream* stream;
    };
    Cursor cursors[kNumGateKinds];
    int live = 0;
    for (int k = 0; k < kNumGateKinds; ++k) {
      const std::span<const std::uint32_t> pos =
          index.of(static_cast<GateKind>(k));
      const std::uint32_t* lo = pos.data();
      const std::uint32_t* hi = lo + pos.size();
      if (lo == hi) continue;
      // An index of the range itself (a segment's) needs no search.
      if (*lo < first) lo = std::lower_bound(lo, hi, first);
      if (lo != hi && hi[-1] >= last) hi = std::lower_bound(lo, hi, last);
      if (lo == hi) continue;
      BernoulliMaskStream& s = sim.streams_[static_cast<std::size_t>(k)];
      lo += s.skip_clean(static_cast<std::uint64_t>(hi - lo), W);
      if (lo != hi) cursors[live++] = {lo, hi, &s};
    }
    const std::vector<Gate>& ops = c.ops();
    OpDraw d;
    while (live > 0) {
      int at = 0;
      for (int k = 1; k < live; ++k)
        if (*cursors[k].next < *cursors[at].next) at = k;
      Cursor& cur = cursors[at];
      const std::uint32_t op = *cur.next++;
      if (draw_op(sim, ops[op], d))
        for (unsigned f = 0; f < d.failing; ++f) {
          const unsigned w = d.failing_w[f];
          out.push_back({op, w, d.fail[w],
                         {d.fresh[0][f], d.fresh[1][f], d.fresh[2][f]}});
        }
      cur.next += cur.stream->skip_clean(
          static_cast<std::uint64_t>(cur.end - cur.next), W);
      if (cur.next == cur.end) cur = cursors[--live];
    }
  }
};

void PackedSimulator::apply_ideal(PackedState& state, const Gate& g) {
  with_lane_words(state.lane_words(), "apply_ideal", [&](auto W) {
    PackedKernels<W>::ideal_gate(state, g);
  });
}

void PackedSimulator::apply_ideal(PackedState& state, const Circuit& c) {
  REVFT_CHECK_MSG(c.width() == state.width(), "apply_ideal: width mismatch");
  with_lane_words(state.lane_words(), "apply_ideal", [&](auto W) {
    for (const Gate& g : c.ops()) PackedKernels<W>::ideal_gate(state, g);
  });
}

void PackedSimulator::apply_noisy_span(PackedState& state, const Circuit& c,
                                       std::size_t first, std::size_t last) {
  REVFT_CHECK_MSG(c.width() == state.width(),
                  "apply_noisy_span: width mismatch");
  REVFT_CHECK_MSG(first <= last && last <= c.size(),
                  "apply_noisy_span: bad range [" << first << ", " << last
                                                  << ")");
  with_lane_words(state.lane_words(), "apply_noisy_span", [&](auto W) {
    NoisyKernels<W>::noisy_span(*this, state, c, first, last);
  });
}

std::span<const FaultEvent> PackedSimulator::draw_faults(
    const Circuit& c, const KindIndex& index, std::size_t first,
    std::size_t last, unsigned lane_words) {
  REVFT_CHECK_MSG(index.circuit_ops() == c.size(),
                  "draw_faults: the kind index was built over "
                      << index.circuit_ops() << " ops, the circuit has "
                      << c.size());
  REVFT_CHECK_MSG(first <= last && last <= c.size(),
                  "draw_faults: bad range [" << first << ", " << last << ")");
  events_.clear();
  with_lane_words(lane_words, "draw_faults", [&](auto W) {
    NoisyKernels<W>::draw_faults(*this, c, index, first, last, events_);
  });
  return events_;
}

}  // namespace revft
