#include "noise/packed_sim.h"

#include <cmath>

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
  use_geometric_ = p > 0.0 && p < 0.03;
  if (use_geometric_) {
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

std::uint64_t BernoulliMaskStream::next_mask() {
  if (p_ <= 0.0) return 0;
  if (p_ >= 1.0) return ~0ULL;
  if (use_geometric_) {
    std::uint64_t mask = 0;
    while (next_index_ < 64) {
      mask |= 1ULL << next_index_;
      next_index_ += 1 + draw_gap();
    }
    next_index_ -= 64;
    return mask;
  }
  return rng_->next_bernoulli_mask(p_);
}

// The inline fast path (no failure anywhere in the batch) already
// handled the common case; here at least one lane fails, p is
// degenerate, or the threshold path is active.
void BernoulliMaskStream::next_masks_slow(std::uint64_t* out, unsigned words) {
  if (p_ <= 0.0) {
    for (unsigned w = 0; w < words; ++w) out[w] = 0;
    return;
  }
  if (p_ >= 1.0) {
    for (unsigned w = 0; w < words; ++w) out[w] = ~0ULL;
    return;
  }
  if (use_geometric_) {
    // Walk the gap chain once across the whole batch. Equivalent to
    // per-word next_mask() calls — those track the same global lane
    // index, just rebased by 64 per word — with the same draws in the
    // same order, so the RNG stream is bit-identical; the cost is
    // O(failures in the batch) instead of O(words).
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

// Gate kernels instantiated per lane width. W is a compile-time
// constant, so every loop below is a fixed-trip-count word-array op
// the compiler unrolls and vectorizes (one AVX2 op at W=4, one
// AVX-512 op at W=8). Gate operands are validated distinct at
// construction (rev/gate.h make_* helpers), so the per-operand
// pointers never alias and __restrict__ is sound.
template <unsigned W>
struct PackedKernels {
  static void ideal_gate(PackedState& state, const Gate& g) {
    const auto& b = g.bits;
    switch (g.kind) {
      case GateKind::kNot: {
        std::uint64_t* __restrict__ a = state.words(b[0]);
        for (unsigned w = 0; w < W; ++w) a[w] = ~a[w];
        return;
      }
      case GateKind::kCnot: {
        const std::uint64_t* __restrict__ c = state.words(b[0]);
        std::uint64_t* __restrict__ t = state.words(b[1]);
        for (unsigned w = 0; w < W; ++w) t[w] ^= c[w];
        return;
      }
      case GateKind::kSwap: {
        std::uint64_t* __restrict__ x = state.words(b[0]);
        std::uint64_t* __restrict__ y = state.words(b[1]);
        for (unsigned w = 0; w < W; ++w) {
          const std::uint64_t t = x[w];
          x[w] = y[w];
          y[w] = t;
        }
        return;
      }
      case GateKind::kToffoli: {
        const std::uint64_t* __restrict__ c1 = state.words(b[0]);
        const std::uint64_t* __restrict__ c2 = state.words(b[1]);
        std::uint64_t* __restrict__ t = state.words(b[2]);
        for (unsigned w = 0; w < W; ++w) t[w] ^= c1[w] & c2[w];
        return;
      }
      case GateKind::kFredkin: {
        const std::uint64_t* __restrict__ c = state.words(b[0]);
        std::uint64_t* __restrict__ x = state.words(b[1]);
        std::uint64_t* __restrict__ y = state.words(b[2]);
        for (unsigned w = 0; w < W; ++w) {
          const std::uint64_t d = c[w] & (x[w] ^ y[w]);
          x[w] ^= d;
          y[w] ^= d;
        }
        return;
      }
      case GateKind::kSwap3: {
        // Left rotation: new(a,b,c) = (old b, old c, old a).
        std::uint64_t* __restrict__ x = state.words(b[0]);
        std::uint64_t* __restrict__ y = state.words(b[1]);
        std::uint64_t* __restrict__ z = state.words(b[2]);
        for (unsigned w = 0; w < W; ++w) {
          const std::uint64_t t = x[w];
          x[w] = y[w];
          y[w] = z[w];
          z[w] = t;
        }
        return;
      }
      case GateKind::kMaj: {
        std::uint64_t* __restrict__ x = state.words(b[0]);
        std::uint64_t* __restrict__ y = state.words(b[1]);
        std::uint64_t* __restrict__ z = state.words(b[2]);
        for (unsigned w = 0; w < W; ++w) {
          y[w] ^= x[w];
          z[w] ^= x[w];
          x[w] ^= y[w] & z[w];
        }
        return;
      }
      case GateKind::kMajInv: {
        std::uint64_t* __restrict__ x = state.words(b[0]);
        std::uint64_t* __restrict__ y = state.words(b[1]);
        std::uint64_t* __restrict__ z = state.words(b[2]);
        for (unsigned w = 0; w < W; ++w) {
          x[w] ^= y[w] & z[w];
          y[w] ^= x[w];
          z[w] ^= x[w];
        }
        return;
      }
      case GateKind::kInit3: {
        std::uint64_t* __restrict__ x = state.words(b[0]);
        std::uint64_t* __restrict__ y = state.words(b[1]);
        std::uint64_t* __restrict__ z = state.words(b[2]);
        for (unsigned w = 0; w < W; ++w) {
          x[w] = 0;
          y[w] = 0;
          z[w] = 0;
        }
        return;
      }
      case GateKind::kF2g: {
        const std::uint64_t* __restrict__ x = state.words(b[0]);
        std::uint64_t* __restrict__ y = state.words(b[1]);
        std::uint64_t* __restrict__ z = state.words(b[2]);
        for (unsigned w = 0; w < W; ++w) {
          y[w] ^= x[w];
          z[w] ^= x[w];
        }
        return;
      }
      case GateKind::kNft: {
        // Lanes with the control set map (b,c) -> (~c, ~b); XORing both
        // words with ~(b^c) under the control mask does exactly that.
        const std::uint64_t* __restrict__ x = state.words(b[0]);
        std::uint64_t* __restrict__ y = state.words(b[1]);
        std::uint64_t* __restrict__ z = state.words(b[2]);
        for (unsigned w = 0; w < W; ++w) {
          const std::uint64_t d = x[w] & ~(y[w] ^ z[w]);
          y[w] ^= d;
          z[w] ^= d;
        }
        return;
      }
    }
  }

  static void ideal_circuit(PackedState& state, const Circuit& c) {
    for (const Gate& g : c.ops()) ideal_gate(state, g);
  }

  static void noisy_gate(PackedSimulator& sim, PackedState& state,
                         const Gate& g) {
    ideal_gate(state, g);
    std::uint64_t fail[W];
    sim.streams_[static_cast<std::size_t>(g.kind)].next_masks(fail, W);
    std::uint64_t any = 0;
    for (unsigned w = 0; w < W; ++w) any |= fail[w];
    if (any == 0) return;
    std::uint64_t pop = 0;
    // Failing words are sparse (usually exactly one); record them once
    // so the injection below walks O(failing words) per bit instead of
    // scanning all W words per bit.
    unsigned failing = 0;
    unsigned failing_w[W];
    for (unsigned w = 0; w < W; ++w) {
      pop += static_cast<std::uint64_t>(__builtin_popcountll(fail[w]));
      if (fail[w] != 0) failing_w[failing++] = w;
    }
    sim.faults_drawn_ += pop;
    // In failed lanes, every touched bit becomes uniformly random —
    // independent of the correct output, per the paper's model. One
    // fresh word per (bit, fail word) pair, drawn in bit-major order
    // over ascending failing words — at W=1 this is exactly the legacy
    // one-draw-per-touched-bit stream.
    const int n = g.arity();
    for (int i = 0; i < n; ++i) {
      std::uint64_t* wp = state.words(g.bits[static_cast<std::size_t>(i)]);
      for (unsigned f = 0; f < failing; ++f) {
        const unsigned w = failing_w[f];
        wp[w] = (wp[w] & ~fail[w]) | (sim.rng_.next() & fail[w]);
      }
    }
  }

  static void noisy_span(PackedSimulator& sim, PackedState& state,
                         const Circuit& c, std::size_t first,
                         std::size_t last) {
    const std::vector<Gate>& ops = c.ops();
    for (std::size_t i = first; i < last; ++i) noisy_gate(sim, state, ops[i]);
  }

  static void noisy_ops(PackedSimulator& sim, PackedState& state,
                        const Circuit& c,
                        const std::vector<std::size_t>& positions) {
    const std::vector<Gate>& ops = c.ops();
    for (const std::size_t i : positions) {
      REVFT_DASSERT(i < ops.size());
      noisy_gate(sim, state, ops[i]);
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
    PackedKernels<W>::ideal_circuit(state, c);
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
    PackedKernels<W>::noisy_span(*this, state, c, first, last);
  });
}

void PackedSimulator::apply_noisy_ops(
    PackedState& state, const Circuit& c,
    const std::vector<std::size_t>& positions) {
  REVFT_CHECK_MSG(c.width() == state.width(),
                  "apply_noisy_ops: width mismatch");
  REVFT_CHECK_MSG(positions.empty() || positions.back() < c.size(),
                  "apply_noisy_ops: position " << positions.back()
                                               << " past the circuit end");
  with_lane_words(state.lane_words(), "apply_noisy_ops", [&](auto W) {
    PackedKernels<W>::noisy_ops(*this, state, c, positions);
  });
}

}  // namespace revft
