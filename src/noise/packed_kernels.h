// revft/noise/packed_kernels.h
//
// The ideal gate kernels of the packed engine, instantiated per lane
// width, and the one fault injection. W is a compile-time constant, so
// every loop below is a fixed-trip-count word-array op the compiler
// unrolls and vectorizes (one AVX2 op at W=4, one AVX-512 op at W=8).
// Gate operands are validated distinct at construction (rev/gate.h
// make_* helpers), so the per-operand pointers never alias and
// __restrict__ is sound. The noisy span loops (noise/packed_sim.cpp)
// and the checked walk (detect/checked_mc.cpp) both run on these.
#pragma once

#include <cstdint>

#include "noise/packed_sim.h"
#include "rev/gate.h"

namespace revft {

template <unsigned W>
struct PackedKernels {
  // Always inlined: the op loops dispatch on the kind once per op, and
  // GCC left this switch out of line, a call per op.
  [[gnu::always_inline]] static void ideal_gate(PackedState& state,
                                                const Gate& g) {
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

  /// Ops [first, last) in order. Out of line, so the loop keeps its
  /// registers whatever walk calls it.
  [[gnu::noinline]] static void ideal_ops(PackedState& state, const Gate* first,
                                          const Gate* last) {
    for (; first != last; ++first) ideal_gate(state, *first);
  }

  /// Overwrites `e`'s failing lanes of g's operands with its fresh
  /// bits — the paper's "randomize the touched bits", after the ideal
  /// gate ran.
  static void inject(PackedState& state, const Gate& g, const FaultEvent& e) {
    const auto n = static_cast<std::size_t>(g.arity());
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t& w = state.words(g.bits[i])[e.word];
      w = (w & ~e.mask) | (e.fresh[i] & e.mask);
    }
  }
};

}  // namespace revft
