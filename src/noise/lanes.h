// revft/noise/lanes.h
//
// Lane-batch geometry of the widened packed Monte-Carlo engine. One
// batch simulates 64 * lane_words independent trials: circuit bit i of
// trial t lives in bit (t mod 64) of lane word (t / 64) of cell i, so
// every gate kernel is a contiguous loop over lane_words words per
// touched cell — the shape the compiler auto-vectorizes to AVX2
// (4 x uint64) or AVX-512 (8 x uint64) with no intrinsics.
//
// lane_words is part of the DETERMINISM KEY, exactly like
// batches_per_shard: changing it changes how many Bernoulli masks are
// drawn per gate and therefore the RNG stream. lane_words = 1 is the
// legacy 64-lane engine bit for bit; the thread count never changes
// any estimate at any width (both contracts are ctest-enforced).
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>

#include "support/error.h"

namespace revft {

/// Hard cap on the batch width: 8 words = 512 lanes, one AVX-512
/// register row per cell. with_lane_words instantiates every templated
/// word loop for each valid width, so the set is closed: {1, 2, 4, 8}.
inline constexpr unsigned kMaxLaneWords = 8;

/// Valid widths are the power-of-two word counts up to kMaxLaneWords
/// (1 = legacy 64 lanes, 4 = AVX2-shaped 256, 8 = AVX-512-shaped 512).
constexpr bool valid_lane_words(unsigned lane_words) noexcept {
  return lane_words == 1 || lane_words == 2 || lane_words == 4 ||
         lane_words == 8;
}

/// Runs f(std::integral_constant<unsigned, W>{}) with W = lane_words
/// and returns its result: the one place a runtime batch width selects
/// a compile-time instantiation (the gate kernels and the checked and
/// recovering span loops), so each runs fixed-trip W-word loops.
/// Throws revft::Error naming `who` unless valid_lane_words(lane_words).
template <typename F>
decltype(auto) with_lane_words(unsigned lane_words, const char* who, F&& f) {
  switch (lane_words) {
    case 1:
      return f(std::integral_constant<unsigned, 1>{});
    case 2:
      return f(std::integral_constant<unsigned, 2>{});
    case 4:
      return f(std::integral_constant<unsigned, 4>{});
    case 8:
      return f(std::integral_constant<unsigned, 8>{});
  }
  std::string msg = who;
  msg += ": bad lane_words ";
  msg += std::to_string(lane_words);
  throw Error(msg);
}

/// Per-lane bitmask of one batch: lane_words() words of 64 lanes each
/// (lane t = bit t%64 of word t/64), the multi-word generalization of
/// the engine's uint64_t lane masks. Fixed inline storage — no
/// allocation on the per-batch hot paths.
class LaneMask {
 public:
  LaneMask() : n_(1) {}
  explicit LaneMask(unsigned words) : n_(words) {
    REVFT_DASSERT(words >= 1 && words <= kMaxLaneWords);
  }

  /// All `64 * words` lanes set.
  static LaneMask ones(unsigned words) {
    LaneMask m(words);
    for (unsigned w = 0; w < words; ++w) m.w_[w] = ~0ULL;
    return m;
  }
  /// The live mask of a (possibly partial) batch: the first `count`
  /// lanes set, the rest clear.
  static LaneMask first_n(unsigned words, std::uint64_t count) {
    LaneMask m(words);
    for (unsigned w = 0; w < words; ++w) {
      if (count >= 64) {
        m.w_[w] = ~0ULL;
        count -= 64;
      } else {
        m.w_[w] = count ? (1ULL << count) - 1 : 0;
        count = 0;
      }
    }
    return m;
  }

  unsigned words() const noexcept { return n_; }
  unsigned lanes() const noexcept { return 64 * n_; }
  std::uint64_t word(unsigned w) const {
    REVFT_DASSERT(w < n_);
    return w_[w];
  }
  std::uint64_t& word(unsigned w) {
    REVFT_DASSERT(w < n_);
    return w_[w];
  }
  const std::uint64_t* data() const noexcept { return w_.data(); }
  std::uint64_t* data() noexcept { return w_.data(); }

  bool test(unsigned lane) const {
    REVFT_DASSERT(lane < lanes());
    return (w_[lane >> 6] >> (lane & 63u)) & 1u;
  }
  void set(unsigned lane) {
    REVFT_DASSERT(lane < lanes());
    w_[lane >> 6] |= 1ULL << (lane & 63u);
  }
  void reset(unsigned lane) {
    REVFT_DASSERT(lane < lanes());
    w_[lane >> 6] &= ~(1ULL << (lane & 63u));
  }

  bool any() const noexcept {
    std::uint64_t acc = 0;
    for (unsigned w = 0; w < n_; ++w) acc |= w_[w];
    return acc != 0;
  }
  bool none() const noexcept { return !any(); }
  std::uint64_t popcount() const noexcept {
    std::uint64_t total = 0;
    for (unsigned w = 0; w < n_; ++w)
      total += static_cast<std::uint64_t>(std::popcount(w_[w]));
    return total;
  }

  void clear() noexcept {
    for (unsigned w = 0; w < n_; ++w) w_[w] = 0;
  }

  LaneMask& operator&=(const LaneMask& o) {
    REVFT_DASSERT(o.n_ == n_);
    for (unsigned w = 0; w < n_; ++w) w_[w] &= o.w_[w];
    return *this;
  }
  LaneMask& operator|=(const LaneMask& o) {
    REVFT_DASSERT(o.n_ == n_);
    for (unsigned w = 0; w < n_; ++w) w_[w] |= o.w_[w];
    return *this;
  }
  /// this &= ~o — the mask-subtraction every retry path performs.
  LaneMask& remove(const LaneMask& o) {
    REVFT_DASSERT(o.n_ == n_);
    for (unsigned w = 0; w < n_; ++w) w_[w] &= ~o.w_[w];
    return *this;
  }

  friend LaneMask operator&(LaneMask a, const LaneMask& b) { return a &= b; }
  friend LaneMask operator|(LaneMask a, const LaneMask& b) { return a |= b; }
  friend bool operator==(const LaneMask& a, const LaneMask& b) {
    if (a.n_ != b.n_) return false;
    for (unsigned w = 0; w < a.n_; ++w)
      if (a.w_[w] != b.w_[w]) return false;
    return true;
  }

 private:
  std::array<std::uint64_t, kMaxLaneWords> w_{};
  unsigned n_;
};

/// Calls f(lane) for every lane set in `mask`, in ascending order.
template <typename F>
void for_each_lane(const LaneMask& mask, const F& f) {
  for (unsigned w = 0; w < mask.words(); ++w)
    for (std::uint64_t bits = mask.word(w); bits != 0; bits &= bits - 1)
      f(64 * w + static_cast<unsigned>(std::countr_zero(bits)));
}

}  // namespace revft
