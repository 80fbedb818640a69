#include "support/rng.h"

namespace revft {

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // All-zero state is the one invalid state for xoshiro; SplitMix64
  // cannot produce four consecutive zeros from any seed, but guard
  // anyway so the invariant is locally visible.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

std::uint64_t Xoshiro256::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Xoshiro256::next_below(std::uint64_t bound) noexcept {
  // Rejection sampling on the top of the range to remove modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::uint64_t Xoshiro256::next_bernoulli_mask(double p) noexcept {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return ~0ULL;
  // Each lane's verdict is u < threshold for its own uniform 64-bit u;
  // 2^64 * p fits in a uint64 after the clamps above, and the half-ulp
  // rounding here is far below Monte-Carlo resolution. The u are drawn
  // lazily as bit-planes, most significant bit first: draw k supplies
  // bit 63-k of all 64 lanes at once. A lane is decided at the first
  // bit where u and threshold differ (u=0, t=1 means u < threshold);
  // a lane that matches all 64 bits has u == threshold and stays 0.
  // Lanes are undecided after k planes with probability 2^-k each, so
  // a mask costs sum_k [1 - (1 - 2^-k)^64] ~= 7.34 draws for every p.
  const auto threshold =
      static_cast<std::uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
  std::uint64_t out = 0;
  std::uint64_t undecided = ~0ULL;
  for (int b = 63; b >= 0 && undecided != 0; --b) {
    const std::uint64_t u = next();
    const std::uint64_t tbit = 0 - ((threshold >> b) & 1ULL);
    out |= undecided & ~u & tbit;
    undecided &= ~(u ^ tbit);
  }
  return out;
}

}  // namespace revft
