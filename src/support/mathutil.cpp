#include "support/mathutil.h"

#include <charconv>
#include <cmath>
#include <limits>
#include <numeric>

#include "support/error.h"

namespace revft {

namespace {
/// a * b with overflow detection.
bool mul_overflow(std::uint64_t a, std::uint64_t b, std::uint64_t& out) noexcept {
  return __builtin_mul_overflow(a, b, &out);
}
}  // namespace

std::uint64_t binomial(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  std::uint64_t result = 1;
  // Multiply/divide interleaved keeps intermediates minimal and exact:
  // after i steps, result == C(partial, i) exactly.
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t factor = n - k + i;
    const std::uint64_t g = std::gcd(result, i);
    std::uint64_t r = result / g;
    const std::uint64_t d = i / g;
    // factor is divisible by d after cancelling with result.
    REVFT_CHECK_MSG(factor % d == 0, "binomial internal invariant");
    std::uint64_t out;
    if (mul_overflow(r, factor / d, out))
      throw Error("binomial: overflow computing C(n,k)");
    result = out;
  }
  return result;
}

std::uint64_t checked_pow(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < exp; ++i) {
    std::uint64_t out;
    if (mul_overflow(result, base, out))
      throw Error("checked_pow: overflow");
    result = out;
  }
  return result;
}

bool pow_fits_u64(std::uint64_t base, std::uint64_t exp) noexcept {
  if (base <= 1 || exp == 0) return true;
  const double bits = static_cast<double>(exp) * std::log2(static_cast<double>(base));
  return bits < 63.9;  // conservative margin below 64
}

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  int base = 10;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    text.remove_prefix(2);
    base = 16;
  }
  // from_chars on an unsigned type takes no sign, whitespace or prefix,
  // and reports overflow as result_out_of_range.
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value, base);
  if (ec != std::errc() || stop != end) return std::nullopt;
  return value;
}

}  // namespace revft
