// revft/support/mathutil.h
//
// Small exact-integer math helpers used throughout the analysis layer:
// binomial coefficients and integer powers with overflow checking (the
// blow-up formulas Γ_L = (3(G-2))^L and S_L = 9^L overflow 64 bits
// quickly, and silently wrapping would corrupt tables).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace revft {

/// C(n, k) as an exact unsigned 64-bit value.
/// Throws revft::Error on overflow.
std::uint64_t binomial(std::uint64_t n, std::uint64_t k);

/// base^exp as an exact unsigned 64-bit value.
/// Throws revft::Error on overflow.
std::uint64_t checked_pow(std::uint64_t base, std::uint64_t exp);

/// True iff base^exp fits in uint64.
bool pow_fits_u64(std::uint64_t base, std::uint64_t exp) noexcept;

/// The whole of `text` as an unsigned 64-bit integer: decimal digits,
/// or hex digits after a "0x"/"0X" prefix. No sign, no whitespace, no
/// exponent, no trailing characters; nullopt on anything else,
/// including the empty string and values above 2^64 - 1.
std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept;

}  // namespace revft
