// examples/example_args.h
//
// The examples' numeric command-line arguments, parsed whole with
// support/mathutil's parse_u64 (decimal or 0x hex, nothing else): a
// trial count of "1e6", "010", "abc" or "-1" is an error, not 1, 8, 0
// or 2^64 - 1 trials.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "support/mathutil.h"

namespace revft {

/// argv[index] as an unsigned integer <= `max`, or `fallback` when the
/// argument is absent. Bad input exits 2 with a message naming it.
inline std::uint64_t u64_arg(int argc, char** argv, int index,
                             const char* name, std::uint64_t fallback,
                             std::uint64_t max = UINT64_MAX) {
  if (index >= argc) return fallback;
  const auto parsed = parse_u64(argv[index]);
  if (!parsed || *parsed > max) {
    std::fprintf(stderr,
                 "%s \"%s\": expected an unsigned decimal or 0x-hex integer",
                 name, argv[index]);
    if (max != UINT64_MAX)
      std::fprintf(stderr, " <= %llu", static_cast<unsigned long long>(max));
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
  return *parsed;
}

}  // namespace revft
