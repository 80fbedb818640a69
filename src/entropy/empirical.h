// revft/entropy/empirical.h
//
// Measured entropy of the bits the recovery process discards. §4
// argues the discarded ancillas carry all the entropy the noise
// injects (g <= H_1 per noisy op, up to the κ sqrt(g) ceiling); here
// we actually run the Fig 2 stage under the noise model and estimate
// the joint entropy of its 6 discarded bits from outcome counts.
//
// A construction detail makes this clean: the discarded bits are all
// syndrome-like (d1 and d2 leave as x0^x1 and x0^x2, and the ancilla
// copies likewise), so with clean inputs their noise-free value is
// 000000 regardless of the logical data — the measured entropy is
// purely noise-generated, exactly the quantity bounded in §4.
#pragma once

#include <cstdint>
#include <vector>

namespace revft {

struct AncillaEntropyResult {
  double entropy_plugin = 0.0;        ///< joint over 6 bits (plug-in)
  double entropy_miller_madow = 0.0;  ///< bias-corrected
  std::uint64_t trials = 0;
  std::uint64_t noisy_ops = 0;  ///< fallible ops in the measured stage
  std::vector<std::uint64_t> counts;  ///< trials per discarded pattern
};

/// Run the Fig 2 recovery stage on random clean codewords at gate
/// error g and estimate the entropy of the discarded 6-bit pattern.
/// noisy_init selects whether init3 ops can fail (G̃ = 8 vs 6).
AncillaEntropyResult measure_ec_ancilla_entropy(double g, bool noisy_init,
                                                std::uint64_t trials,
                                                std::uint64_t seed);

}  // namespace revft
