// revft/noise/model.h
//
// The paper's error model (§2): "at each application, a gate will
// randomize all the bits it is applied to with probability g".
// Randomize means: the touched bits are replaced by uniform random
// values (so with probability 2^-arity the corrupted output happens to
// equal the correct one; §4's entropy accounting uses exactly this
// 1-of-8 structure).
//
// The model charges the same g to every 3-bit operation, including
// SWAP3 and INIT3. The paper also analyses the variant where bit
// initialization is "far more accurate than our gates" — expressed
// here as a per-kind override (with_perfect_init).
#pragma once

#include <array>

#include "rev/gate.h"

namespace revft {

/// Per-gate-kind failure probabilities.
class NoiseModel {
 public:
  NoiseModel() { per_kind_.fill(-1.0); }

  /// Uniform failure probability g for every gate kind.
  static NoiseModel uniform(double g);

  /// Probability that an application of `kind` fails.
  double error_for(GateKind kind) const noexcept {
    const double o = per_kind_[static_cast<std::size_t>(kind)];
    return o >= 0.0 ? o : gate_error_;
  }

  /// Override the failure probability of one kind.
  NoiseModel& set_kind(GateKind kind, double p);

  /// Paper's "initialization far more accurate than gates" variant:
  /// init3 never fails.
  NoiseModel& with_perfect_init() { return set_kind(GateKind::kInit3, 0.0); }

  bool is_noiseless() const noexcept;

 private:
  explicit NoiseModel(double g) : gate_error_(g) { per_kind_.fill(-1.0); }

  double gate_error_ = 0.0;
  std::array<double, kNumGateKinds> per_kind_{};  // -1 = use gate_error_
};

}  // namespace revft
