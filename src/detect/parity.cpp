#include "detect/parity.h"

#include "support/error.h"

namespace revft::detect {

bool parity_preserving(GateKind kind) noexcept {
  // The table below is the closed-form answer; test_detect verifies it
  // against gate_apply_local over every kind's full local space.
  switch (kind) {
    case GateKind::kSwap:
    case GateKind::kSwap3:
    case GateKind::kFredkin:
    case GateKind::kF2g:
    case GateKind::kNft:
      return true;
    case GateKind::kNot:      // always flips parity
    case GateKind::kCnot:     // flips parity when the control is set
    case GateKind::kToffoli:  // flips parity when both controls are set
    case GateKind::kMaj:      // delta = (a^b) & (a^c)
    case GateKind::kMajInv:   // delta = b & c
    case GateKind::kInit3:    // delta = a ^ b ^ c (the reset value is 0)
      return false;
  }
  return false;  // unreachable
}

}  // namespace revft::detect
