// revft/detect/parity.h
//
// Parity bookkeeping for online error detection. A gate is
// *parity-preserving* when the XOR of its output bits always equals
// the XOR of its input bits; circuits built from such gates conserve
// the total parity of the whole bit vector, so any odd-weight
// corruption anywhere is visible at the outputs with a single parity
// check ("Synthesis of Fault Tolerant Reversible Logic Circuits",
// arXiv:1008.3340). The non-conserving kinds can still be protected by
// compensating their known parity delta onto a dedicated rail — see
// detect/rail.h.
#pragma once

#include <cstdint>

#include "rev/gate.h"
#include "rev/simulator.h"

namespace revft::detect {

/// Parity (XOR) of the low `bits` bits of a local gate value.
inline unsigned local_parity(unsigned local, int bits) noexcept {
  unsigned p = 0;
  for (int i = 0; i < bits; ++i) p ^= (local >> i) & 1u;
  return p;
}

/// True when every input of `kind` maps to an output of equal parity:
/// kSwap, kSwap3, kFredkin, kF2g and kNft conserve total parity;
/// kNot, kCnot, kToffoli, kMaj, kMajInv and kInit3 do not.
bool parity_preserving(GateKind kind) noexcept;

}  // namespace revft::detect
