// revft/rev/gate.h
//
// The primitive gate set of the paper's abstract machine (§2): 1-, 2-
// and 3-bit reversible gates plus the 3-bit initialization operation.
// Every reversible gate's semantics is a permutation of its local
// 2^arity input space; INIT3 is the one irreversible primitive (it
// resets three bits to zero and is how entropy leaves the computer).
//
// Gate counting convention (paper §2.2): the noise model charges every
// *operation* — including SWAP3 (two swaps packed into one 3-bit gate,
// Fig 5) and INIT3 (one 3-bit reset) — a single failure probability g.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace revft {

/// Primitive operations. Arity is intrinsic to the kind.
enum class GateKind : std::uint8_t {
  kNot,      ///< 1-bit: a ^= 1
  kCnot,     ///< 2-bit: (c, t): t ^= c
  kSwap,     ///< 2-bit: exchange
  kToffoli,  ///< 3-bit: (c1, c2, t): t ^= c1 & c2
  kFredkin,  ///< 3-bit: (c, a, b): if c, swap(a, b)
  kSwap3,    ///< 3-bit (Fig 5): swap(a,b); swap(b,c) == left rotate (a,b,c)->(b,c,a)
  kMaj,      ///< 3-bit (Fig 1, Table 1): (a,b,c) -> (maj(a,b,c), a^b, a^c)
  kMajInv,   ///< 3-bit: inverse of kMaj; (a,0,0) -> (a,a,a) is the encoder
  kInit3,    ///< 3-bit irreversible reset to |000>
  // Parity-preserving kinds (appended so earlier kind values stay
  // stable). Both conserve the total parity a^b^c, which is what makes
  // single bit-flip faults detectable online (src/detect/).
  kF2g,      ///< 3-bit double-Feynman: (a,b,c) -> (a, a^b, a^c)
  kNft,      ///< 3-bit NFT-style negate-swap: (1,b,c) -> (1, ~c, ~b); identity at a=0
};

/// Number of distinct gate kinds (for histogram arrays).
inline constexpr int kNumGateKinds = 11;

/// Number of bits the gate acts on.
int gate_arity(GateKind kind) noexcept;

/// True for every kind except kInit3.
bool gate_is_reversible(GateKind kind) noexcept;

/// Lower-case mnemonic ("maj", "cnot", ...), stable across versions;
/// used by the text serialization format.
const char* gate_name(GateKind kind) noexcept;

/// Parse a mnemonic produced by gate_name. Throws revft::Error on
/// unknown names.
GateKind gate_from_name(const std::string& name);

/// Apply the gate to a local value: bit i of `local` is the value of
/// operand i. `local` must be < 2^arity. kInit3 maps everything to 0.
unsigned gate_apply_local(GateKind kind, unsigned local) noexcept;

/// Algebraic normal form of output bit `out_bit` of the gate's local
/// truth table, as a bitmask over the 2^arity monomials: bit m is set
/// iff the monomial ∏_{j∈m} x_j (m a subset of the operand indices,
/// m == 0 the constant 1) appears in the XOR expansion of that output.
/// Computed once per kind by a Möbius transform over gate_apply_local,
/// so it can never drift from the executable semantics. Every primitive
/// kind has outputs of degree <= 2 — the structural fact behind both
/// the rail transform's quadratic compensation terms (detect/rail.cpp)
/// and the GF(2) dataflow analyzer (src/verify/). `out_bit` must be
/// < arity.
unsigned gate_output_anf(GateKind kind, int out_bit) noexcept;

/// A gate applied to specific circuit bits. Operands beyond the arity
/// are unused (and canonically zero).
struct Gate {
  GateKind kind;
  std::array<std::uint32_t, 3> bits;

  int arity() const noexcept { return gate_arity(kind); }

  /// The gate that undoes this one, acting on the same bits.
  /// kMaj <-> kMajInv; kSwap3's inverse is kSwap3 with reversed
  /// operands (a right rotation). Throws revft::Error for kInit3.
  Gate inverse() const;

  /// True if `bit` is one of the operands.
  bool touches(std::uint32_t bit) const noexcept;

  /// Largest operand index + 1 (minimum circuit width that fits).
  std::uint32_t max_bit_plus_one() const noexcept;

  bool operator==(const Gate&) const = default;
};

/// Writes "toffoli(0, 1, 2)": the kind's mnemonic and its operands, so
/// a failing gtest comparison of gates names them.
std::ostream& operator<<(std::ostream& os, const Gate& gate);

/// Construction helpers with operand-validity checks (distinct bits).
Gate make_not(std::uint32_t a);
Gate make_cnot(std::uint32_t control, std::uint32_t target);
Gate make_swap(std::uint32_t a, std::uint32_t b);
Gate make_toffoli(std::uint32_t c1, std::uint32_t c2, std::uint32_t target);
Gate make_fredkin(std::uint32_t control, std::uint32_t a, std::uint32_t b);
Gate make_swap3(std::uint32_t a, std::uint32_t b, std::uint32_t c);
Gate make_maj(std::uint32_t a, std::uint32_t b, std::uint32_t c);
Gate make_majinv(std::uint32_t a, std::uint32_t b, std::uint32_t c);
Gate make_init3(std::uint32_t a, std::uint32_t b, std::uint32_t c);
Gate make_f2g(std::uint32_t a, std::uint32_t b, std::uint32_t c);
Gate make_nft(std::uint32_t a, std::uint32_t b, std::uint32_t c);

}  // namespace revft
