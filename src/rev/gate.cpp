#include "rev/gate.h"

#include <algorithm>
#include <ostream>

#include "support/error.h"

namespace revft {

int gate_arity(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kNot:
      return 1;
    case GateKind::kCnot:
    case GateKind::kSwap:
      return 2;
    case GateKind::kToffoli:
    case GateKind::kFredkin:
    case GateKind::kSwap3:
    case GateKind::kMaj:
    case GateKind::kMajInv:
    case GateKind::kInit3:
    case GateKind::kF2g:
    case GateKind::kNft:
      return 3;
  }
  return 0;  // unreachable
}

bool gate_is_reversible(GateKind kind) noexcept {
  return kind != GateKind::kInit3;
}

const char* gate_name(GateKind kind) noexcept {
  switch (kind) {
    case GateKind::kNot:
      return "not";
    case GateKind::kCnot:
      return "cnot";
    case GateKind::kSwap:
      return "swap";
    case GateKind::kToffoli:
      return "toffoli";
    case GateKind::kFredkin:
      return "fredkin";
    case GateKind::kSwap3:
      return "swap3";
    case GateKind::kMaj:
      return "maj";
    case GateKind::kMajInv:
      return "majinv";
    case GateKind::kInit3:
      return "init3";
    case GateKind::kF2g:
      return "f2g";
    case GateKind::kNft:
      return "nft";
  }
  return "?";  // unreachable
}

GateKind gate_from_name(const std::string& name) {
  static constexpr GateKind kAll[] = {
      GateKind::kNot,     GateKind::kCnot, GateKind::kSwap,
      GateKind::kToffoli, GateKind::kFredkin, GateKind::kSwap3,
      GateKind::kMaj,     GateKind::kMajInv,  GateKind::kInit3,
      GateKind::kF2g,     GateKind::kNft};
  for (GateKind k : kAll)
    if (name == gate_name(k)) return k;
  throw Error("gate_from_name: unknown gate '" + name + "'");
}

unsigned gate_apply_local(GateKind kind, unsigned local) noexcept {
  const unsigned b0 = local & 1u;
  const unsigned b1 = (local >> 1) & 1u;
  const unsigned b2 = (local >> 2) & 1u;
  switch (kind) {
    case GateKind::kNot:
      return local ^ 1u;
    case GateKind::kCnot:
      // operands (control, target)
      return b0 ? (local ^ 2u) : local;
    case GateKind::kSwap:
      return (local & ~3u) | (b0 << 1) | b1;
    case GateKind::kToffoli:
      return (b0 & b1) ? (local ^ 4u) : local;
    case GateKind::kFredkin:
      // operands (control, a, b)
      return b0 ? ((local & 1u) | (b1 << 2) | (b2 << 1)) : local;
    case GateKind::kSwap3:
      // left rotation: new(b0,b1,b2) = (old b1, old b2, old b0)
      return b1 | (b2 << 1) | (b0 << 2);
    case GateKind::kMaj: {
      // (a,b,c) -> (maj(a,b,c), a^b, a^c): CNOT(a->b), CNOT(a->c),
      // then Toffoli(b,c -> a) — Fig 1 of the paper.
      const unsigned nb = b1 ^ b0;
      const unsigned nc = b2 ^ b0;
      const unsigned na = b0 ^ (nb & nc);
      return na | (nb << 1) | (nc << 2);
    }
    case GateKind::kMajInv: {
      // Inverse order: Toffoli(b,c -> a), then CNOT(a->b), CNOT(a->c).
      const unsigned na = b0 ^ (b1 & b2);
      const unsigned nb = b1 ^ na;
      const unsigned nc = b2 ^ na;
      return na | (nb << 1) | (nc << 2);
    }
    case GateKind::kInit3:
      return 0;
    case GateKind::kF2g:
      // Double Feynman: two CNOTs sharing control a. Output parity
      // b0^(b0^b1)^(b0^b2) equals the input parity b0^b1^b2.
      return b0 | ((b1 ^ b0) << 1) | ((b2 ^ b0) << 2);
    case GateKind::kNft:
      // F2G followed by Fredkin on the same operands: with a set, the
      // last two bits are negated and exchanged; otherwise identity.
      // Nonlinear (OR / AND-NOT with a constant line) yet conserves
      // total parity — the NFT-style member of the detect gate set.
      return b0 ? (1u | ((b2 ^ 1u) << 1) | ((b1 ^ 1u) << 2)) : local;
  }
  return local;  // unreachable
}

unsigned gate_output_anf(GateKind kind, int out_bit) noexcept {
  // ANF by Möbius transform: coefficient of monomial m is the XOR of
  // the output bit over every input x ⊆ m. Arity <= 3 keeps the table
  // 8x8; computed once per process and cached.
  struct AnfTable {
    std::array<std::array<unsigned, 3>, kNumGateKinds> anf{};
    AnfTable() {
      for (int k = 0; k < kNumGateKinds; ++k) {
        const GateKind kind_k = static_cast<GateKind>(k);
        const int n = gate_arity(kind_k);
        for (int out = 0; out < n; ++out) {
          unsigned mask = 0;
          for (unsigned m = 0; m < (1u << n); ++m) {
            unsigned coeff = 0;
            unsigned x = m;
            for (;;) {
              coeff ^= (gate_apply_local(kind_k, x) >> out) & 1u;
              if (x == 0) break;
              x = (x - 1) & m;
            }
            if (coeff) mask |= 1u << m;
          }
          anf[static_cast<std::size_t>(k)][static_cast<std::size_t>(out)] =
              mask;
        }
      }
    }
  };
  static const AnfTable table;
  return table.anf[static_cast<std::size_t>(kind)]
                  [static_cast<std::size_t>(out_bit)];
}

std::ostream& operator<<(std::ostream& os, const Gate& gate) {
  os << gate_name(gate.kind) << '(';
  for (int i = 0; i < gate.arity(); ++i)
    os << (i ? ", " : "") << gate.bits[static_cast<std::size_t>(i)];
  return os << ')';
}

Gate Gate::inverse() const {
  switch (kind) {
    case GateKind::kMaj:
      return Gate{GateKind::kMajInv, bits};
    case GateKind::kMajInv:
      return Gate{GateKind::kMaj, bits};
    case GateKind::kSwap3:
      // swap(a,b);swap(b,c) inverted is swap(b,c);swap(a,b), which is
      // swap3 on the reversed operand list (a right rotation).
      return Gate{GateKind::kSwap3, {bits[2], bits[1], bits[0]}};
    case GateKind::kInit3:
      throw Error("Gate::inverse: init3 is irreversible");
    default:
      return *this;  // self-inverse kinds
  }
}

bool Gate::touches(std::uint32_t bit) const noexcept {
  const int n = arity();
  for (int i = 0; i < n; ++i)
    if (bits[static_cast<std::size_t>(i)] == bit) return true;
  return false;
}

std::uint32_t Gate::max_bit_plus_one() const noexcept {
  std::uint32_t m = 0;
  const int n = arity();
  for (int i = 0; i < n; ++i)
    m = std::max(m, bits[static_cast<std::size_t>(i)] + 1);
  return m;
}

namespace {
Gate checked(GateKind kind, std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  const int arity = gate_arity(kind);
  if (arity >= 2) REVFT_CHECK_MSG(a != b, gate_name(kind) << ": duplicate operand");
  if (arity >= 3)
    REVFT_CHECK_MSG(a != c && b != c, gate_name(kind) << ": duplicate operand");
  return Gate{kind, {a, b, c}};
}
}  // namespace

Gate make_not(std::uint32_t a) { return Gate{GateKind::kNot, {a, 0, 0}}; }
Gate make_cnot(std::uint32_t control, std::uint32_t target) {
  return checked(GateKind::kCnot, control, target, 0);
}
Gate make_swap(std::uint32_t a, std::uint32_t b) {
  return checked(GateKind::kSwap, a, b, 0);
}
Gate make_toffoli(std::uint32_t c1, std::uint32_t c2, std::uint32_t target) {
  return checked(GateKind::kToffoli, c1, c2, target);
}
Gate make_fredkin(std::uint32_t control, std::uint32_t a, std::uint32_t b) {
  return checked(GateKind::kFredkin, control, a, b);
}
Gate make_swap3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return checked(GateKind::kSwap3, a, b, c);
}
Gate make_maj(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return checked(GateKind::kMaj, a, b, c);
}
Gate make_majinv(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return checked(GateKind::kMajInv, a, b, c);
}
Gate make_init3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return checked(GateKind::kInit3, a, b, c);
}
Gate make_f2g(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return checked(GateKind::kF2g, a, b, c);
}
Gate make_nft(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
  return checked(GateKind::kNft, a, b, c);
}

}  // namespace revft
