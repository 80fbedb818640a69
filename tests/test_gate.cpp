// Unit tests for rev/gate.h: arities, names, local semantics of every
// primitive (checked against independent reference formulas),
// inverses, and operand validation.
#include <gtest/gtest.h>

#include "rev/gate.h"
#include "support/error.h"

namespace revft {
namespace {

constexpr GateKind kAllKinds[] = {
    GateKind::kNot,     GateKind::kCnot,    GateKind::kSwap,
    GateKind::kToffoli, GateKind::kFredkin, GateKind::kSwap3,
    GateKind::kMaj,     GateKind::kMajInv,  GateKind::kInit3,
    GateKind::kF2g,     GateKind::kNft};

static_assert(static_cast<int>(std::size(kAllKinds)) == kNumGateKinds,
              "test table must cover every kind");

TEST(Gate, ArityMatchesKind) {
  EXPECT_EQ(gate_arity(GateKind::kNot), 1);
  EXPECT_EQ(gate_arity(GateKind::kCnot), 2);
  EXPECT_EQ(gate_arity(GateKind::kSwap), 2);
  EXPECT_EQ(gate_arity(GateKind::kToffoli), 3);
  EXPECT_EQ(gate_arity(GateKind::kFredkin), 3);
  EXPECT_EQ(gate_arity(GateKind::kSwap3), 3);
  EXPECT_EQ(gate_arity(GateKind::kMaj), 3);
  EXPECT_EQ(gate_arity(GateKind::kMajInv), 3);
  EXPECT_EQ(gate_arity(GateKind::kInit3), 3);
  EXPECT_EQ(gate_arity(GateKind::kF2g), 3);
  EXPECT_EQ(gate_arity(GateKind::kNft), 3);
}

TEST(Gate, NamesRoundTrip) {
  for (GateKind kind : kAllKinds)
    EXPECT_EQ(gate_from_name(gate_name(kind)), kind) << gate_name(kind);
}

TEST(Gate, UnknownNameThrows) {
  EXPECT_THROW(gate_from_name("nand"), Error);
  EXPECT_THROW(gate_from_name(""), Error);
  EXPECT_THROW(gate_from_name("MAJ"), Error);  // names are lower-case
}

TEST(Gate, OnlyInit3IsIrreversible) {
  for (GateKind kind : kAllKinds)
    EXPECT_EQ(gate_is_reversible(kind), kind != GateKind::kInit3);
}

// --- local semantics, each against an independent formula -----------

TEST(GateSemantics, Not) {
  EXPECT_EQ(gate_apply_local(GateKind::kNot, 0u), 1u);
  EXPECT_EQ(gate_apply_local(GateKind::kNot, 1u), 0u);
}

TEST(GateSemantics, Cnot) {
  for (unsigned v = 0; v < 4; ++v) {
    const unsigned c = v & 1u, t = (v >> 1) & 1u;
    EXPECT_EQ(gate_apply_local(GateKind::kCnot, v), c | ((t ^ c) << 1));
  }
}

TEST(GateSemantics, Swap) {
  for (unsigned v = 0; v < 4; ++v) {
    const unsigned a = v & 1u, b = (v >> 1) & 1u;
    EXPECT_EQ(gate_apply_local(GateKind::kSwap, v), b | (a << 1));
  }
}

TEST(GateSemantics, Toffoli) {
  for (unsigned v = 0; v < 8; ++v) {
    const unsigned c1 = v & 1u, c2 = (v >> 1) & 1u, t = (v >> 2) & 1u;
    EXPECT_EQ(gate_apply_local(GateKind::kToffoli, v),
              c1 | (c2 << 1) | ((t ^ (c1 & c2)) << 2));
  }
}

TEST(GateSemantics, Fredkin) {
  for (unsigned v = 0; v < 8; ++v) {
    const unsigned c = v & 1u, a = (v >> 1) & 1u, b = (v >> 2) & 1u;
    const unsigned na = c ? b : a;
    const unsigned nb = c ? a : b;
    EXPECT_EQ(gate_apply_local(GateKind::kFredkin, v),
              c | (na << 1) | (nb << 2));
  }
}

TEST(GateSemantics, Swap3IsLeftRotation) {
  for (unsigned v = 0; v < 8; ++v) {
    const unsigned a = v & 1u, b = (v >> 1) & 1u, c = (v >> 2) & 1u;
    EXPECT_EQ(gate_apply_local(GateKind::kSwap3, v), b | (c << 1) | (a << 2));
  }
}

// Table 1 of the paper, transcribed literally. Input/output bit order
// in the table is (q0 q1 q2) = (bit0 bit1 bit2).
TEST(GateSemantics, MajMatchesPaperTable1) {
  const unsigned expected[8] = {
      // 000 001 010 011 100 101 110 111   (as q0q1q2 strings)
      0b000, 0b001, 0b010, 0b111, 0b011, 0b110, 0b101, 0b100};
  for (unsigned v = 0; v < 8; ++v) {
    // Table 1 lists bits as q0q1q2 left-to-right; our local encoding
    // has q0 = bit 0. Convert string order to local encoding.
    const unsigned in =
        ((v >> 2) & 1u) | (((v >> 1) & 1u) << 1) | ((v & 1u) << 2);
    const unsigned want_str = expected[v];
    const unsigned want = ((want_str >> 2) & 1u) | (((want_str >> 1) & 1u) << 1) |
                          ((want_str & 1u) << 2);
    EXPECT_EQ(gate_apply_local(GateKind::kMaj, in), want)
        << "row " << v << " of Table 1";
  }
}

TEST(GateSemantics, MajFirstBitIsMajority) {
  for (unsigned v = 0; v < 8; ++v) {
    const unsigned out = gate_apply_local(GateKind::kMaj, v);
    const int ones = static_cast<int>((v & 1u) + ((v >> 1) & 1u) + ((v >> 2) & 1u));
    EXPECT_EQ(out & 1u, ones >= 2 ? 1u : 0u) << "input " << v;
  }
}

TEST(GateSemantics, MajInvIsInverseOfMaj) {
  for (unsigned v = 0; v < 8; ++v) {
    EXPECT_EQ(gate_apply_local(GateKind::kMajInv,
                               gate_apply_local(GateKind::kMaj, v)),
              v);
    EXPECT_EQ(gate_apply_local(GateKind::kMaj,
                               gate_apply_local(GateKind::kMajInv, v)),
              v);
  }
}

TEST(GateSemantics, MajInvEncodesRepetition) {
  // (x, 0, 0) -> (x, x, x): the encoding step of Fig 2.
  EXPECT_EQ(gate_apply_local(GateKind::kMajInv, 0b000), 0b000u);
  EXPECT_EQ(gate_apply_local(GateKind::kMajInv, 0b001), 0b111u);
}

TEST(GateSemantics, F2gIsDoubleFeynman) {
  // (a, b, c) -> (a, a^b, a^c): two CNOTs sharing the first operand.
  for (unsigned v = 0; v < 8; ++v) {
    const unsigned a = v & 1u, b = (v >> 1) & 1u, c = (v >> 2) & 1u;
    EXPECT_EQ(gate_apply_local(GateKind::kF2g, v),
              a | ((a ^ b) << 1) | ((a ^ c) << 2));
  }
}

TEST(GateSemantics, NftIsControlledNegateSwap) {
  // Control clear: identity. Control set: (1, b, c) -> (1, ~c, ~b).
  for (unsigned v = 0; v < 8; ++v) {
    const unsigned a = v & 1u, b = (v >> 1) & 1u, c = (v >> 2) & 1u;
    const unsigned want =
        a ? (1u | ((c ^ 1u) << 1) | ((b ^ 1u) << 2)) : v;
    EXPECT_EQ(gate_apply_local(GateKind::kNft, v), want);
  }
}

TEST(GateSemantics, ParityPreservingKindsConserveTotalParity) {
  // The detect/ subsystem's foundation: these five kinds never change
  // the XOR of their operand bits.
  for (GateKind kind : {GateKind::kSwap, GateKind::kFredkin, GateKind::kSwap3,
                        GateKind::kF2g, GateKind::kNft}) {
    const int arity = gate_arity(kind);
    for (unsigned v = 0; v < (1u << arity); ++v) {
      const unsigned out = gate_apply_local(kind, v);
      unsigned pin = 0, pout = 0;
      for (int i = 0; i < arity; ++i) {
        pin ^= (v >> i) & 1u;
        pout ^= (out >> i) & 1u;
      }
      EXPECT_EQ(pin, pout) << gate_name(kind) << " input " << v;
    }
  }
}

TEST(GateSemantics, Init3MapsEverythingToZero) {
  for (unsigned v = 0; v < 8; ++v)
    EXPECT_EQ(gate_apply_local(GateKind::kInit3, v), 0u);
}

TEST(GateSemantics, ReversibleKindsAreBijections) {
  for (GateKind kind : kAllKinds) {
    if (!gate_is_reversible(kind)) continue;
    const unsigned size = 1u << gate_arity(kind);
    std::vector<bool> seen(size, false);
    for (unsigned v = 0; v < size; ++v) {
      const unsigned out = gate_apply_local(kind, v);
      ASSERT_LT(out, size) << gate_name(kind);
      EXPECT_FALSE(seen[out]) << gate_name(kind) << " collides at " << v;
      seen[out] = true;
    }
  }
}

// --- Gate struct ----------------------------------------------------

TEST(Gate, InverseUndoesEveryReversibleKind) {
  for (GateKind kind : kAllKinds) {
    if (!gate_is_reversible(kind)) continue;
    const Gate g{kind, {0, 1, 2}};
    const Gate inv = g.inverse();
    // Verify via local semantics on a 3-bit value space, accounting
    // for operand remapping in the inverse (swap3 reverses operands).
    for (unsigned v = 0; v < 8; ++v) {
      // Apply g on bits (0,1,2) then inv on its own operand order.
      unsigned bits[3] = {v & 1u, (v >> 1) & 1u, (v >> 2) & 1u};
      auto apply = [&](const Gate& gate) {
        const int n = gate.arity();
        unsigned local = 0;
        for (int i = 0; i < n; ++i)
          local |= bits[gate.bits[static_cast<std::size_t>(i)]] << i;
        const unsigned out = gate_apply_local(gate.kind, local);
        for (int i = 0; i < n; ++i)
          bits[gate.bits[static_cast<std::size_t>(i)]] = (out >> i) & 1u;
      };
      apply(g);
      apply(inv);
      EXPECT_EQ(bits[0] | (bits[1] << 1) | (bits[2] << 2), v)
          << gate_name(kind) << " input " << v;
    }
  }
}

TEST(Gate, Init3InverseThrows) {
  EXPECT_THROW(make_init3(0, 1, 2).inverse(), Error);
}

TEST(Gate, PrintsKindAndOperands) {
  EXPECT_EQ(::testing::PrintToString(make_toffoli(4, 0, 7)), "toffoli(4, 0, 7)");
  EXPECT_EQ(::testing::PrintToString(make_not(3)), "not(3)");
}

TEST(Gate, TouchesAndMaxBit) {
  const Gate g = make_toffoli(2, 7, 4);
  EXPECT_TRUE(g.touches(2));
  EXPECT_TRUE(g.touches(7));
  EXPECT_TRUE(g.touches(4));
  EXPECT_FALSE(g.touches(0));
  EXPECT_FALSE(g.touches(3));
  EXPECT_EQ(g.max_bit_plus_one(), 8u);
}

TEST(Gate, NotGateIgnoresUnusedOperandSlots) {
  const Gate g = make_not(5);
  EXPECT_FALSE(g.touches(0));  // unused slots canonically zero but arity 1
  EXPECT_TRUE(g.touches(5));
  EXPECT_EQ(g.max_bit_plus_one(), 6u);
}

TEST(Gate, DuplicateOperandsRejected) {
  EXPECT_THROW(make_cnot(3, 3), Error);
  EXPECT_THROW(make_swap(0, 0), Error);
  EXPECT_THROW(make_toffoli(1, 2, 1), Error);
  EXPECT_THROW(make_maj(4, 4, 5), Error);
  EXPECT_THROW(make_swap3(1, 2, 2), Error);
  EXPECT_THROW(make_init3(0, 0, 0), Error);
  EXPECT_THROW(make_f2g(0, 1, 0), Error);
  EXPECT_THROW(make_nft(2, 2, 3), Error);
}

}  // namespace
}  // namespace revft
