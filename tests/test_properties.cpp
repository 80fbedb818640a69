// Cross-cutting property tests: invariants that tie several modules
// together, checked over exhaustive or randomized domains.
#include <gtest/gtest.h>

#include "code/repetition.h"
#include "detect/parity.h"
#include "ft/concat.h"
#include "ft/ec_circuit.h"
#include "ft/experiments.h"
#include "local/scheme1d.h"
#include "local/scheme2d.h"
#include "noise/packed_sim.h"
#include "rev/optimize.h"
#include "rev/serialize.h"
#include "rev/simulator.h"
#include "support/rng.h"

namespace revft {
namespace {

// The Fig 2 stage computes block majorities for EVERY 9-bit input —
// not just codewords with sparse errors. Exhaustive over all 512
// states: output bit d must equal majority of the block that decodes
// into it, where the blocks are (d0,d1,d2), (a0,a1,a2), (a3,a4,a5)
// holding (x0,x1,x2), (x0,x1,x2), (x0,x1,x2) copies after encoding.
TEST(Property, EcStageMajorityOnAllInputs) {
  const EcStage stage = make_fig2_ec(false);  // no init: ancillas free
  for (unsigned input = 0; input < 512; ++input) {
    StateVector sv(9, input);
    // Capture the post-encoding block contents by running only the
    // encoder prefix (3 majinv ops).
    StateVector mid = sv;
    Circuit encoders(9);
    for (std::size_t i = 0; i < 3; ++i) encoders.push(stage.circuit.op(i));
    mid.apply(encoders);
    const int want0 = majority3(mid.bit(0), mid.bit(1), mid.bit(2));
    const int want1 = majority3(mid.bit(3), mid.bit(4), mid.bit(5));
    const int want2 = majority3(mid.bit(6), mid.bit(7), mid.bit(8));
    sv.apply(stage.circuit);
    EXPECT_EQ(sv.bit(stage.after.data[0]), want0) << input;
    EXPECT_EQ(sv.bit(stage.after.data[1]), want1) << input;
    EXPECT_EQ(sv.bit(stage.after.data[2]), want2) << input;
  }
}

// Per-gate parity conservation table, all kinds: Swap, Swap3, Fredkin,
// F2G and NFT conserve the XOR of their operands on every local input;
// Not, Cnot, Toffoli, Maj, MajInv and Init3 each violate it on at
// least one. The closed-form predicate detect::parity_preserving must
// agree with the semantics everywhere.
TEST(Property, GateParityConservationTable) {
  const struct {
    GateKind kind;
    bool conserves;
  } table[] = {
      {GateKind::kNot, false},     {GateKind::kCnot, false},
      {GateKind::kSwap, true},     {GateKind::kToffoli, false},
      {GateKind::kFredkin, true},  {GateKind::kSwap3, true},
      {GateKind::kMaj, false},     {GateKind::kMajInv, false},
      {GateKind::kInit3, false},   {GateKind::kF2g, true},
      {GateKind::kNft, true},
  };
  static_assert(std::size(table) == kNumGateKinds,
                "table must cover every kind");
  for (const auto& row : table) {
    const int arity = gate_arity(row.kind);
    bool conserves = true;
    for (unsigned v = 0; v < (1u << arity); ++v) {
      const unsigned out = gate_apply_local(row.kind, v);
      if (detect::local_parity(out, arity) != detect::local_parity(v, arity))
        conserves = false;
    }
    EXPECT_EQ(conserves, row.conserves) << gate_name(row.kind);
    EXPECT_EQ(detect::parity_preserving(row.kind), row.conserves)
        << gate_name(row.kind);
  }
}

// Serialization round-trips arbitrary random circuits exactly.
TEST(Property, SerializeRoundTripRandomCircuits) {
  Xoshiro256 rng(0x5e71a11);
  for (int trial = 0; trial < 25; ++trial) {
    const std::uint32_t width = 3 + static_cast<std::uint32_t>(rng.next_below(8));
    Circuit c(width);
    for (int i = 0; i < 30; ++i) {
      const auto pick = [&] {
        return static_cast<std::uint32_t>(rng.next_below(width));
      };
      std::uint32_t a = pick(), b = pick(), d = pick();
      while (b == a) b = pick();
      while (d == a || d == b) d = pick();
      switch (rng.next_below(11)) {
        case 0: c.not_(a); break;
        case 1: c.cnot(a, b); break;
        case 2: c.swap(a, b); break;
        case 3: c.toffoli(a, b, d); break;
        case 4: c.fredkin(a, b, d); break;
        case 5: c.swap3(a, b, d); break;
        case 6: c.maj(a, b, d); break;
        case 7: c.majinv(a, b, d); break;
        case 8: c.f2g(a, b, d); break;
        case 9: c.nft(a, b, d); break;
        default: c.init3(a, b, d); break;
      }
    }
    EXPECT_EQ(circuit_from_text(circuit_to_text(c)), c) << "trial " << trial;
  }
}

// Optimizing a compiled FT module must preserve its logical function.
TEST(Property, OptimizedFtModuleStillComputes) {
  Circuit logical(3);
  logical.maj(0, 1, 2);
  const auto module = concat_compile(logical, 1);
  const Circuit optimized = optimize(module.physical);
  for (unsigned input = 0; input < 8; ++input) {
    StateVector sv(27);
    for (std::uint32_t k = 0; k < 3; ++k) {
      const auto tree = BlockTree::canonical(1, k * 9);
      encode_block(tree, static_cast<int>((input >> k) & 1u),
                   [&](std::uint32_t b, int v) {
                     sv.set_bit(b, static_cast<std::uint8_t>(v));
                   });
    }
    sv.apply(optimized);
    const unsigned expected = gate_apply_local(GateKind::kMaj, input);
    for (std::uint32_t k = 0; k < 3; ++k) {
      const int decoded = decode_block(module.blocks[k], [&](std::uint32_t b) {
        return static_cast<int>(sv.bit(b));
      });
      EXPECT_EQ(decoded, static_cast<int>((expected >> k) & 1u))
          << "input " << input;
    }
  }
}

// Packed noisy simulation at g=1 visits every outcome of a gate's
// local space (full randomization reaches all 2^arity values).
TEST(Property, FullNoiseCoversLocalSpace) {
  Circuit c(3);
  c.maj(0, 1, 2);
  PackedSimulator sim(NoiseModel::uniform(1.0), 0xf011);
  bool seen[8] = {};
  for (int rep = 0; rep < 200; ++rep) {
    PackedState ps(3);
    sim.apply_noisy_span(ps, c, 0, c.size());
    for (int lane = 0; lane < 64; ++lane) {
      const unsigned v = ps.bit_lane(0, lane) | (ps.bit_lane(1, lane) << 1) |
                         (ps.bit_lane(2, lane) << 2);
      seen[v] = true;
    }
  }
  for (unsigned v = 0; v < 8; ++v) EXPECT_TRUE(seen[v]) << v;
}

// The three schemes' recovery stages agree on every correctable input:
// flat Fig 2, the 1D local stage and the 2D local stage all implement
// the same abstract code operation.
TEST(Property, AllThreeRecoveryStagesAgree) {
  const EcStage flat = make_fig2_ec(true);
  const Ec1d one_d = make_ec_1d(true);
  const Ec2d two_d = make_ec_2d(Orientation2d::kRow, true);
  for (int logical = 0; logical <= 1; ++logical) {
    for (unsigned flip = 0; flip < 8; ++flip) {
      if (weight3(flip) > 1) continue;  // only correctable inputs
      auto run = [&](auto data_before, auto data_after, const Circuit& circ) {
        StateVector sv(9);
        for (int i = 0; i < 3; ++i) {
          int v = logical;
          if ((flip >> i) & 1u) v ^= 1;
          sv.set_bit(data_before[static_cast<std::size_t>(i)],
                     static_cast<std::uint8_t>(v));
        }
        sv.apply(circ);
        return majority3(sv.bit(data_after[0]), sv.bit(data_after[1]),
                         sv.bit(data_after[2]));
      };
      const int from_flat = run(flat.before.data, flat.after.data, flat.circuit);
      const int from_1d = run(one_d.data_before, one_d.data_after, one_d.circuit);
      const int from_2d = run(two_d.data_before, two_d.data_after, two_d.circuit);
      EXPECT_EQ(from_flat, logical);
      EXPECT_EQ(from_1d, logical);
      EXPECT_EQ(from_2d, logical);
    }
  }
}

// MemoryExperiment and a manually chained stage sequence agree on the
// circuit they build.
TEST(Property, MemoryCircuitMatchesManualChain) {
  MemoryExperiment::Config config;
  config.rounds = 3;
  const MemoryExperiment exp(config);

  Circuit manual(9);
  EcLayout layout;
  layout.data = {0, 1, 2};
  layout.ancilla = {3, 4, 5, 6, 7, 8};
  for (int round = 0; round < 3; ++round) {
    const EcStage stage = make_ec_stage(9, layout, true);
    manual.append(stage.circuit);
    layout.data = stage.after.data;
    layout.ancilla = stage.after.ancilla;
  }
  EXPECT_EQ(exp.circuit(), manual);
}

// Depth of the compiled level-L module grows much more slowly than its
// gate count (transversal parallelism): a concrete architectural
// advantage the gate-array model exposes.
TEST(Property, CompiledModulesHaveParallelSlack) {
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  for (int level : {1, 2}) {
    const auto module = concat_compile(logical, level);
    const auto depth = module.physical.depth();
    EXPECT_LT(depth * 2, module.physical.size())
        << "level " << level << ": depth " << depth << " vs "
        << module.physical.size() << " ops";
  }
}

}  // namespace
}  // namespace revft
