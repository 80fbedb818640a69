// Tests for the multi-block 1D machine: routed logical programs must
// compute the right function (exhaustive over inputs), stay nearest-
// neighbour throughout, and pay the documented routing costs.
#include <gtest/gtest.h>

#include "code/repetition.h"
#include "local/lattice.h"
#include "local/machine.h"
#include "rev/simulator.h"
#include "support/error.h"

namespace revft {
namespace {

/// Run a compiled program on encoded inputs and decode every logical
/// bit from its final block slot.
unsigned run_program(const MachineProgram& program, std::uint32_t bits,
                     unsigned input) {
  StateVector sv(program.physical.width());
  // Inputs load into the initial arrangement: logical bit i in slot i.
  for (std::uint32_t i = 0; i < bits; ++i)
    for (std::uint32_t offset : {0u, 3u, 6u})
      sv.set_bit(9 * i + offset, static_cast<std::uint8_t>((input >> i) & 1u));
  sv.apply(program.physical);
  unsigned out = 0;
  for (std::uint32_t i = 0; i < bits; ++i) {
    const std::uint32_t base = 9 * program.slot_of_logical[i];
    const int v = majority3(sv.bit(base), sv.bit(base + 3), sv.bit(base + 6));
    out |= static_cast<unsigned>(v) << i;
  }
  return out;
}

void expect_program_correct(const Circuit& logical) {
  const Machine machine(BlockLayout::k1d, logical.width());
  const auto program = machine.compile(logical);
  EXPECT_TRUE(check_locality_1d(program.physical).ok)
      << "compiled program must be nearest-neighbour";
  for (unsigned input = 0; input < (1u << logical.width()); ++input) {
    EXPECT_EQ(run_program(program, logical.width(), input),
              static_cast<unsigned>(simulate(logical, input)))
        << "input " << input;
  }
}

TEST(Machine1d, AdjacentOperandsNeedNoRouting) {
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  const auto program = Machine(BlockLayout::k1d, 3).compile(logical);
  EXPECT_EQ(program.block_transpositions, 0u);
  EXPECT_EQ(program.routing_cell_swaps, 0u);
  EXPECT_EQ(program.gate_cycles, 1u);
}

TEST(Machine1d, AdjacentGateComputesCorrectly) {
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  expect_program_correct(logical);
}

TEST(Machine1d, ReversedOperandsRouteAndCompute) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);  // operand order reversed on the line
  const auto program = Machine(BlockLayout::k1d, 3).compile(logical);
  EXPECT_GT(program.block_transpositions, 0u);
  expect_program_correct(logical);
}

TEST(Machine1d, RemoteOperandsAcrossTheLine) {
  Circuit logical(5);
  logical.maj(0, 4, 2);  // ends of the line plus the middle
  expect_program_correct(logical);
}

TEST(Machine1d, BlockTranspositionCosts81Swaps) {
  Circuit logical(3);
  logical.toffoli(1, 0, 2);  // one adjacent transposition needed
  const auto program = Machine(BlockLayout::k1d, 3).compile(logical);
  EXPECT_EQ(program.block_transpositions, 1u);
  EXPECT_EQ(program.routing_cell_swaps, 81u);
}

TEST(Machine1d, MultiGateProgramWithLazyRouting) {
  Circuit logical(4);
  logical.toffoli(0, 1, 2).maj(3, 2, 1).swap3(1, 2, 3).fredkin(0, 2, 3);
  expect_program_correct(logical);
}

TEST(Machine1d, TransversalNotNeedsNoRouting) {
  Circuit logical(3);
  logical.not_(1).toffoli(0, 1, 2);
  const auto program = Machine(BlockLayout::k1d, 3).compile(logical);
  expect_program_correct(logical);
  // NOT adds one recovery stage; the toffoli adds three more.
  EXPECT_EQ(program.recovery_stages, 4u);
}

TEST(Machine1d, LogicalInitResets) {
  Circuit logical(4);
  logical.init3(0, 1, 2);
  const Machine machine(BlockLayout::k1d, 4);
  const auto program = machine.compile(logical);
  for (unsigned input = 0; input < 16; ++input) {
    const unsigned out = run_program(program, 4, input);
    // Bits 0..2 reset; bit 3 untouched.
    EXPECT_EQ(out & 7u, 0u) << input;
    EXPECT_EQ((out >> 3) & 1u, (input >> 3) & 1u) << input;
  }
}

TEST(Machine1d, SlotMapTracksFinalPositions) {
  Circuit logical(4);
  logical.toffoli(3, 1, 0);
  const auto program = Machine(BlockLayout::k1d, 4).compile(logical);
  // The operands end adjacent in order (3,1,0); slot map must be a
  // permutation covering all blocks.
  std::vector<bool> seen(4, false);
  for (auto slot : program.slot_of_logical) {
    ASSERT_LT(slot, 4u);
    EXPECT_FALSE(seen[slot]);
    seen[slot] = true;
  }
  EXPECT_EQ(program.slot_of_logical[3] + 1, program.slot_of_logical[1]);
  EXPECT_EQ(program.slot_of_logical[1] + 1, program.slot_of_logical[0]);
}

TEST(Machine1d, RejectsUnsupportedAndMalformed) {
  EXPECT_THROW(Machine(BlockLayout::k1d, 2), Error);  // too small
  Circuit logical(4);
  logical.cnot(0, 1);  // 2-bit logical gates unsupported by §3.2 cycle
  EXPECT_THROW(Machine(BlockLayout::k1d, 4).compile(logical), Error);
  Circuit wrong_width(3);
  EXPECT_THROW(Machine(BlockLayout::k1d, 4).compile(wrong_width), Error);
}

TEST(Machine1d, WiderMachineExhaustive) {
  // A 5-bit program mixing routing distances; all 32 inputs.
  Circuit logical(5);
  logical.maj(4, 2, 0).toffoli(1, 3, 4).majinv(0, 1, 2);
  expect_program_correct(logical);
}

TEST(Machine1d, RoutingCostGrowsWithDistance) {
  // Operands at distance d need more transpositions than adjacent.
  Circuit near(5), far(5);
  near.toffoli(0, 1, 2);
  far.toffoli(0, 3, 4);
  const auto near_program = Machine(BlockLayout::k1d, 5).compile(near);
  const auto far_program = Machine(BlockLayout::k1d, 5).compile(far);
  EXPECT_GT(far_program.block_transpositions,
            near_program.block_transpositions);
}

}  // namespace
}  // namespace revft
