// Tests for the multi-block 2D strip machine: exhaustive correctness
// of routed programs, strict nearest-neighbour locality (2D init is
// local, unlike 1D), routing costs (27 swaps per block transposition),
// and the orientation bookkeeping across chained cycles.
#include <gtest/gtest.h>

#include "code/repetition.h"
#include "local/lattice.h"
#include "local/machine.h"
#include "local/scheme2d.h"
#include "rev/simulator.h"
#include "support/error.h"

namespace revft {
namespace {

unsigned run_program(const MachineProgram& program, std::uint32_t bits,
                     unsigned input) {
  StateVector sv(program.physical.width());
  // Initial layout: logical bit i in slot i, data along block row 0 =
  // global bits 9i, 9i+1, 9i+2.
  for (std::uint32_t i = 0; i < bits; ++i)
    for (std::uint32_t c = 0; c < 3; ++c)
      sv.set_bit(9 * i + c, static_cast<std::uint8_t>((input >> i) & 1u));
  sv.apply(program.physical);
  unsigned out = 0;
  for (std::uint32_t i = 0; i < bits; ++i) {
    const std::uint32_t base = 9 * program.slot_of_logical[i];
    // Row-oriented at program end: data at block row 0.
    const int v = majority3(sv.bit(base), sv.bit(base + 1), sv.bit(base + 2));
    out |= static_cast<unsigned>(v) << i;
  }
  return out;
}

void expect_program_correct(const Circuit& logical) {
  const Machine machine(BlockLayout::k2d, logical.width());
  const auto program = machine.compile(logical);
  LocalityOptions strict;
  strict.allow_nonlocal_init = false;
  EXPECT_TRUE(check_locality_2d(program.physical, 3 * logical.width(),
                                Cycle2d::kCols, strict)
                  .ok)
      << "2D programs must be strictly local, init included";
  for (unsigned input = 0; input < (1u << logical.width()); ++input) {
    EXPECT_EQ(run_program(program, logical.width(), input),
              static_cast<unsigned>(simulate(logical, input)))
        << "input " << input;
  }
}

TEST(Machine2d, AdjacentOperandsNeedNoRouting) {
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  const auto program = Machine(BlockLayout::k2d, 3).compile(logical);
  EXPECT_EQ(program.block_transpositions, 0u);
  EXPECT_EQ(program.gate_cycles, 1u);
  // 3 cycle recovery stages + 3 re-orientation stages.
  EXPECT_EQ(program.recovery_stages, 6u);
}

TEST(Machine2d, AdjacentGateComputesCorrectly) {
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  expect_program_correct(logical);
}

TEST(Machine2d, BlockTranspositionCosts27Swaps) {
  Circuit logical(3);
  logical.toffoli(1, 0, 2);
  const auto program = Machine(BlockLayout::k2d, 3).compile(logical);
  EXPECT_EQ(program.block_transpositions, 1u);
  EXPECT_EQ(program.routing_cell_swaps, 27u)
      << "one third of the 1D machine's 81: columns move in parallel";
}

TEST(Machine2d, RemoteOperandsAcrossTheStrip) {
  Circuit logical(5);
  logical.maj(0, 4, 2);
  expect_program_correct(logical);
}

TEST(Machine2d, MultiGateProgramChainsOrientations) {
  // Consecutive gates on overlapping operands exercise the
  // re-orientation stages between cycles.
  Circuit logical(4);
  logical.toffoli(0, 1, 2).maj(3, 2, 1).swap3(1, 2, 3).fredkin(0, 2, 3);
  expect_program_correct(logical);
}

TEST(Machine2d, TransversalNotPreservesOrientation) {
  Circuit logical(3);
  logical.not_(1).toffoli(0, 1, 2).not_(0);
  expect_program_correct(logical);
}

TEST(Machine2d, LogicalInitResets) {
  Circuit logical(4);
  logical.init3(1, 2, 3);
  const auto program = Machine(BlockLayout::k2d, 4).compile(logical);
  for (unsigned input = 0; input < 16; ++input) {
    const unsigned out = run_program(program, 4, input);
    EXPECT_EQ(out & 0b1110u, 0u) << input;
    EXPECT_EQ(out & 1u, input & 1u) << input;
  }
}

TEST(Machine2d, CheaperRoutingThanMachine1d) {
  // Same logical program: the strip routes at 1/3 the swap cost.
  Circuit logical(5);
  logical.toffoli(4, 2, 0);
  const auto program = Machine(BlockLayout::k2d, 5).compile(logical);
  EXPECT_EQ(program.routing_cell_swaps, program.block_transpositions * 27);
}

TEST(Machine2d, RejectsUnsupportedAndMalformed) {
  EXPECT_THROW(Machine(BlockLayout::k2d, 2), Error);
  Circuit logical(4);
  logical.swap(0, 1);
  EXPECT_THROW(Machine(BlockLayout::k2d, 4).compile(logical), Error);
}

TEST(Machine2d, WiderMachineExhaustive) {
  Circuit logical(5);
  logical.maj(4, 2, 0).toffoli(1, 3, 4).majinv(0, 1, 2);
  expect_program_correct(logical);
}

}  // namespace
}  // namespace revft
