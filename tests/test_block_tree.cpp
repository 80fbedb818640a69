// Tests for the concatenated-code block layout (code/block_tree.h) and
// the small repetition-code helpers.
#include <gtest/gtest.h>

#include "code/block_tree.h"
#include "code/repetition.h"
#include "ft/concat.h"
#include "ft/machine_kernel.h"
#include "noise/packed_sim.h"
#include "rev/simulator.h"
#include "support/rng.h"

namespace revft {
namespace {

TEST(Repetition, Majority3) {
  EXPECT_EQ(majority3(0, 0, 0), 0);
  EXPECT_EQ(majority3(1, 0, 0), 0);
  EXPECT_EQ(majority3(1, 1, 0), 1);
  EXPECT_EQ(majority3(1, 1, 1), 1);
}

TEST(Repetition, CodewordHelpers) {
  EXPECT_TRUE(is_codeword3(0b000));
  EXPECT_TRUE(is_codeword3(0b111));
  EXPECT_FALSE(is_codeword3(0b010));
  EXPECT_EQ(decode3(0b110), 1);
  EXPECT_EQ(decode3(0b100), 0);
  EXPECT_EQ(encode3(1), 7u);
  EXPECT_EQ(encode3(0), 0u);
  EXPECT_EQ(distance_to_code3(0b000), 0);
  EXPECT_EQ(distance_to_code3(0b001), 1);
  EXPECT_EQ(distance_to_code3(0b011), 1);
  EXPECT_EQ(distance_to_code3(0b111), 0);
}

TEST(BlockTree, SpanIsNinePowLevel) {
  EXPECT_EQ(BlockTree::canonical(0, 0).span(), 1u);
  EXPECT_EQ(BlockTree::canonical(1, 0).span(), 9u);
  EXPECT_EQ(BlockTree::canonical(2, 0).span(), 81u);
  EXPECT_EQ(BlockTree::canonical(3, 0).span(), 729u);
}

TEST(BlockTree, CanonicalChildrenAreContiguous) {
  const auto t = BlockTree::canonical(2, 100);
  ASSERT_EQ(t.children.size(), 9u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(t.children[static_cast<std::size_t>(i)].base,
              100u + 9u * static_cast<std::uint32_t>(i));
    EXPECT_EQ(t.children[static_cast<std::size_t>(i)].level, 1);
  }
}

TEST(BlockTree, AncillaIndicesComplementData) {
  BlockTree t = BlockTree::canonical(1, 0);
  t.data = {0, 4, 8};
  const auto anc = t.ancilla_indices();
  EXPECT_EQ(anc, (std::array<int, 6>{1, 2, 3, 5, 6, 7}));
}

TEST(BlockTree, ResetToCanonical) {
  BlockTree t = BlockTree::canonical(2, 0);
  t.data = {0, 3, 6};
  t.children[0].data = {2, 5, 8};
  t.reset_to_canonical();
  EXPECT_EQ(t.data, (std::array<int, 3>{0, 1, 2}));
  EXPECT_EQ(t.children[0].data, (std::array<int, 3>{0, 1, 2}));
}

TEST(BlockTree, EncodeDecodeRoundTripLevels0To3) {
  for (int level = 0; level <= 3; ++level) {
    const auto tree = BlockTree::canonical(level, 0);
    std::vector<int> bits(static_cast<std::size_t>(tree.span()), -1);
    for (int logical = 0; logical <= 1; ++logical) {
      encode_block(tree, logical,
                   [&](std::uint32_t b, int v) { bits.at(b) = v; });
      // Every physical bit was written.
      for (std::size_t i = 0; i < bits.size(); ++i) ASSERT_NE(bits[i], -1);
      EXPECT_EQ(decode_block(tree, [&](std::uint32_t b) { return bits.at(b); }),
                logical)
          << "level " << level << " logical " << logical;
    }
  }
}

TEST(BlockTree, DecodeIsHierarchicalNotFlatMajority) {
  // Level 2, data children 0,1,2 each at level 1 with data {0,1,2}.
  // Corrupt data child 0 entirely (9 wrong leaf bits out of 27 data
  // leaves... but only 3 of 9 data leaves wrong): hierarchical decode
  // must still return the majority of the three level-1 values.
  const auto tree = BlockTree::canonical(2, 0);
  std::vector<int> bits(81, 0);
  // Encode logical 1.
  encode_block(tree, 1, [&](std::uint32_t b, int v) { bits.at(b) = v; });
  // Zero out the whole first level-1 data child (its 3 data leaves).
  const auto leaves = collect_data_leaves(tree.data_child(0));
  for (auto b : leaves) bits.at(b) = 0;
  EXPECT_EQ(decode_block(tree, [&](std::uint32_t b) { return bits.at(b); }), 1);
}

TEST(BlockTree, CollectDataLeavesCounts) {
  EXPECT_EQ(collect_data_leaves(BlockTree::canonical(0, 0)).size(), 1u);
  EXPECT_EQ(collect_data_leaves(BlockTree::canonical(1, 0)).size(), 3u);
  EXPECT_EQ(collect_data_leaves(BlockTree::canonical(2, 0)).size(), 9u);
  EXPECT_EQ(collect_data_leaves(BlockTree::canonical(3, 0)).size(), 27u);
}

TEST(BlockTree, CanonicalLeafPositions) {
  // Level 1 at base 0: data leaves are bits 0,1,2.
  EXPECT_EQ(collect_data_leaves(BlockTree::canonical(1, 0)),
            (std::vector<std::uint32_t>{0, 1, 2}));
  // Level 2: children 0,1,2 contribute their bits 0,1,2 at bases 0,9,18.
  EXPECT_EQ(collect_data_leaves(BlockTree::canonical(2, 0)),
            (std::vector<std::uint32_t>{0, 1, 2, 9, 10, 11, 18, 19, 20}));
}

// The workload kernel (ft/machine_kernel.h) decodes an exit as repeated
// majority over consecutive triples of collect_data_leaves(block); that
// must be decode_block(block) at every level, including the rotated
// blocks concat_compile returns. Judged against an all-zero truth
// table, the word judge marks exactly the lanes that decode to 1.
TEST(BlockTree, TripleMajorityOverDataLeavesIsDecodeBlock) {
  std::vector<BlockTree> blocks;
  for (const int level : {0, 1, 2})
    blocks.push_back(BlockTree::canonical(level, 0));
  Circuit logical(3);
  logical.toffoli(0, 1, 2).maj(2, 0, 1);
  bool rotated = false;
  for (const int level : {1, 2}) {
    const CompiledModule module = concat_compile(logical, level);
    for (const BlockTree& block : module.blocks) {
      rotated |= block.data != BlockTree::canonical(level, block.base).data;
      blocks.push_back(block);
    }
  }
  ASSERT_TRUE(rotated);
  Xoshiro256 rng(0xb10c);
  for (const BlockTree& block : blocks) {
    const std::vector<std::uint32_t> leaves = collect_data_leaves(block);
    const auto width = static_cast<std::uint32_t>(block.base + block.span());
    MachineWorkloadKernel kernel = make_workload_kernel(
        1, {leaves[0]}, static_cast<std::uint32_t>(leaves.size()), leaves,
        {0, 0});
    kernel.lane_inputs.assign(1, 0);
    for (int round = 0; round < 8; ++round) {
      PackedState state(width);
      for (std::uint32_t bit = 0; bit < width; ++bit)
        state.word(bit) = rng.next();
      LaneMask ones;
      kernel.classify_words(state, 0, ones);
      for (int lane = 0; lane < 64; ++lane) {
        const int want = decode_block(block, [&](std::uint32_t bit) {
          return static_cast<int>(state.bit_lane(bit, lane));
        });
        ASSERT_EQ(ones.test(static_cast<unsigned>(lane)), want != 0)
            << "level " << block.level << " base " << block.base;
      }
    }
  }
}

}  // namespace
}  // namespace revft
