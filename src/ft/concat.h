// revft/ft/concat.h
//
// The recursive concatenation compiler (paper §2.1, Fig 3).
//
// A gate at level L on logical bits is implemented as:
//   * the gate at level L-1 applied transversally to the three data
//     sub-blocks of each operand, then
//   * one error-recovery stage at level L (Fig 2, built from gates at
//     level L-1) on every logical bit the gate touched.
// The recursion bottoms out at physical gates (level 0).
//
// A logical initialization at any level is expanded to plain physical
// resets of the whole block span — a fresh all-zero block is a valid
// encoded zero at every level, so no recovery stage is needed after
// it. This makes the compiled gate count slightly SMALLER than the
// paper's accounting formula Γ_L = (3(G-2))^L, which charges every
// recovery operation (inits included) the full recursive cost
// Γ_{L-1}; the blow-up bench reports both numbers side by side.
//
// Physical layout: logical bit i of a width-W logical circuit owns the
// contiguous physical range [i·9^L, (i+1)·9^L). Where the data lives
// inside each block changes as recovery stages rotate it (footnote 3);
// the returned BlockTrees record the final positions so callers can
// decode outputs.
#pragma once

#include <cstdint>
#include <vector>

#include "code/block_tree.h"
#include "rev/circuit.h"

namespace revft {

struct ConcatOptions {
  /// Include the two 3-bit ancilla initializations in every recovery
  /// stage (E = 8). When false the recovery stages assume externally
  /// clean ancillas (E = 6) — only meaningful for single-shot modules
  /// and for reproducing the paper's G = 9 accounting.
  bool with_init = true;
};

/// Result of compiling a logical circuit to concatenation level L.
struct CompiledModule {
  Circuit physical;
  int level = 0;
  ConcatOptions options;
  /// Final per-logical-bit block trees (data positions after all
  /// recovery rotations). Index = logical bit.
  std::vector<BlockTree> blocks;
};

/// Compile `logical` (any circuit over the primitive gate set) into a
/// physical circuit at concatenation level `level` (level 0 returns
/// the input unchanged). Width multiplies by 9^level.
CompiledModule concat_compile(const Circuit& logical, int level,
                              const ConcatOptions& options = {});

/// The physical positions of the 3^level leaf data bits of a block —
/// the bits that (hierarchically) carry the logical value.
std::vector<std::uint32_t> collect_data_leaves(const BlockTree& block);

}  // namespace revft
