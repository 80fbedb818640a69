// revft/local/router.h
//
// Adjacent-transposition routing on a line: turn "this arrangement of
// items must become that arrangement" into an explicit SWAP schedule.
// Bubble sort emits exactly inversion-count swaps, which is optimal
// for adjacent transpositions — this is how the paper's Fig 6 network
// (9 SWAPs) and §3.2 interleave (45 SWAPs) arise mechanically.
//
// pack_swap3 then greedily fuses consecutive overlapping SWAPs into
// SWAP3 gates (Fig 5), reproducing the paper's "4 SWAP3 + 1 SWAP"
// count for the 9-swap network.
#pragma once

#include <cstdint>
#include <vector>

#include "rev/circuit.h"

namespace revft {

/// One adjacent transposition of line positions (|a - b| == 1).
struct SwapOp {
  std::uint32_t a;
  std::uint32_t b;

  bool operator==(const SwapOp&) const = default;
};

/// Number of inversions between `current` and `target` (both
/// permutations of the same item ids). This is the minimum number of
/// adjacent swaps required.
std::uint64_t count_inversions(const std::vector<std::uint32_t>& current,
                               const std::vector<std::uint32_t>& target);

/// A bubble-sort schedule of adjacent swaps (in execution order)
/// taking arrangement `current` to arrangement `target`. Both vectors
/// list item ids by position. The schedule length equals
/// count_inversions(current, target).
std::vector<SwapOp> route_line(std::vector<std::uint32_t> current,
                               const std::vector<std::uint32_t>& target);

/// Greedily fuse consecutive swap pairs sharing a position into SWAP3
/// gates: swap(x,y);swap(y,z) == swap3(x,y,z). Unfusable swaps remain
/// 2-bit SWAP gates. The result preserves execution order and
/// function.
std::vector<Gate> pack_swap3(const std::vector<SwapOp>& swaps);

/// Apply a swap schedule to an arrangement (for tests/verification).
void apply_swaps(std::vector<std::uint32_t>& arrangement,
                 const std::vector<SwapOp>& swaps);

/// Target arrangement for gathering three items (p, q, r) into
/// consecutive positions in that order, with every other item keeping
/// its relative order — how the block machines "move them close
/// together" (§3). The insert position minimizes the number of SERIAL
/// routing steps: a transposition schedule wave-packs into disjoint
/// territory waves (local/schedule.h), and anchoring the triple where
/// q sits would drag the far operand across the line alone — a chain
/// of singleton waves that any replay plan must glue into one
/// component. Every insert position is scored by (singleton waves,
/// total swaps, distance from q's position), so the displacement
/// splits across the operands and they march concurrently.
std::vector<std::uint32_t> gather_triple_target(
    const std::vector<std::uint32_t>& current, std::uint32_t p,
    std::uint32_t q, std::uint32_t r);

}  // namespace revft
