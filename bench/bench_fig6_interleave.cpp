// bench_fig6_interleave — reproduces Figs 5 and 6 plus §3.2's
// interleaving arithmetic.
//
//   * Fig 5: SWAP3 = two SWAPs on three bits (decomposition verified);
//   * Fig 6: permuting the Fig 7 line order (q0,q3,q6,q1,q4,q7,...)
//     into decode order costs exactly 9 adjacent SWAPs, packable as
//     4 SWAP3 + 1 SWAP;
//   * §3.2 logical-op interleave: 8+7+6 SWAPs to merge b0 into b1 and
//     10+8+6 to merge b2, totalling 45; at most 24 touch one codeword
//     (= 12 SWAP3 in the paper's per-codeword packing); interleave
//     followed by its reverse is the identity.
#include <cstdio>

#include "bench_common.h"
#include "local/router.h"
#include "local/scheme1d.h"
#include "rev/render.h"
#include "rev/simulator.h"
#include "rev/synthesis.h"
#include "support/table.h"

using namespace revft;

namespace {

void print_reproduction() {
  benchutil::print_header("Figs 5-6 / §3.2: SWAP3 and 1D interleaving",
                          "Figures 5 and 6, Section 3.2");

  // Fig 5.
  Circuit swap3(3);
  swap3.swap3(0, 1, 2);
  const Circuit decomposed = swap3_decomposition(3, 0, 1, 2);
  std::printf("Fig 5 — SWAP3 as two SWAPs:\n%s", render_ascii(decomposed).c_str());
  std::printf("functionally equal to the SWAP3 primitive: %s\n\n",
              functionally_equal(swap3, decomposed) ? "yes" : "NO");

  // Fig 6.
  const std::vector<std::uint32_t> line_order{0, 3, 6, 1, 4, 7, 2, 5, 8};
  const std::vector<std::uint32_t> decode_order{0, 1, 2, 3, 4, 5, 6, 7, 8};
  const auto swaps = route_line(line_order, decode_order);
  const auto packed = pack_swap3(swaps);
  std::uint64_t n_swap3 = 0, n_swap = 0;
  Circuit network(9);
  for (const Gate& g : packed) {
    network.push(g);
    if (g.kind == GateKind::kSwap3)
      ++n_swap3;
    else
      ++n_swap;
  }
  std::printf("Fig 6 — the in-recovery permutation network:\n%s",
              render_ascii(network).c_str());
  AsciiTable fig6({"quantity", "[paper]", "[measured]"});
  fig6.add_row({"adjacent SWAPs", "9",
                AsciiTable::cell(static_cast<std::uint64_t>(swaps.size()))});
  fig6.add_row({"packed SWAP3", "4", AsciiTable::cell(n_swap3)});
  fig6.add_row({"residual SWAP", "1", AsciiTable::cell(n_swap)});
  fig6.add_row({"inversions (lower bound)", "9",
                AsciiTable::cell(count_inversions(line_order, decode_order))});
  std::printf("%s\n", fig6.str().c_str());

  // §3.2 interleave.
  const Interleave1d il = make_interleave_1d();
  AsciiTable inter({"quantity", "[paper]", "[measured]"});
  inter.add_row({"total SWAPs (8+7+6 + 10+8+6)", "45",
                 AsciiTable::cell(static_cast<std::uint64_t>(il.swaps.size()))});
  inter.add_row({"SWAPs touching codeword b0", "24",
                 AsciiTable::cell(il.swaps_touching[0])});
  inter.add_row({"SWAPs touching codeword b1", "6",
                 AsciiTable::cell(il.swaps_touching[1])});
  inter.add_row({"SWAPs touching codeword b2", "24",
                 AsciiTable::cell(il.swaps_touching[2])});
  inter.add_row({"max per codeword -> SWAP3 count", "12",
                 AsciiTable::cell(std::max(il.swaps_touching[0],
                                           il.swaps_touching[2]) /
                                  2)});
  std::printf("§3.2 logical-operation interleave on the 27-cell line:\n%s",
              inter.str().c_str());

  // Gathered triples and reversibility.
  bool adjacent = true;
  for (int j = 0; j < 3; ++j) {
    const auto ju = static_cast<std::size_t>(j);
    adjacent = adjacent && il.final_data[1][ju] == il.final_data[0][ju] + 1 &&
               il.final_data[2][ju] == il.final_data[1][ju] + 1;
  }
  std::printf("gathered triples adjacent (ready for transversal gates): %s\n",
              adjacent ? "yes" : "NO");

  Circuit forward(27);
  for (const auto& s : il.swaps) forward.swap(s.a, s.b);
  Circuit round_trip = forward;
  round_trip.append(forward.inverse());
  bool identity = true;
  for (std::uint64_t probe : {0x1234567ULL, 0x7abcdefULL, 0x5555555ULL}) {
    if (simulate(round_trip, probe & ((1ULL << 27) - 1)) !=
        (probe & ((1ULL << 27) - 1)))
      identity = false;
  }
  std::printf("interleave then uninterleave is the identity: %s\n",
              identity ? "yes" : "NO");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::reject_args(argc, argv);
  print_reproduction();
  return 0;
}
