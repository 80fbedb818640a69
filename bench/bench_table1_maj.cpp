// bench_table1_maj — reproduces Table 1 and Fig 1.
//
// Prints the MAJ truth table computed by the gate-level simulator next
// to the published rows, verifies the Fig 1 decomposition (2 CNOT +
// 1 Toffoli) is functionally identical, then times the simulation
// kernels (scalar and 64-lane packed) on MAJ-heavy workloads.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "noise/packed_sim.h"
#include "rev/render.h"
#include "rev/simulator.h"
#include "rev/synthesis.h"
#include "support/table.h"

using namespace revft;

namespace {

std::string bits3(unsigned v) {
  // Table 1 prints q0q1q2 left to right; our integers hold q0 in bit 0.
  std::string s(3, '0');
  s[0] = static_cast<char>('0' + (v & 1u));
  s[1] = static_cast<char>('0' + ((v >> 1) & 1u));
  s[2] = static_cast<char>('0' + ((v >> 2) & 1u));
  return s;
}

void print_reproduction() {
  benchutil::print_header("Table 1 + Fig 1: the reversible MAJ gate",
                          "Table 1, Figure 1");
  // Published rows, q0q1q2 order.
  const char* paper_rows[8][2] = {{"000", "000"}, {"001", "001"}, {"010", "010"},
                                  {"011", "111"}, {"100", "011"}, {"101", "110"},
                                  {"110", "101"}, {"111", "100"}};
  Circuit maj(3);
  maj.maj(0, 1, 2);

  benchutil::JsonResultWriter json("table1_maj");
  bool all_match = true;
  AsciiTable table({"input", "output [paper]", "output [measured]", "match"});
  for (const auto& row : paper_rows) {
    // Convert the string input to our bit order, simulate, convert back.
    const std::string in = row[0];
    unsigned v = 0;
    for (int i = 0; i < 3; ++i)
      v |= static_cast<unsigned>(in[static_cast<std::size_t>(i)] - '0') << i;
    const auto out = static_cast<unsigned>(simulate(maj, v));
    const std::string measured = bits3(out);
    const bool match = measured == row[1];
    all_match = all_match && match;
    table.add_row({in, row[1], measured, match ? "yes" : "NO"});
  }
  std::printf("%s", table.str().c_str());
  json.add("truth_table", "all_rows_match_paper", all_match ? 1.0 : 0.0);

  const Circuit fig1 = maj_decomposition(3, 0, 1, 2);
  std::printf("\nFig 1 decomposition (CNOT, CNOT, Toffoli):\n%s",
              render_ascii(fig1).c_str());
  std::printf("functionally equal to MAJ primitive: %s\n",
              functionally_equal(maj, fig1) ? "yes" : "NO");
  std::printf("first output bit is the majority on all 8 inputs: %s\n",
              [&] {
                for (unsigned v = 0; v < 8; ++v) {
                  const int ones = static_cast<int>((v & 1u) + ((v >> 1) & 1u) +
                                                    ((v >> 2) & 1u));
                  if ((simulate(maj, v) & 1u) !=
                      static_cast<unsigned>(ones >= 2 ? 1 : 0))
                    return "NO";
                }
                return "yes";
              }());
}

// --- kernels ---------------------------------------------------------

void BM_ScalarMajApply(benchmark::State& state) {
  Circuit c(9);
  for (int rep = 0; rep < 100; ++rep) {
    c.maj(0, 1, 2).maj(3, 4, 5).maj(6, 7, 8);
    c.majinv(0, 1, 2).majinv(3, 4, 5).majinv(6, 7, 8);
  }
  StateVector sv(9, 0b101101101u);
  for (auto _ : state) {
    sv.apply(c);
    benchmark::DoNotOptimize(sv);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.size()));
}
BENCHMARK(BM_ScalarMajApply);

void BM_PackedMajApply(benchmark::State& state) {
  Circuit c(9);
  for (int rep = 0; rep < 100; ++rep) {
    c.maj(0, 1, 2).maj(3, 4, 5).maj(6, 7, 8);
    c.majinv(0, 1, 2).majinv(3, 4, 5).majinv(6, 7, 8);
  }
  PackedState ps(9);
  for (std::uint32_t b = 0; b < 9; ++b) ps.word(b) = 0x123456789abcdefULL * (b + 1);
  for (auto _ : state) {
    PackedSimulator::apply_ideal(ps, c);
    benchmark::DoNotOptimize(ps);
  }
  // 64 lanes per pass.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.size()) * 64);
}
BENCHMARK(BM_PackedMajApply);

void BM_PackedNoisyMajApply(benchmark::State& state) {
  Circuit c(9);
  for (int rep = 0; rep < 100; ++rep) {
    c.maj(0, 1, 2).maj(3, 4, 5).maj(6, 7, 8);
    c.majinv(0, 1, 2).majinv(3, 4, 5).majinv(6, 7, 8);
  }
  PackedSimulator sim(NoiseModel::uniform(1e-3), benchutil::seed_from_env());
  PackedState ps(9);
  for (auto _ : state) {
    sim.apply_noisy_span(ps, c, 0, c.size());
    benchmark::DoNotOptimize(ps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(c.size()) * 64);
}
BENCHMARK(BM_PackedNoisyMajApply);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  std::printf("\n-- kernel timings --\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
