// bench_ablations — design-choice ablations beyond the paper's tables
// (DESIGN.md calls these out):
//
//  A. logical memory vs recovery rounds — below threshold the
//     per-round logical error is constant, so failure probability
//     accumulates linearly in R: the composability §2.3 relies on;
//  B. SWAP3 packing in the 1D cycle — packed routing (the paper's
//     counting) vs raw SWAPs: packed has fewer fault locations but
//     each failure damages 3 bits; the exhaustive fatal-fault census
//     and MC error quantify the tradeoff;
//  C. reversible MAJ multiplexing vs the irreversible von Neumann NAND
//     multiplexing baseline the paper cites (§2): thresholds and
//     redundancy at matched reliability;
//  D. peephole optimization — removing fault locations from a routed
//     workload measurably lowers its logical error rate.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "analysis/threshold.h"
#include "baseline/nand_multiplexing.h"
#include "bench_common.h"
#include "code/repetition.h"
#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "local/scheme1d.h"
#include "noise/injection.h"
#include "noise/parallel_mc.h"
#include "rev/optimize.h"
#include "rev/simulator.h"
#include "rev/synthesis.h"
#include "support/table.h"

using namespace revft;

namespace {

void ablation_memory() {
  benchutil::print_header("Ablation A: logical memory vs recovery rounds",
                          "supports §2.3 composability");
  const std::uint64_t trials = benchutil::trials_from_env(400000);
  const double g = 5e-3;
  AsciiTable table({"rounds R", "P[fail] [measured]", "P/R", "linear?"});
  double first_ratio = -1.0;
  for (int rounds : {1, 2, 4, 8, 16, 32}) {
    MemoryExperiment::Config config;
    config.rounds = rounds;
    config.trials = trials;
    config.seed = benchutil::seed_from_env() + static_cast<std::uint64_t>(rounds);
    const MemoryExperiment exp(config);
    const double p = exp.run(g).rate();
    const double ratio = p / rounds;
    if (first_ratio < 0 && p > 0) first_ratio = ratio;
    const bool linear =
        first_ratio > 0 && ratio > 0.4 * first_ratio && ratio < 2.5 * first_ratio;
    table.add_row({AsciiTable::cell(static_cast<std::int64_t>(rounds)),
                   AsciiTable::sci(p, 2), AsciiTable::sci(ratio, 2),
                   linear ? "yes" : "~"});
  }
  std::printf("at g = %.0e (below threshold):\n%s", g, table.str().c_str());
  std::printf("constant per-round error -> modules compose, as §2.3 assumes.\n");
}

void ablation_swap_packing() {
  benchutil::print_header("Ablation B: SWAP3 packing in the 1D cycle",
                          "design choice behind §3.2's counting");
  AsciiTable table({"variant", "routing ops", "fatal single faults",
                    "linear coeff a", "p_L at g=1e-3 [meas]"});
  const std::uint64_t trials = benchutil::trials_from_env(1000000);
  for (bool packed : {true, false}) {
    const Cycle1d cycle = make_cycle_1d(GateKind::kToffoli, true, packed);
    // Fatal census (exhaustive over inputs x faults).
    std::size_t fatal = 0;
    double linear = 0.0;
    for (unsigned input = 0; input < 8; ++input) {
      const unsigned expected = gate_apply_local(GateKind::kToffoli, input);
      StateVector prepared(27);
      for (std::uint32_t b = 0; b < 3; ++b)
        for (auto bit : cycle.data[b])
          prepared.set_bit(bit, static_cast<std::uint8_t>((input >> b) & 1u));
      for (const auto& fault : enumerate_single_faults(cycle.circuit)) {
        const StateVector out =
            apply_with_faults(cycle.circuit, prepared, {fault});
        for (std::uint32_t b = 0; b < 3; ++b) {
          const int decoded = majority3(out.bit(cycle.data[b][0]),
                                        out.bit(cycle.data[b][1]),
                                        out.bit(cycle.data[b][2]));
          if (decoded != static_cast<int>((expected >> b) & 1u)) {
            ++fatal;
            linear += 1.0 / (8.0 * static_cast<double>(
                                       1u << cycle.circuit.op(fault.op_index)
                                                .arity()));
            break;
          }
        }
      }
    }
    const auto h = cycle.circuit.histogram();
    CodewordCycleExperiment::Config config;
    config.trials = trials;
    config.seed = benchutil::seed_from_env() + (packed ? 1 : 2);
    const CodewordCycleExperiment exp(cycle.circuit, cycle.data, cycle.data,
                                      config);
    table.add_row(
        {packed ? "SWAP3-packed (paper)" : "raw SWAPs",
         AsciiTable::cell(h.of(GateKind::kSwap3)) + " swap3 + " +
             AsciiTable::cell(h.of(GateKind::kSwap)) + " swap",
         AsciiTable::cell(static_cast<std::uint64_t>(fatal)),
         AsciiTable::fixed(linear, 3), AsciiTable::sci(exp.run(1e-3).rate(), 2)});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "both variants carry a linear term — the cross-codeword data swap is\n"
      "the root cause, not the packing; packing trades fault locations\n"
      "against damage radius almost evenly.\n");
}

void ablation_baseline() {
  benchutil::print_header(
      "Ablation C: reversible MAJ multiplexing vs von Neumann NAND "
      "multiplexing",
      "the §2 baseline comparison");
  std::printf(
      "thresholds:\n"
      "  NAND multiplexing (irreversible, flip noise): eps* = %.4f "
      "[classical (3-sqrt(7))/4 = 0.0886; the paper says \"about 11%%\"]\n"
      "  MAJ multiplexing (reversible, randomize noise): rho = 1/108 .. 1/165 "
      "analytic lower bound, ~0.09-0.13 measured pseudo-threshold\n\n",
      critical_epsilon());

  const std::uint64_t trials = benchutil::trials_from_env(200000);
  std::printf("matched-workload comparison (12 logical NAND/Toffoli steps):\n");
  AsciiTable table({"error rate", "NAND mux N=99 [meas]", "NAND mux N=999 [meas]",
                    "MAJ mux 12 EC rounds (9 bits) [meas]",
                    "MAJ mux level-2 gate (243 bits) [meas]"});
  for (double e : {5e-3, 2e-2, 5e-2}) {
    NandMultiplexConfig small;
    small.bundle_size = 99;
    NandMultiplexConfig big;
    big.bundle_size = 999;
    const auto nand_small = run_nand_chain(small, 12, e, trials, 0xc0);
    const auto nand_big = run_nand_chain(big, 12, e, trials, 0xc1);

    MemoryExperiment::Config mem1;
    mem1.rounds = 12;
    mem1.trials = trials;
    const double maj1 = MemoryExperiment(mem1).run(e).rate();
    LogicalGateExperimentConfig lvl2;
    lvl2.level = 2;
    lvl2.trials = trials;
    const double maj2 = LogicalGateExperiment(lvl2).run(e).rate();

    table.add_row({AsciiTable::sci(e, 0),
                   AsciiTable::sci(nand_small.logical_error.rate(), 2),
                   AsciiTable::sci(nand_big.logical_error.rate(), 2),
                   AsciiTable::sci(maj1, 2), AsciiTable::sci(maj2, 2)});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "reading: NAND multiplexing buys reliability with wire redundancy\n"
      "(N ~ 100-1000 per signal, statistical restoration); MAJ multiplexing\n"
      "buys it with concatenation depth (9^L bits, digital correction) and\n"
      "stays reversible — the paper's point is that the reversible\n"
      "construction achieves gate-level fault tolerance at comparable\n"
      "thresholds while permitting near-zero dissipation (§4).\n");
}

void ablation_optimizer() {
  benchutil::print_header("Ablation D: peephole optimization removes fault "
                          "locations",
                          "every removed op removes a failure probability g");
  // Workload: an adder round-trip with gratuitous routing, the kind of
  // redundancy a naive compiler emits: route bits away and back.
  const RippleAdder adder = cuccaro_adder(3);
  Circuit workload(adder.circuit.width());
  for (std::uint32_t b = 0; b + 1 < workload.width(); ++b)
    workload.swap(b, b + 1);
  for (std::uint32_t b = workload.width() - 1; b > 0; --b)
    workload.swap(b - 1, b);
  workload.append(adder.circuit);
  OptimizeStats stats;
  const Circuit optimized = optimize(workload, &stats);
  std::printf("workload: Cuccaro 3-bit adder + naive shuttle routing\n");
  std::printf("  ops before: %zu   ops after: %zu   (%zu pairs cancelled, %zu "
              "swaps fused)\n",
              stats.ops_before, stats.ops_after, stats.cancelled_pairs,
              stats.fused_swaps);
  std::printf("  semantics preserved: %s\n",
              functionally_equal(workload, optimized) ? "yes" : "NO");

  // Fault locations translate to error rate: compare visible-failure
  // probability of the two under the same noise.
  const std::uint64_t trials = benchutil::trials_from_env(400000);
  const double g = 2e-3;
  auto visible_error = [&](const Circuit& c) {
    const MachineWorkloadKernel kernel = make_circuit_kernel(c);
    ParallelMcOptions opts;
    opts.trials = trials;
    opts.seed = benchutil::seed_from_env();
    return run_parallel_mc(c, NoiseModel::uniform(g), opts,
                           [&](std::uint64_t) { return kernel; })
        .rate();
  };
  const double before = visible_error(workload);
  const double after = visible_error(optimized);
  std::printf("  P[any output bit wrong] at g=%.0e: before %.4f, after %.4f "
              "(-%.0f%%)\n",
              g, before, after, 100.0 * (1.0 - after / before));
}

void BM_OptimizeAdderWorkload(benchmark::State& state) {
  const RippleAdder adder = cuccaro_adder(8);
  Circuit doubled = adder.circuit;
  doubled.append(adder.circuit.inverse());
  for (auto _ : state) benchmark::DoNotOptimize(optimize(doubled));
}
BENCHMARK(BM_OptimizeAdderWorkload);

void BM_NandMuxUnit(benchmark::State& state) {
  NandMultiplexConfig config;
  config.bundle_size = 999;
  const NandMultiplexer mux(config);
  Xoshiro256 rng(9);
  PackedBundle x = mux.constant_bundle(true);
  const PackedBundle ones = mux.constant_bundle(true);
  for (auto _ : state) {
    x = mux.nand(x, ones, 0.02, rng);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_NandMuxUnit);

}  // namespace

int main(int argc, char** argv) {
  ablation_memory();
  ablation_swap_packing();
  ablation_baseline();
  ablation_optimizer();
  std::printf("\n-- kernel timings --\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
