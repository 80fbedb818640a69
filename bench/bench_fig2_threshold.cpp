// bench_fig2_threshold — reproduces §2.2 (Fig 2 + the threshold
// calculation).
//
// Sweeps the physical gate error g and measures the logical error rate
// of one level-1 encoded Toffoli (3 transversal gates + one Fig 2
// recovery per codeword) for both accounting regimes:
//   G = 11 (noisy init)    paper threshold  ρ = 1/165
//   G =  9 (perfect init)  paper threshold  ρ = 1/108
// Reports: the measured curve with Wilson intervals, the fitted
// low-g scaling p ≈ c g^slope (slope ~2 below threshold), the implied
// and interpolated pseudo-thresholds, and the paper's analytic lower
// bounds. The paper's ρ are explicit LOWER bounds ("the circuits here
// provide an existence proof"), so the measured pseudo-threshold must
// land above them — that is the reproduced claim, together with the
// quadratic shape.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "analysis/threshold.h"
#include "bench_common.h"
#include "detect/checker.h"
#include "ft/experiments.h"
#include "noise/parallel_mc.h"
#include "support/table.h"

using namespace revft;

namespace {

void run_regime(bool noisy_init, std::uint64_t trials, std::uint64_t seed,
                benchutil::JsonResultWriter& json) {
  const int G = noisy_init ? PaperGateCounts::kNonLocalWithInit
                           : PaperGateCounts::kNonLocalPerfectInit;
  const double rho = threshold_for_ops(G);
  const char* regime = noisy_init ? "noisy_init" : "perfect_init";
  std::printf("\n-- regime: %s (G = %d, paper threshold rho = %s = %.5f) --\n",
              noisy_init ? "noisy init" : "perfect init", G,
              AsciiTable::reciprocal(rho).c_str(), rho);

  // Each regime runs with its own seed offset; record it so the JSON
  // alone suffices to reproduce either regime.
  json.add(regime, "seed", seed);

  LogicalGateExperimentConfig config;
  config.level = 1;
  config.noisy_init = noisy_init;
  config.trials = trials;
  config.seed = seed;
  const LogicalGateExperiment exp(config);

  const std::vector<double> gs{1e-3, 2e-3, 4e-3, 8e-3, 1.6e-2,
                               3.2e-2, 6.4e-2, 1e-1, 1.5e-1, 2e-1};
  AsciiTable table({"g", "p_logical [measured]", "95% CI", "+/-hw", "p/g",
                    "paper bound 3C(G,2)g^2"});
  std::vector<SweepSample> samples;
  for (const auto& point : sweep_gate_error(exp, gs)) {
    const double p = point.logical_error.rate();
    const auto ci = point.logical_error.wilson_interval();
    samples.push_back({point.g, p});
    table.add_row({AsciiTable::sci(point.g, 1), AsciiTable::sci(p, 3),
                   AsciiTable::interval(ci.lo, ci.hi),
                   AsciiTable::sci(point.logical_error.half_width(), 1),
                   AsciiTable::fixed(p / point.g, 3),
                   AsciiTable::sci(logical_error_one_level(point.g, G), 2)});
  }
  std::printf("%s", table.str().c_str());

  const SweepSummary summary = summarize_threshold_sweep(samples, G);
  if (summary.has_low_g_fit) {
    const auto& fit = summary.low_g_fit;
    std::printf(
        "low-g fit: p ~= %.2f * g^%.2f  (R^2 = %.4f)\n"
        "  [paper]    slope 2, coefficient <= 3 C(%d,2) = %.0f (upper bound)\n"
        "  [measured] coefficient %.1f  ->  bound holds: %s\n",
        fit.coefficient, fit.slope, fit.r_squared, G,
        3.0 * static_cast<double>(G * (G - 1)) / 2.0, fit.coefficient,
        fit.coefficient <= 3.0 * G * (G - 1) / 2.0 ? "yes" : "NO");
    json.add(regime, "fit_coefficient", fit.coefficient);
    json.add(regime, "fit_slope", fit.slope);
    json.add(regime, "fit_r_squared", fit.r_squared);
  }
  std::printf(
      "pseudo-threshold (crossing p_L = g): [measured] %.4f vs [paper lower "
      "bound] %.5f  ->  measured >= paper: %s\n",
      summary.pseudo_threshold, rho, summary.above_paper_bound ? "yes" : "NO");
  std::printf(
      "exact-binomial-tail refinement (\"a tighter bound will result in an\n"
      "improved error threshold\", §2.2): rho_exact = %.5f (paper's union/\n"
      "quadratic bound gives %.5f)\n",
      summary.exact_rho, rho);
  json.add(regime, "pseudo_threshold", summary.pseudo_threshold);
  json.add(regime, "paper_rho", summary.paper_rho);
  json.add(regime, "exact_rho", summary.exact_rho);
  json.add(regime, "above_paper_bound", summary.above_paper_bound ? 1.0 : 0.0);
}

// Exhaustive pair-fault census: the EXACT quadratic coefficient of the
// level-1 encoded Toffoli, against the paper's all-pairs-fatal bound.
void print_pair_census() {
  const Circuit logical = [] {
    Circuit c(3);
    c.toffoli(0, 1, 2);
    return c;
  }();
  const auto module = concat_compile(logical, 1);
  std::vector<StateVector> inputs;
  for (unsigned input = 0; input < 8; ++input) {
    StateVector sv(module.physical.width());
    for (std::uint32_t k = 0; k < 3; ++k) {
      const auto tree = BlockTree::canonical(1, k * 9);
      encode_block(tree, static_cast<int>((input >> k) & 1u),
                   [&](std::uint32_t b, int v) {
                     sv.set_bit(b, static_cast<std::uint8_t>(v));
                   });
    }
    inputs.push_back(std::move(sv));
  }
  auto is_error = [&](const StateVector& out, std::size_t input) {
    const unsigned expected =
        gate_apply_local(GateKind::kToffoli, static_cast<unsigned>(input));
    for (std::uint32_t k = 0; k < 3; ++k) {
      const int decoded = decode_block(module.blocks[k], [&](std::uint32_t b) {
        return static_cast<int>(out.bit(b));
      });
      if (decoded != static_cast<int>((expected >> k) & 1u)) return true;
    }
    return false;
  };
  const auto census = detect::pair_fault_census(module.physical, inputs, is_error);
  std::printf(
      "\nexhaustive pair-fault census of the level-1 module (27 ops):\n"
      "  op pairs: %llu, scenarios: %llu, fatal: %llu\n"
      "  exact quadratic coefficient c2 = %.2f\n"
      "  [paper] treats every pair as fatal per encoded bit: 3 C(11,2) = 165\n"
      "  -> the construction is ~%.0fx better than the worst-case counting,\n"
      "     matching the Monte-Carlo low-g fit below.\n",
      static_cast<unsigned long long>(census.pairs_total),
      static_cast<unsigned long long>(census.scenarios_total),
      static_cast<unsigned long long>(census.scenarios_fatal),
      census.quadratic_coefficient, 165.0 / census.quadratic_coefficient);
}

void print_reproduction() {
  benchutil::print_header(
      "Fig 2 + §2.2: error recovery and the non-local threshold",
      "Figure 2, Section 2.2");
  const std::uint64_t trials = benchutil::trials_from_env(1000000);
  std::printf("trials per point: %llu (set REVFT_TRIALS to change)\n",
              static_cast<unsigned long long>(trials));
  benchutil::JsonResultWriter json("fig2_threshold");
  benchutil::stamp_run_meta(json, trials, benchutil::seed_from_env());
  json.meta("threads",
            static_cast<std::uint64_t>(resolve_thread_count(0)));
  print_pair_census();
  run_regime(true, trials, benchutil::seed_from_env(), json);
  run_regime(false, trials, benchutil::seed_from_env() + 1, json);
  json.write();
}

void BM_Level1CycleMc(benchmark::State& state) {
  LogicalGateExperimentConfig config;
  config.level = 1;
  config.trials = 64 * 100;
  const LogicalGateExperiment exp(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exp.run(1e-2));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(config.trials));
}
BENCHMARK(BM_Level1CycleMc);

}  // namespace

int main(int argc, char** argv) {
  print_reproduction();
  std::printf("\n-- kernel timings --\n");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
