// examples/threshold_explorer.cpp
//
// Interactive Monte-Carlo sweep driver: measure the logical-error
// curve p_L(g) for any scheme and estimate its pseudo-threshold.
//
// Usage:
//   ./threshold_explorer [scheme] [level] [trials] [g1 g2 ...]
//     scheme : nonlocal | 2d | 1d        (default nonlocal)
//     level  : concatenation level, nonlocal only (default 1)
//     trials : Monte-Carlo trials per point (default 200000)
//     g...   : explicit g values (default: log sweep 1e-3 .. 2e-1)
//
// Examples:
//   ./threshold_explorer nonlocal 2 500000
//   ./threshold_explorer 1d
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "example_args.h"
#include "analysis/threshold.h"
#include "ft/experiments.h"
#include "local/scheme1d.h"
#include "local/scheme2d.h"
#include "support/table.h"

using namespace revft;

namespace {

std::vector<double> default_sweep() {
  std::vector<double> gs;
  for (double g = 1e-3; g <= 0.2; g *= 1.8) gs.push_back(g);
  return gs;
}

void report(const std::vector<SweepSample>& samples, int G) {
  // Fit over the whole sweep (the explorer's g range is caller-chosen;
  // a cutoff of 1.0 includes every physical g).
  const SweepSummary summary = summarize_threshold_sweep(samples, G, 1.0);
  if (summary.has_low_g_fit) {
    const auto& fit = summary.low_g_fit;
    std::printf("\nlog-log fit: p ~ %.2f * g^%.2f (R^2 = %.3f)\n",
                fit.coefficient, fit.slope, fit.r_squared);
  } else {
    std::printf("\ntoo few nonzero points for a log-log fit\n");
  }
  if (summary.pseudo_threshold > 0)
    std::printf("pseudo-threshold (p_L = g crossing): %.4f\n",
                summary.pseudo_threshold);
  else
    std::printf("no p_L = g crossing inside the sweep range\n");
  std::printf("paper analytic lower bound: %.5f (%s), exact-map bound %.5f\n",
              summary.paper_rho, AsciiTable::reciprocal(summary.paper_rho).c_str(),
              summary.exact_rho);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scheme = argc > 1 ? argv[1] : "nonlocal";
  const int level =
      static_cast<int>(u64_arg(argc, argv, 2, "level", 1, INT_MAX));
  const std::uint64_t trials = u64_arg(argc, argv, 3, "trials", 200000);
  std::vector<double> gs;
  for (int i = 4; i < argc; ++i) gs.push_back(std::strtod(argv[i], nullptr));
  if (gs.empty()) gs = default_sweep();

  std::printf("scheme=%s level=%d trials=%llu\n", scheme.c_str(), level,
              static_cast<unsigned long long>(trials));

  std::vector<SweepSample> samples;
  AsciiTable table({"g", "p_logical", "95% CI", "p/g"});
  auto add_point = [&](double g, const BernoulliEstimate& est) {
    const auto ci = est.wilson();
    samples.push_back({g, est.rate()});
    table.add_row({AsciiTable::sci(g, 2), AsciiTable::sci(est.rate(), 3),
                   AsciiTable::interval(ci.lo, ci.hi),
                   AsciiTable::fixed(est.rate() / g, 3)});
  };

  if (scheme == "nonlocal") {
    LogicalGateExperimentConfig config;
    config.level = level;
    config.trials = trials;
    const LogicalGateExperiment exp(config);
    for (double g : gs) add_point(g, exp.run(g));
    std::printf("%s", table.str().c_str());
    report(samples, PaperGateCounts::kNonLocalWithInit);
  } else if (scheme == "2d") {
    const Cycle2d cycle = make_cycle_2d(GateKind::kToffoli, true);
    CodewordCycleExperiment::Config config;
    config.trials = trials;
    const CodewordCycleExperiment exp(cycle.circuit, cycle.data_before,
                                      cycle.data_after, config);
    for (double g : gs) add_point(g, exp.run(g));
    std::printf("%s", table.str().c_str());
    report(samples, PaperGateCounts::kLocal2dWithInit);
  } else if (scheme == "1d") {
    const Cycle1d cycle = make_cycle_1d(GateKind::kToffoli, true);
    CodewordCycleExperiment::Config config;
    config.trials = trials;
    const CodewordCycleExperiment exp(cycle.circuit, cycle.data, cycle.data,
                                      config);
    for (double g : gs) add_point(g, exp.run(g));
    std::printf("%s", table.str().c_str());
    report(samples, PaperGateCounts::kLocal1dWithInit);
    std::printf("note: the 1D cycle has a linear-in-g error component from\n"
                "cross-codeword routing faults (see bench_fig7_local1d), so\n"
                "expect slope < 2 at small g.\n");
  } else {
    std::fprintf(stderr, "unknown scheme '%s' (want nonlocal|2d|1d)\n",
                 scheme.c_str());
    return 1;
  }
  return 0;
}
