// bench_fig3_concatenation — reproduces Fig 3 / Eq. 2 (§2.1–2.2).
//
// Measures the logical error rate g_L of one concatenated Toffoli at
// levels L = 0, 1, 2 (and 3 at reduced trials) across a g sweep, and
// compares the SHAPE with Eq. 2's closed form g_L <= ρ (g/ρ)^{2^L}:
// doubly-exponential suppression below threshold, degradation above.
// Absolute paper bounds use ρ = 1/165 (G = 11); the measured curves
// sit below them because the paper's counting is a worst-case bound.
#include <cstdio>
#include <vector>

#include "analysis/threshold.h"
#include "bench_common.h"
#include "ft/experiments.h"
#include "support/table.h"

using namespace revft;

namespace {

void print_reproduction() {
  benchutil::print_header("Fig 3 / Eq. 2: concatenation suppresses errors",
                          "Figure 3, Equation 2");
  const std::uint64_t trials = benchutil::trials_from_env(1000000);
  const std::uint64_t level3_trials = std::max<std::uint64_t>(trials / 16, 64000);
  std::printf("trials: %llu per point (levels 0-2), %llu (level 3)\n",
              static_cast<unsigned long long>(trials),
              static_cast<unsigned long long>(level3_trials));

  const int G = PaperGateCounts::kNonLocalWithInit;
  const double rho = threshold_for_ops(G);

  benchutil::JsonResultWriter json("fig3_concatenation");
  benchutil::stamp_run_meta(json, trials, benchutil::seed_from_env());

  std::vector<LogicalGateExperiment> exps;
  for (int level = 0; level <= 3; ++level) {
    LogicalGateExperimentConfig config;
    config.level = level;
    config.trials = level == 3 ? level3_trials : trials;
    config.seed = benchutil::seed_from_env() + static_cast<std::uint64_t>(level);
    exps.emplace_back(config);
  }

  const std::vector<double> gs{5e-3, 1e-2, 2e-2, 4e-2, 8e-2, 1.5e-1, 2.5e-1};
  AsciiTable table({"g", "L=0 [meas]", "L=1 [meas]", "L=2 [meas]", "L=3 [meas]",
                    "Eq.2 L=1 (rho=1/165)", "Eq.2 L=2", "suppressing?"});
  for (double g : gs) {
    std::vector<double> rates;
    for (const auto& exp : exps) rates.push_back(exp.run(g).rate());
    for (std::size_t level = 0; level < rates.size(); ++level) {
      std::string section = "level_";
      section += std::to_string(level);
      json.add(section, AsciiTable::sci(g, 1), rates[level]);
    }
    const bool suppressing = rates[1] < rates[0] && rates[2] <= rates[1];
    table.add_row({AsciiTable::sci(g, 1), AsciiTable::sci(rates[0], 2),
                   AsciiTable::sci(rates[1], 2), AsciiTable::sci(rates[2], 2),
                   AsciiTable::sci(rates[3], 2),
                   AsciiTable::sci(level_error_bound(g, rho, 1), 2),
                   AsciiTable::sci(level_error_bound(g, rho, 2), 2),
                   suppressing ? "yes" : "no (above pseudo-threshold)"});
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "\nshape check: below the pseudo-threshold each level multiplies the\n"
      "suppression factor onto itself (Eq. 2: the exponent doubles per level);\n"
      "above it, encoding makes things worse — both regimes visible above.\n");

  // Worked recursion comparison at a fixed sub-threshold g.
  const double g = 2e-2;
  AsciiTable rec({"level", "measured g_L", "Eq.2 bound (paper rho)",
                  "measured within bound?"});
  for (int level = 0; level <= 3; ++level) {
    const double measured = exps[static_cast<std::size_t>(level)].run(g).rate();
    const double bound = level_error_bound(g, rho, level);
    rec.add_row({AsciiTable::cell(static_cast<std::int64_t>(level)),
                 AsciiTable::sci(measured, 2), AsciiTable::sci(bound, 2),
                 measured <= bound ? "yes" : "NO"});
  }
  std::printf("\nat g = %.0e (below threshold):\n%s", g, rec.str().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::reject_args(argc, argv);
  print_reproduction();
  return 0;
}
