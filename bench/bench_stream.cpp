// bench_stream — what the streaming observation layer buys.
//
// The non-streaming engines spend a FIXED trial budget, sized a priori
// for the hardest point of a sweep; the streaming layer (PR 10,
// telemetry/stream.h) watches the merged estimate converge and stops
// at the first round boundary where the target interval width is met.
// This bench prices that:
//
//   1. the headline savings table: the level-1 Toffoli g-sweep run to
//      EQUAL target interval width (relative Wilson half-width 0.25)
//      both ways — fixed budget vs adaptive stop — with trials saved
//      per point and the acceptance bar "some sweep point saves >= 30%
//      of its budget" (early_stop_savings_within_0_7x) checked in-line;
//   2. sequential certification: the checked and recovering machines
//      at sub-threshold g, stopping as soon as the Wilson upper bound
//      on the silent/delivered error rate falls under the target —
//      the BoykinR05 §4 use case (certify p < bound, don't pinpoint);
//   3. determinism: the STOPPED estimate and the whole trajectory
//      bit-identical across worker counts {1, 3, 8}.
//
// The cost of observation (round times, pool efficiency) is perfbench's
// telemetry.* metrics.
//
// Emits BENCH_stream.json, one CONV_*.json per streamed point (the
// winning savings point carries the embedded bar), and a Chrome-trace
// counter series TRACE_stream_conv.json for the headline point.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "ft/experiments.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "noise/lanes.h"
#include "support/provenance.h"
#include "support/table.h"
#include "telemetry/stream.h"

using namespace revft;

namespace {

std::string g_label(double g) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", g);
  return buf;
}

void write_artifacts(const telemetry::ConvergenceTrajectory& traj,
                     const json::Value* bars, bool chrome) {
  // `bars` (an object of *_within_* keys) rides in the CONV document so
  // telemetry_check --enforce-bars can gate on it.
  json::Value doc = traj.to_json();
  if (bars != nullptr) doc.set("bars", *bars);
  if (provenance::write_artifact("CONV", traj.name, doc).empty() || !chrome)
    return;
  provenance::write_artifact(
      "TRACE", traj.name + "_conv",
      telemetry::convergence_chrome_json(traj, traj.name));
}

// --- 1. trials saved at equal target interval width -------------------

bool print_savings(benchutil::JsonResultWriter& json, std::uint64_t trials,
                   std::uint64_t seed) {
  benchutil::print_header(
      "Early-stop savings at equal target interval width (rel hw 0.25)",
      "telemetry/stream.h — adaptive stop vs a-priori fixed budget");

  // The relative target every run (fixed or adaptive) must meet: know
  // p_L to within 25% at 95% confidence. The fixed-budget run is the
  // legacy engine (= a no-stop streaming run, bit for bit); the
  // adaptive run stops at the first merged round boundary where the
  // target holds, with a burn-in and a failure floor so a lucky
  // failure-free prefix cannot end the run on noise.
  constexpr double kRelTarget = 0.25;

  LogicalGateExperimentConfig config;
  config.level = 1;
  config.trials = trials;
  config.seed = seed;
  const LogicalGateExperiment exp(config);

  AsciiTable table({"g", "p_L (stopped)", "+/-hw", "trials used", "budget",
                    "saved", "baseline met target", "stop"});
  double best_share = 1.0;
  double best_g = 0.0;
  bool best_baseline_ok = false;
  for (const double g : {2e-2, 4e-2, 8e-2}) {
    telemetry::StreamOptions stream;
    stream.name = "plain_g" + g_label(g);
    stream.mc.batches_per_shard = 64;
    stream.stop.target_rel_half_width = kRelTarget;
    stream.stop.min_trials = 512;
    stream.stop.min_failures = 20;
    const auto run = exp.run_streaming(g, stream);

    // The fixed-budget baseline: the full-span engine on the identical
    // determinism key. "Equal target width" is only a fair frame if
    // this budget actually reaches the target, so check it.
    const BernoulliEstimate fixed = exp.run(g);
    const bool baseline_ok =
        fixed.half_width() <= kRelTarget * fixed.rate();

    const double share = static_cast<double>(run.trajectory.trials_consumed()) /
                         static_cast<double>(trials);
    table.add_row(
        {AsciiTable::sci(g, 1), AsciiTable::sci(run.estimate.rate(), 3),
         AsciiTable::sci(run.estimate.half_width(), 1),
         AsciiTable::cell(run.trajectory.trials_consumed()),
         AsciiTable::cell(trials),
         AsciiTable::fixed(100.0 * (1.0 - share), 1) + "%",
         baseline_ok ? "yes" : "NO",
         telemetry::stop_reason_name(run.stop_reason())});

    const std::string section = "savings_g_" + g_label(g);
    json.add(section, "trials_consumed", run.trajectory.trials_consumed());
    json.add(section, "trials_budget", trials);
    json.add(section, "budget_share", share);
    json.add(section, "p_logical", run.estimate.rate());
    json.add(section, "half_width", run.estimate.half_width());
    json.add(section, "rounds", run.trajectory.rounds());
    json.add(section, "baseline_met_target", baseline_ok ? 1.0 : 0.0);
    json.add(section, "stop_reason",
             std::string(telemetry::stop_reason_name(run.stop_reason())));

    if (share < best_share) {
      best_share = share;
      best_g = g;
      best_baseline_ok = baseline_ok;
    }
    // The winning point's CONV file carries the embedded bar (below);
    // re-written once the winner is known, so write the others now.
    write_artifacts(run.trajectory, nullptr, /*chrome=*/false);
  }
  std::printf("%s", table.str().c_str());

  // The acceptance bar: at least one sweep point consumes <= 0.7x its
  // budget (>= 30% of the trials saved) while the fixed budget ALSO
  // met the target there — otherwise the comparison is not at equal
  // achieved width and the saving would be an artifact of an
  // undersized baseline.
  const bool bar = best_share <= 0.7 && best_baseline_ok;
  std::printf(
      "best point: g = %g at %.1f%% of budget — savings >= 30%% on some "
      "point: %s\n",
      best_g, 100.0 * best_share, bar ? "PASS" : "FAIL");
  json.add("savings_bar", "early_stop_savings_within_0_7x", bar ? 1.0 : 0.0);
  json.add("savings_bar", "best_g", best_g);
  json.add("savings_bar", "best_budget_share", best_share);

  // Re-run the winning point to embed the bar in ITS artifact and emit
  // the Chrome counter series — same determinism key, so this is the
  // identical trajectory, not a second experiment.
  telemetry::StreamOptions stream;
  stream.name = "plain_g" + g_label(best_g);
  stream.mc.batches_per_shard = 64;
  stream.stop.target_rel_half_width = kRelTarget;
  stream.stop.min_trials = 512;
  stream.stop.min_failures = 20;
  const auto winner = exp.run_streaming(best_g, stream);
  json::Value bars = json::Value::object();
  bars.set("early_stop_savings_within_0_7x",
           static_cast<std::uint64_t>(bar ? 1 : 0));
  write_artifacts(winner.trajectory, &bars, /*chrome=*/true);
  return bar;
}

// --- 2. sequential certification (checked + recovering) ---------------

void print_certification(benchutil::JsonResultWriter& json,
                         std::uint64_t trials, std::uint64_t seed) {
  benchutil::print_header(
      "Sequential certification: stop when the upper bound clears the target",
      "BoykinR05 §4 — certify the silent rate < bound, don't pinpoint it");

  // Post-selected engines at sub-threshold g see (nearly) zero silent
  // failures, so a pinpoint estimate never converges RELATIVELY — but
  // the Wilson UPPER BOUND tightens with every accepted trial, and the
  // policy can stop the moment it certifies the target. The bound
  // plays the role of the paper's "failure probability at most ..."
  // statements, priced in trials.
  constexpr double kBound = 0.02;
  constexpr double kG = 1e-3;

  const Circuit logical = benchutil::scattered_workload();
  const CheckedMachineProgram program =
      CheckedMachine1d(logical.width(), true, recovering_machine_options())
          .compile(logical);

  AsciiTable table({"engine", "accepted", "silent", "wilson hi", "trials used",
                    "budget", "saved", "stop"});

  {
    CheckedMachineExperiment::Config config;
    config.trials = trials;
    config.seed = seed;
    const CheckedMachineExperiment exp(program, logical, config);
    telemetry::StreamOptions stream;
    stream.name = "checked_cert";
    stream.mc.batches_per_shard = 64;
    stream.stop.target_upper_bound = kBound;
    stream.stop.min_trials = 2048;
    const auto run = exp.run_streaming(kG, stream);
    const BernoulliEstimate headline{run.estimate.silent_failures,
                                     run.estimate.accepted()};
    const double share = static_cast<double>(run.trajectory.trials_consumed()) /
                         static_cast<double>(trials);
    table.add_row({"checked", AsciiTable::cell(headline.trials),
                   AsciiTable::cell(headline.failures),
                   AsciiTable::sci(headline.wilson_interval().hi, 2),
                   AsciiTable::cell(run.trajectory.trials_consumed()),
                   AsciiTable::cell(trials),
                   AsciiTable::fixed(100.0 * (1.0 - share), 1) + "%",
                   telemetry::stop_reason_name(run.stop_reason())});
    json.add("cert_checked", "accepted", headline.trials);
    json.add("cert_checked", "silent_failures", headline.failures);
    json.add("cert_checked", "wilson_hi", headline.wilson_interval().hi);
    json.add("cert_checked", "trials_consumed",
             run.trajectory.trials_consumed());
    json.add("cert_checked", "budget_share", share);
    write_artifacts(run.trajectory, nullptr, /*chrome=*/false);
  }
  {
    RecoveryExperiment::Config config;
    config.trials = trials;
    config.seed = seed;
    const RecoveryExperiment exp(program, logical, config);
    telemetry::StreamOptions stream;
    stream.name = "recovering_cert";
    stream.mc.batches_per_shard = 64;
    stream.stop.target_upper_bound = kBound;
    stream.stop.min_trials = 2048;
    const auto run =
        exp.run_streaming(kG, recover::RetryPolicy::block_local(), stream);
    const BernoulliEstimate headline{run.estimate.silent_failures,
                                     run.estimate.accepted};
    const double share = static_cast<double>(run.trajectory.trials_consumed()) /
                         static_cast<double>(trials);
    table.add_row({"recovering", AsciiTable::cell(headline.trials),
                   AsciiTable::cell(headline.failures),
                   AsciiTable::sci(headline.wilson_interval().hi, 2),
                   AsciiTable::cell(run.trajectory.trials_consumed()),
                   AsciiTable::cell(trials),
                   AsciiTable::fixed(100.0 * (1.0 - share), 1) + "%",
                   telemetry::stop_reason_name(run.stop_reason())});
    json.add("cert_recovering", "accepted", headline.trials);
    json.add("cert_recovering", "silent_failures", headline.failures);
    json.add("cert_recovering", "wilson_hi", headline.wilson_interval().hi);
    json.add("cert_recovering", "trials_consumed",
             run.trajectory.trials_consumed());
    json.add("cert_recovering", "budget_share", share);
    write_artifacts(run.trajectory, nullptr, /*chrome=*/false);
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "certification is the cheap direction of streaming: a sub-threshold\n"
      "machine clears its bound within a few rounds because EVERY accepted\n"
      "trial tightens the upper bound, failures or not — the relative-width\n"
      "criterion would wait forever for failures that (almost) never come.\n");
}

// --- 3. determinism of the stopped estimate ---------------------------

void print_determinism(benchutil::JsonResultWriter& json, std::uint64_t trials,
                       std::uint64_t seed) {
  benchutil::print_header(
      "Stopped-estimate determinism vs worker count",
      "engine contract (no paper analogue) — ctest-enforced, shown here");
  std::array<telemetry::StreamResult<BernoulliEstimate>, 3> runs;
  const int thread_counts[3] = {1, 3, 8};
  for (int i = 0; i < 3; ++i) {
    LogicalGateExperimentConfig config;
    config.level = 1;
    config.trials = trials;
    config.seed = seed;
    config.threads = thread_counts[i];
    telemetry::StreamOptions stream;
    stream.name = "determinism";
    stream.mc.batches_per_shard = 64;
    stream.stop.target_rel_half_width = 0.25;
    stream.stop.min_trials = 512;
    stream.stop.min_failures = 20;
    runs[i] = LogicalGateExperiment(config).run_streaming(4e-2, stream);
  }
  const bool identical =
      runs[0].estimate.failures == runs[1].estimate.failures &&
      runs[0].estimate.trials == runs[1].estimate.trials &&
      runs[0].estimate.failures == runs[2].estimate.failures &&
      runs[0].estimate.trials == runs[2].estimate.trials &&
      runs[0].trajectory.deterministic_equal(runs[1].trajectory) &&
      runs[0].trajectory.deterministic_equal(runs[2].trajectory);
  AsciiTable table({"threads", "trials used", "failures", "rounds", "stop"});
  for (int i = 0; i < 3; ++i)
    table.add_row({std::to_string(thread_counts[i]),
                   AsciiTable::cell(runs[i].estimate.trials),
                   AsciiTable::cell(runs[i].estimate.failures),
                   AsciiTable::cell(runs[i].trajectory.rounds()),
                   telemetry::stop_reason_name(runs[i].stop_reason())});
  std::printf("%s", table.str().c_str());
  std::printf("stopped estimate + trajectory bit-identical: %s\n",
              identical ? "yes" : "NO");
  json.add("determinism", "threads_bit_identical", identical ? 1.0 : 0.0);
  json.add("determinism", "trials_consumed", runs[0].estimate.trials);
  json.add("determinism", "failures", runs[0].estimate.failures);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::reject_args(argc, argv);
  benchutil::JsonResultWriter json("stream");
  const std::uint64_t trials = benchutil::trials_from_env(200000);
  const std::uint64_t seed = benchutil::seed_from_env();
  benchutil::stamp_run_meta(json, trials, seed);

  const bool bar = print_savings(json, trials, seed);
  print_certification(json, trials, seed);
  print_determinism(json, trials, seed);
  json.add("summary", "savings_bar_pass", bar ? 1.0 : 0.0);
  json.write();
  return 0;
}
