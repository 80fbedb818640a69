// bench_detect — online error detection vs the paper's correction.
//
// Prints (1) the exhaustive single-fault detection census of the
// parity-checked MAJ recovery cycle — the PROOF that every non-benign
// single fault is detected or harmless, (2) the detection-vs-
// correction comparison at equal fallible-gate budgets across a g
// sweep, (3) a thread-count determinism check for the checked packed
// engine, then times the detection kernels against the plain noisy-MAJ
// baseline (the acceptance bar: checked overhead <= 2x per original
// op, checkpoint evaluation included).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "detect/checked_mc.h"
#include "detect/rail.h"
#include "ft/detect_experiment.h"
#include "support/table.h"

using namespace revft;

namespace {

// --- census proof ----------------------------------------------------

void print_census(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Single-fault detection census: parity-checked MAJ cycle",
      "§2 single-fault tolerance, + arXiv:1008.3340 / 0812.3871");

  // The identical census that tests/test_detect.cpp gates on — one
  // definition (ft/detect_experiment) so proof and table cannot drift.
  const auto census = checked_maj_cycle_census();

  AsciiTable table({"outcome", "count"});
  table.add_row({"scenarios simulated", std::to_string(census.scenarios)});
  table.add_row({"benign (pruned)", std::to_string(census.benign_skipped)});
  table.add_row({"harmless", std::to_string(census.harmless)});
  table.add_row({"detected, harmless", std::to_string(census.detected_harmless)});
  table.add_row({"detected, harmful", std::to_string(census.detected_harmful)});
  table.add_row({"SILENT harmful", std::to_string(census.silent_harmful)});
  std::printf("%s", table.str().c_str());
  std::printf("fault-secure (every non-benign fault detected or harmless): %s\n",
              census.fault_secure() ? "yes" : "NO");

  json.add("census", "scenarios", census.scenarios);
  json.add("census", "benign_skipped", census.benign_skipped);
  json.add("census", "harmless", census.harmless);
  json.add("census", "detected_harmless", census.detected_harmless);
  json.add("census", "detected_harmful", census.detected_harmful);
  json.add("census", "silent_harmful", census.silent_harmful);
  json.add("census", "fault_secure", census.fault_secure() ? 1.0 : 0.0);
}

// --- rail partition refinement on the same cycle ---------------------

void print_partition_census(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Rail partition refinement: one rail per majority block",
      "multi-rail partition (ROADMAP) — detection is monotone in the "
      "partition");

  const auto global_census = checked_maj_cycle_census();
  const auto fine_census =
      checked_maj_cycle_census(revft::detect::partition_into_blocks(9, 3));

  AsciiTable table({"outcome", "global rail", "per-block rails"});
  table.add_row({"scenarios simulated", std::to_string(global_census.scenarios),
                 std::to_string(fine_census.scenarios)});
  table.add_row({"detected", std::to_string(global_census.detected()),
                 std::to_string(fine_census.detected())});
  table.add_row({"harmless", std::to_string(global_census.harmless),
                 std::to_string(fine_census.harmless)});
  table.add_row({"SILENT harmful", std::to_string(global_census.silent_harmful),
                 std::to_string(fine_census.silent_harmful)});
  std::printf("%s", table.str().c_str());
  std::printf(
      "the XOR of the per-block invariants is the global invariant, so the\n"
      "finer partition detects a superset scenario-for-scenario (pinned in\n"
      "tests/test_detect.cpp) and additionally names WHICH majority block\n"
      "took the damage.\n");

  json.add("partition", "global_detected", global_census.detected());
  json.add("partition", "fine_detected", fine_census.detected());
  json.add("partition", "fine_silent_harmful", fine_census.silent_harmful);
  json.add("partition", "fine_fault_secure",
           fine_census.fault_secure() ? 1.0 : 0.0);
}

// --- detection vs correction ----------------------------------------

void print_comparison(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Detection (post-selection) vs correction (MAJ cycle), equal gate budget",
      "§2.2 threshold accounting");

  DetectVsCorrectConfig config;
  config.gate_budget = 2000;
  config.trials = benchutil::trials_from_env(200000);
  config.seed = benchutil::seed_from_env();
  const DetectVsCorrectExperiment exp(config);

  std::printf("budget %llu ops/arm: correction %d rounds (%llu ops), "
              "detection %d rounds (%llu ops)\n",
              static_cast<unsigned long long>(config.gate_budget),
              exp.correction_rounds(),
              static_cast<unsigned long long>(exp.correction_ops()),
              exp.detection_rounds(),
              static_cast<unsigned long long>(exp.detection_ops()));

  benchutil::stamp_run_meta(json, config.trials, config.seed);
  json.meta("gate_budget", config.gate_budget);
  json.meta("correction_ops", exp.correction_ops());
  json.meta("detection_ops", exp.detection_ops());

  AsciiTable table({"g", "correction p_L", "detect silent", "detect post-sel",
                    "detect raw", "abort rate", "E[ops/accept]"});
  for (double g : {1e-3, 3e-3, 1e-2, 3e-2}) {
    const auto point = exp.run(g);
    char buf[7][32];
    std::snprintf(buf[0], sizeof buf[0], "%.0e", g);
    std::snprintf(buf[1], sizeof buf[1], "%.3e", point.correction.rate());
    std::snprintf(buf[2], sizeof buf[2], "%.3e",
                  point.detection.silent_rate());
    std::snprintf(buf[3], sizeof buf[3], "%.3e",
                  point.detection.post_selected_error_rate());
    std::snprintf(buf[4], sizeof buf[4], "%.3e",
                  point.detection.raw_failure_rate());
    std::snprintf(buf[5], sizeof buf[5], "%.3f",
                  point.detection.detected_rate());
    std::snprintf(buf[6], sizeof buf[6], "%.3e",
                  point.detection.expected_ops_to_accept(exp.detection_ops()));
    table.add_row({buf[0], buf[1], buf[2], buf[3], buf[4], buf[5], buf[6]});

    char section[32];
    std::snprintf(section, sizeof section, "g_%.0e", g);
    json.add(section, "correction_error_rate", point.correction.rate());
    json.add(section, "detection_silent_failures",
             point.detection.silent_failures);
    json.add(section, "detection_detected", point.detection.detected);
    json.add(section, "detection_accepted", point.detection.accepted());
    json.add(section, "detection_post_selected_error_rate",
             point.detection.post_selected_error_rate());
    json.add(section, "detection_raw_failure_rate",
             point.detection.raw_failure_rate());
    json.add(section, "detection_expected_ops_to_accept",
             point.detection.expected_ops_to_accept(exp.detection_ops()));
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "post-selection buys detection a cleaner accepted population; the\n"
      "silent failures that survive it are the even-weight corruptions a\n"
      "single parity rail cannot see — the regime where the paper's\n"
      "majority-vote correction wins. E[ops/accept] prices detection's\n"
      "retries (checked ops / acceptance, geometric retry model): compare\n"
      "it against the correction arm's flat %llu ops per (always accepted)\n"
      "round chain.\n",
      static_cast<unsigned long long>(exp.correction_ops()));
}

// --- determinism across thread counts --------------------------------

void print_determinism(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Checked-engine determinism: detected/silent/accepted vs REVFT_THREADS",
      "engine contract (no paper analogue)");

  DetectVsCorrectConfig config;
  config.gate_budget = 600;
  config.trials = 100000;
  config.seed = benchutil::seed_from_env();
  const DetectVsCorrectExperiment exp(config);

  detect::DetectionEstimate results[3];
  const int thread_counts[3] = {1, 2, 8};
  for (int i = 0; i < 3; ++i)
    results[i] = exp.run_detection(0.01, thread_counts[i]);
  const bool identical = results[0] == results[1] && results[0] == results[2];

  AsciiTable table({"threads", "detected", "detected fail", "silent fail",
                    "accepted"});
  for (int i = 0; i < 3; ++i)
    table.add_row({std::to_string(thread_counts[i]),
                   std::to_string(results[i].detected),
                   std::to_string(results[i].detected_failures),
                   std::to_string(results[i].silent_failures),
                   std::to_string(results[i].accepted())});
  std::printf("%s", table.str().c_str());
  std::printf("bit-identical across thread counts: %s\n",
              identical ? "yes" : "NO");
  json.add("determinism", "threads_bit_identical", identical ? 1.0 : 0.0);
  json.add("determinism", "detected", results[0].detected);
  json.add("determinism", "silent_failures", results[0].silent_failures);
}

// --- kernel overhead vs the noisy-MAJ baseline -----------------------

Circuit maj_chain_workload() {
  Circuit c(9);
  for (int rep = 0; rep < 100; ++rep) {
    c.maj(0, 1, 2).maj(3, 4, 5).maj(6, 7, 8);
    c.majinv(0, 1, 2).majinv(3, 4, 5).majinv(6, 7, 8);
  }
  return c;
}

detect::CheckedCircuit checked_maj_workload() {
  detect::ParityRailOptions opts;
  opts.check_every = 25;  // ~1 invariant evaluation per 25 original ops
  return detect::to_parity_rail(maj_chain_workload(), opts);
}

void print_overhead(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Packed-engine detection overhead (per original op, 64 lanes)",
      "acceptance bar: checked <= 2x noisy-MAJ baseline");

  const Circuit plain = maj_chain_workload();
  const auto checked = checked_maj_workload();
  const double g = 1e-3;
  const double ops = static_cast<double>(plain.size());

  PackedSimulator base_sim(NoiseModel::uniform(g), benchutil::seed_from_env());
  PackedState base_state(plain.width());
  PackedSimulator checked_sim(NoiseModel::uniform(g),
                              benchutil::seed_from_env());
  PackedState checked_state(checked.circuit.width());
  std::uint64_t mask_acc = 0;
  // Per ORIGINAL op: 15 repetitions of 400 calls per variant.
  const benchutil::Timing t = benchutil::time_interleaved(
      {{ops,
        [&] {
          base_sim.apply_noisy_span(base_state, plain, 0, plain.size());
          benchutil::do_not_optimize(base_state);
        }},
       {ops,
        [&] {
          std::uint64_t detected = 0;
          detect::apply_noisy_checked_words(checked_sim, checked_state,
                                            checked, &detected);
          mask_acc ^= detected;
          benchutil::do_not_optimize(checked_state);
        }}},
      15, 400);
  benchutil::do_not_optimize(mask_acc);

  const double noisy_ns = t.ns_per_unit[0];
  const double checked_ns = t.ns_per_unit[1];
  const double ratio = t.ratio[1];
  std::printf("workload: %zu MAJ/MAJ⁻¹ ops; railed: %zu ops (+%llu rail), "
              "%zu checkpoints\n",
              plain.size(), checked.circuit.size(),
              static_cast<unsigned long long>(checked.rail_ops),
              checked.checkpoints.size());
  std::printf("noisy baseline : %8.3f ns/op\n", noisy_ns);
  std::printf("checked        : %8.3f ns/op  (detection + rail upkeep)\n",
              checked_ns);
  std::printf("overhead ratio : %8.3f  (bar: <= 2.0)  %s\n", ratio,
              ratio <= 2.0 ? "PASS" : "FAIL");

  json.add("kernel", "noisy_ns_per_op", noisy_ns);
  json.add("kernel", "checked_ns_per_op", checked_ns);
  json.add("kernel", "overhead_ratio", ratio);
  json.add("kernel", "overhead_within_2x", ratio <= 2.0 ? 1.0 : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::reject_args(argc, argv);
  benchutil::JsonResultWriter json("detect");
  print_census(json);
  print_partition_census(json);
  print_comparison(json);
  print_determinism(json);
  print_overhead(json);
  json.write();
  return 0;
}
