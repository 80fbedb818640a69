// bench_local_checked — the detection-aware local machines.
//
// Prints (1) the free-checking accounting: how much of a compiled
// 1D/2D machine program is self-checking at zero gate cost because the
// entire routing fabric is SWAP/SWAP3 (parity-preserving), (2) the
// exhaustive single-fault detection census of the checked 1D and 2D
// single-cycle programs — the PROOF that rail + recovery-boundary zero
// checks leave no single fault both silent and harmful (the same
// census tests/test_local_checked.cpp gates on), (3) a g sweep of
// detected / silent / accepted splits for both machines under the
// checked packed engine, (4) a thread-count determinism check, (5) the
// multi-word SIMD lane sweep — checked-kernel throughput at
// lane_words ∈ {1,2,4,8} with the speedup bar the AVX2 CI job
// enforces — then times the checked kernel against the unchecked
// machine program (the acceptance bar: checked <= 1.5x per original
// op, checkpoint and zero-check evaluation included).
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "detect/checked_mc.h"
#include "detect/retry_model.h"
#include "ft/detect_experiment.h"
#include "ft/experiments.h"
#include "local/checked_machine.h"
#include "local/machine.h"
#include "noise/lanes.h"
#include "support/error.h"
#include "support/table.h"

using namespace revft;

namespace {

using enum BlockLayout;

/// Checked machine programs on `layout` (with initialization) for the
/// bench's few workload/options combinations.
CheckedMachineProgram compile(BlockLayout layout, const Circuit& logical,
                              const CheckedMachineOptions& opts = {}) {
  return CheckedMachine(layout, logical.width(), true, opts).compile(logical);
}

/// A routing-free contrast: every operand already adjacent.
Circuit adjacent_workload() {
  Circuit logical(10);
  logical.toffoli(0, 1, 2).maj(3, 4, 5).fredkin(6, 7, 8);
  return logical;
}

// --- free-checking accounting ----------------------------------------

void add_stats_row(AsciiTable& table, benchutil::JsonResultWriter& json,
                   const char* label, const CheckedMachineProgram& program) {
  const CheckingStats& stats = program.stats;
  table.add_row({label, AsciiTable::cell(stats.total_ops),
                 AsciiTable::cell(stats.routing_ops),
                 AsciiTable::fixed(100.0 * stats.free_fraction(), 1) + "%",
                 AsciiTable::cell(stats.rails),
                 AsciiTable::cell(stats.rail_ops),
                 AsciiTable::fixed(stats.gate_overhead(), 3) + "x",
                 AsciiTable::cell(stats.checkpoints) + " / " +
                     AsciiTable::cell(stats.zero_checks)});
  json.add(label, "total_ops", stats.total_ops);
  json.add(label, "routing_ops", stats.routing_ops);
  json.add(label, "free_fraction", stats.free_fraction());
  json.add(label, "rails", stats.rails);
  json.add(label, "rail_ops", stats.rail_ops);
  json.add(label, "gate_overhead", stats.gate_overhead());
  json.add(label, "checkpoints", stats.checkpoints);
  json.add(label, "zero_checks", stats.zero_checks);
}

void print_free_checking(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Free checking: the routing fabric is parity-preserving",
      "§3 + arXiv:1008.3340 (parity-preserving synthesis)");

  const Circuit scattered = benchutil::scattered_workload();
  const Circuit adjacent = adjacent_workload();
  CheckedMachineOptions global;
  global.rails = RailGranularity::kGlobal;

  AsciiTable table({"machine / workload", "ops", "routing ops", "free",
                    "rails", "rail ops", "gate ovh", "ckpt / zero"});
  add_stats_row(table, json, "1d_scattered", compile(k1d, scattered));
  add_stats_row(table, json, "1d_scattered_global",
                compile(k1d, scattered, global));
  add_stats_row(table, json, "1d_adjacent", compile(k1d, adjacent));
  add_stats_row(table, json, "2d_scattered", compile(k2d, scattered));
  add_stats_row(table, json, "2d_scattered_global",
                compile(k2d, scattered, global));
  add_stats_row(table, json, "2d_adjacent", compile(k2d, adjacent));
  std::printf("%s", table.str().c_str());
  std::printf(
      "every routing op is SWAP/SWAP3 — self-checking for free at ANY rail\n"
      "granularity, because swaps migrate rail membership with the moving\n"
      "values instead of compensating; the per-block partition (default,\n"
      "one rail per 9-cell block) only adds compensation for kernel gates\n"
      "straddling a gathered triple, so its rail traffic stays within a\n"
      "few dozen gates of the single global rail.\n");
}

// --- the census proof ------------------------------------------------

void print_census(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Single-fault detection census: checked 1D and 2D single-cycle programs",
      "§2 single-fault tolerance + arXiv:0812.3871 invariant checks");

  Circuit logical(3);
  logical.toffoli(2, 1, 0);  // routed single cycle

  AsciiTable table({"outcome", "1D machine", "2D machine"});
  const auto census1 = machine_detection_census(compile(k1d, logical), logical);
  const auto census2 = machine_detection_census(compile(k2d, logical), logical);
  table.add_row({"fault sites", std::to_string(census1.fault_sites),
                 std::to_string(census2.fault_sites)});
  table.add_row({"scenarios simulated", std::to_string(census1.scenarios),
                 std::to_string(census2.scenarios)});
  table.add_row({"harmless", std::to_string(census1.harmless),
                 std::to_string(census2.harmless)});
  table.add_row({"detected, harmless", std::to_string(census1.detected_harmless),
                 std::to_string(census2.detected_harmless)});
  table.add_row({"detected, harmful", std::to_string(census1.detected_harmful),
                 std::to_string(census2.detected_harmful)});
  table.add_row({"SILENT harmful", std::to_string(census1.silent_harmful),
                 std::to_string(census2.silent_harmful)});
  std::printf("%s", table.str().c_str());
  std::printf("fault-secure: 1D %s, 2D %s\n",
              census1.fault_secure() ? "yes" : "NO",
              census2.fault_secure() ? "yes" : "NO");
  std::printf(
      "the 1D detected-harmful rows are the cross-codeword interleave\n"
      "faults of bench_fig7 — a lone global rail misses their even-weight\n"
      "half; the recovery-boundary zero checks (syndromes must be clean)\n"
      "are what catch them.\n");

  json.add("census_1d", "scenarios", census1.scenarios);
  json.add("census_1d", "detected_harmful", census1.detected_harmful);
  json.add("census_1d", "silent_harmful", census1.silent_harmful);
  json.add("census_1d", "fault_secure", census1.fault_secure() ? 1.0 : 0.0);
  json.add("census_2d", "scenarios", census2.scenarios);
  json.add("census_2d", "detected_harmful", census2.detected_harmful);
  json.add("census_2d", "silent_harmful", census2.silent_harmful);
  json.add("census_2d", "fault_secure", census2.fault_secure() ? 1.0 : 0.0);
}

// --- the ROADMAP comparison: per-block rails vs global+zero-checks ----

void print_partition_comparison(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Rail granularity x zero checks: what each detection net catches",
      "ROADMAP multi-rail item — per-block rails vs the global-rail"
      "+zero-check design");

  Circuit logical(3);
  logical.toffoli(0, 1, 2);  // single 1D cycle: the interleave regime

  struct Config {
    const char* label;
    RailGranularity rails;
    bool zero_checks;
  };
  const Config configs[] = {
      {"global_rail_only", RailGranularity::kGlobal, false},
      {"per_block_rails_only", RailGranularity::kPerBlock, false},
      {"global_rail_plus_zero", RailGranularity::kGlobal, true},
      {"per_block_plus_zero", RailGranularity::kPerBlock, true},
  };
  AsciiTable table({"configuration", "checked ops", "detected harmful",
                    "SILENT harmful", "fault-secure"});
  for (const Config& config : configs) {
    CheckedMachineOptions opts;
    opts.rails = config.rails;
    opts.zero_checks = config.zero_checks;
    opts.check_every = config.zero_checks ? 0 : 1;  // equal observation density
    const CheckedMachineProgram program = compile(k1d, logical, opts);
    const auto census = machine_detection_census(program, logical);
    table.add_row({config.label, AsciiTable::cell(program.checked.circuit.size()),
                   AsciiTable::cell(census.detected_harmful),
                   AsciiTable::cell(census.silent_harmful),
                   census.fault_secure() ? "yes" : "NO"});
    json.add(config.label, "checked_ops", program.checked.circuit.size());
    json.add(config.label, "detected_harmful", census.detected_harmful);
    json.add(config.label, "silent_harmful", census.silent_harmful);
    json.add(config.label, "fault_secure", census.fault_secure() ? 1.0 : 0.0);
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "the global rail alone leaks the cross-codeword interleave faults\n"
      "(even global weight, odd per block); refining it into per-block\n"
      "rails closes them at nearly identical checked-op overhead — the\n"
      "partition buys with geometry what the zero checks buy with the\n"
      "construction's clean-cell promises, and it localizes the damage.\n");
}

// --- g sweep: detected vs silent -------------------------------------

void print_g_sweep(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Detected vs silent rates on checked machine workloads",
      "checked packed engine (post-selection economics)");

  const std::uint64_t trials = benchutil::trials_from_env(200000);
  const Circuit logical = benchutil::scattered_workload();
  CheckedMachineExperiment::Config config;
  config.trials = trials;
  config.seed = benchutil::seed_from_env();
  const CheckedMachineExperiment exp1d(compile(k1d, logical), logical, config);
  const CheckedMachineExperiment exp2d(compile(k2d, logical), logical, config);
  std::printf("workload: %zu scattered gates on 10 encoded bits, %llu "
              "trials/point\n",
              logical.size(), static_cast<unsigned long long>(trials));
  benchutil::stamp_run_meta(json, trials, config.seed);

  const std::uint64_t ops1 = exp1d.program().checked.circuit.size();
  const std::uint64_t ops2 = exp2d.program().checked.circuit.size();
  AsciiTable table({"g", "1D detect", "1D silent", "1D post-sel",
                    "1D E[ops/accept]", "2D detect", "2D silent",
                    "2D post-sel", "2D E[ops/accept]"});
  std::map<double, detect::DetectionEstimate> sweep1d;  // reused below
  for (const double g : {1e-4, 3e-4, 1e-3, 3e-3, 1e-2}) {
    const auto e1 = sweep1d.emplace(g, exp1d.run(g)).first->second;
    const auto e2 = exp2d.run(g);
    table.add_row(
        {AsciiTable::sci(g, 1), AsciiTable::fixed(e1.detected_rate(), 4),
         AsciiTable::sci(e1.silent_rate(), 2),
         AsciiTable::sci(e1.post_selected_error_rate(), 2),
         AsciiTable::sci(e1.expected_ops_to_accept(ops1), 2),
         AsciiTable::fixed(e2.detected_rate(), 4),
         AsciiTable::sci(e2.silent_rate(), 2),
         AsciiTable::sci(e2.post_selected_error_rate(), 2),
         AsciiTable::sci(e2.expected_ops_to_accept(ops2), 2)});
    char section[32];
    std::snprintf(section, sizeof section, "g_%.0e", g);
    json.add(section, "detected_1d", e1.detected);
    json.add(section, "silent_1d", e1.silent_failures);
    json.add(section, "accepted_1d", e1.accepted());
    json.add(section, "post_selected_1d", e1.post_selected_error_rate());
    json.add(section, "expected_ops_to_accept_1d", e1.expected_ops_to_accept(ops1));
    json.add(section, "zero_check_detected_1d", e1.zero_check_detected);
    json.add(section, "detected_2d", e2.detected);
    json.add(section, "silent_2d", e2.silent_failures);
    json.add(section, "accepted_2d", e2.accepted());
    json.add(section, "post_selected_2d", e2.post_selected_error_rate());
    json.add(section, "expected_ops_to_accept_2d", e2.expected_ops_to_accept(ops2));
    json.add(section, "zero_check_detected_2d", e2.zero_check_detected);
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "the recovery-boundary zero checks flag every corrupted codeword,\n"
      "including ones the majority vote would have fixed, so the abort rate\n"
      "rises quickly with g while the accepted population stays clean;\n"
      "E[ops/accept] = checked_ops / acceptance prices those geometric\n"
      "retries (the post-selection economics column).\n");

  // The retry economics of localization: per-block rails vs the global
  // rail on the same 1D workload. Whole-program retry costs are nearly
  // identical (the partition adds a handful of rail ops); the per-rail
  // counts are what a BLOCK-local retry protocol acts on — the
  // "block-local model" column prices it with the shared
  // detect::retry_cost_model, and bench_recover measures the real
  // thing against that number.
  CheckedMachineOptions global;
  global.rails = RailGranularity::kGlobal;
  const CheckedMachineExperiment exp_global(compile(k1d, logical, global),
                                              logical, config);
  const std::uint64_t ops_global = exp_global.program().checked.circuit.size();
  const std::uint64_t blocks = exp1d.program().stats.rails;
  AsciiTable retry({"g", "abort global", "abort per-block", "silent global",
                    "silent per-block", "E[ops/accept] global",
                    "E[ops/accept] per-block", "block-local model"});
  for (const double g : {1e-3, 3e-3, 1e-2}) {
    const auto eg = exp_global.run(g);
    const auto& eb = sweep1d.at(g);  // deterministic: same run as above
    const auto model = detect::retry_cost_model(eb, ops1, blocks);
    retry.add_row({AsciiTable::sci(g, 1), AsciiTable::fixed(eg.detected_rate(), 4),
                   AsciiTable::fixed(eb.detected_rate(), 4),
                   AsciiTable::sci(eg.silent_rate(), 2),
                   AsciiTable::sci(eb.silent_rate(), 2),
                   AsciiTable::sci(eg.expected_ops_to_accept(ops_global), 2),
                   AsciiTable::sci(eb.expected_ops_to_accept(ops1), 2),
                   AsciiTable::sci(model.block_local, 2)});
    char section[40];
    std::snprintf(section, sizeof section, "retry_g_%.0e", g);
    json.add(section, "abort_rate_global", eg.detected_rate());
    json.add(section, "abort_rate_per_block", eb.detected_rate());
    json.add(section, "silent_global", eg.silent_failures);
    json.add(section, "silent_per_block", eb.silent_failures);
    json.add(section, "expected_ops_to_accept_global",
             eg.expected_ops_to_accept(ops_global));
    json.add(section, "expected_ops_to_accept_per_block",
             eb.expected_ops_to_accept(ops1));
    json.add(section, "block_local_model", model.block_local);
  }
  std::printf("%s", retry.str().c_str());

  // Which block gets named? Per-rail detection rates on the 1D
  // workload (DetectionEstimate::rail_detected_rate): the suspect-block
  // histogram a block-local retry consumes.
  std::vector<std::string> rail_headers{"g"};
  for (std::uint64_t r = 0; r < blocks; ++r)
    rail_headers.push_back("rail " + std::to_string(r));
  AsciiTable rails_table(rail_headers);
  for (const double g : {1e-3, 3e-3}) {
    const auto& eb = sweep1d.at(g);
    std::vector<std::string> row{AsciiTable::sci(g, 1)};
    char section[40];
    std::snprintf(section, sizeof section, "rail_rates_g_%.0e", g);
    for (std::size_t r = 0; r < blocks; ++r) {
      row.push_back(AsciiTable::fixed(eb.rail_detected_rate(r), 4));
      json.add(section, "rail_" + std::to_string(r),
               eb.rail_detected_rate(r));
    }
    rails_table.add_row(row);
  }
  std::printf("\nper-rail detection rates (fraction of trials naming block r):\n%s",
              rails_table.str().c_str());
}

// --- determinism across thread counts --------------------------------

void print_determinism(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Checked-machine determinism: outcome counts vs REVFT_THREADS",
      "engine contract (no paper analogue)");

  const Circuit logical = benchutil::scattered_workload();
  CheckedMachineExperiment::Config config;
  config.trials = 100000;
  config.seed = benchutil::seed_from_env();
  const CheckedMachineExperiment exp(compile(k1d, logical), logical, config);

  detect::DetectionEstimate results[3];
  const int thread_counts[3] = {1, 3, 8};
  for (int i = 0; i < 3; ++i) results[i] = exp.run(1e-3, thread_counts[i]);
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
  // operator== above covers the per-rail counts; record their sum so
  // the JSON trajectory notices a partition regression too.
  json.add("determinism", "rail_detected_sum", results[0].total_detected());
  json.add("determinism", "zero_check_detected",
           results[0].zero_check_detected);
}

// --- kernel overhead vs the unchecked machine ------------------------

// --- multi-word SIMD lane sweep --------------------------------------

/// Checked-kernel throughput at lane_words ∈ {1,2,4,8}: the same
/// circuit walk, W words per circuit bit, so every gate and checkpoint
/// becomes a contiguous word-array loop the compiler auto-vectorizes.
/// The speedup columns are per LANE (trial), the economically
/// meaningful number: a W=8 batch carries 512 trials per pass.
///
/// Throughput is swept over the error rate because the two cost terms
/// scale differently: the word-loop work (gates, checkpoint parities)
/// drops with vector width, while fault handling — one geometric gap
/// draw and one injection per failure — is scalar and identical at
/// every width, costing g x const per op-lane at ANY W. At g = 1e-3
/// that constant dominates and caps the ratio near 1.5x however well
/// the loops vectorize; in the sub-threshold tail (g = 1e-5, the
/// regime the paper's threshold plots probe and the reason the packed
/// engine exists — Monte-Carlo cost there is astronomically dominated
/// by non-failing trials) almost every gate is draw-free and the
/// kernel speedup is fully visible. The acceptance bar is therefore
/// enforced on the g = 1e-5 column: best width >= 2.5x when the
/// binary was compiled for AVX2 or wider, >= 1.2x on the SSE2
/// baseline (where the win is 128-bit vectors plus per-gate dispatch
/// amortization). All three columns land in the JSON so the
/// g-dependence stays visible in the trajectory.
void print_simd_sweep(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Multi-word packed kernel: checked throughput vs lane_words",
      "engine throughput (no paper analogue); ISA-aware bar");

  const Circuit logical = benchutil::scattered_workload();
  const CheckedMachineProgram program = compile(k1d, logical);
  const std::uint64_t ops = program.stats.total_ops;
  const double gs[] = {1e-3, 1e-4, 1e-5};
  const char* g_tag[] = {"g1e3", "g1e4", "g1e5"};
  const int kBarG = 2;  // bar enforced on the sub-threshold column

  // One time_interleaved() call per error rate, the four widths as its
  // variants (W=1 first, so ratio[i] is W_i's ns/op-lane over W=1's
  // and the speedup is its inverse).
  const unsigned widths[] = {1, 2, 4, 8};
  benchutil::Timing timing[3];
  for (int j = 0; j < 3; ++j) {
    std::vector<PackedSimulator> sims;
    std::vector<PackedState> states;
    sims.reserve(4);
    states.reserve(4);
    for (const unsigned W : widths) {
      sims.emplace_back(NoiseModel::uniform(gs[j]), benchutil::seed_from_env());
      states.emplace_back(program.checked.circuit.width(), W);
    }
    std::uint64_t detected[kMaxLaneWords];
    std::uint64_t acc = 0;
    std::vector<benchutil::TimedBody> variants;
    for (int i = 0; i < 4; ++i) {
      // One call covers ops * 64 * W lane-ops (original ops x trials).
      variants.push_back({static_cast<double>(ops * 64 * widths[i]), [&, i] {
                            detect::apply_noisy_checked_words(
                                sims[i], states[i], program.checked, detected);
                            acc ^= detected[0];
                            benchutil::do_not_optimize(states[i]);
                          }});
    }
    timing[j] = benchutil::time_interleaved(variants, 15, 40);
    benchutil::do_not_optimize(acc);
  }
  const auto speedup = [&](int j, int i) { return 1.0 / timing[j].ratio[i]; };

  AsciiTable table({"lane_words", "lanes/batch", "ns/op-lane g=1e-3",
                    "g=1e-4", "g=1e-5", "speedup @1e-5"});
  for (int i = 0; i < 4; ++i) {
    const unsigned W = widths[i];
    table.add_row({std::to_string(W), std::to_string(64 * W),
                   AsciiTable::fixed(timing[0].ns_per_unit[i], 4),
                   AsciiTable::fixed(timing[1].ns_per_unit[i], 4),
                   AsciiTable::fixed(timing[2].ns_per_unit[i], 4),
                   AsciiTable::fixed(speedup(kBarG, i), 3) + "x"});
    const std::string section = "simd_w" + std::to_string(W);
    for (int j = 0; j < 3; ++j) {
      json.add(section, std::string("ns_per_op_lane_") + g_tag[j],
               timing[j].ns_per_unit[i]);
      json.add(section, std::string("speedup_vs_w1_") + g_tag[j],
               speedup(j, i));
    }
  }

  int best = 0;
  for (int i = 1; i < 4; ++i)
    if (speedup(kBarG, i) > speedup(kBarG, best)) best = i;
  const double best_speedup = speedup(kBarG, best);

#if defined(__AVX2__) || defined(__AVX512F__)
  const double bar = 2.5;
  const char* bar_key = "simd_speedup_within_2_5x";
#else
  const double bar = 1.2;
  const char* bar_key = "simd_speedup_within_1_2x";
#endif
  std::printf("%s", table.str().c_str());
  std::printf(
      "target ISA %s | chosen lane_words %u | best speedup %.3fx at g=1e-5 "
      "(bar: >= %.1fx)  %s\n"
      "fault handling is scalar and width-independent (g x const per\n"
      "op-lane), so the kernel speedup shows in the sub-threshold tail\n"
      "where trials are draw-free; the g=1e-3 column shows the blend.\n"
      "lane_words is part of the determinism key (like batches_per_shard):\n"
      "a fixed width reproduces bit-for-bit at any REVFT_THREADS, but\n"
      "changing the width changes the per-kind mask-stream consumption.\n",
      benchutil::target_isa(), widths[best], best_speedup, bar,
      best_speedup >= bar ? "PASS" : "FAIL");
  json.add("simd_sweep", "chosen_lane_words",
           static_cast<std::uint64_t>(widths[best]));
  json.add("simd_sweep", "bar_error_rate", gs[kBarG]);
  json.add("simd_sweep", "best_speedup", best_speedup);
  json.add("simd_sweep", bar_key, best_speedup >= bar ? 1.0 : 0.0);
}

double measure_overhead(const Circuit& physical,
                        const CheckedMachineProgram& program, const char* label,
                        benchutil::JsonResultWriter& json) {
  // Both kernels run the same original ops: the checked program wraps
  // exactly the unchecked one.
  REVFT_CHECK(physical.size() == program.stats.total_ops);
  const double g = 1e-3;
  const double ops = static_cast<double>(physical.size());

  PackedSimulator base_sim(NoiseModel::uniform(g), benchutil::seed_from_env());
  PackedState base_state(physical.width());
  PackedSimulator checked_sim(NoiseModel::uniform(g),
                              benchutil::seed_from_env());
  PackedState checked_state(program.checked.circuit.width());
  std::uint64_t mask_acc = 0;
  // Per ORIGINAL op: 15 repetitions of 80 calls per variant.
  const benchutil::Timing t = benchutil::time_interleaved(
      {{ops,
        [&] {
          base_sim.apply_noisy_span(base_state, physical, 0, physical.size());
          benchutil::do_not_optimize(base_state);
        }},
       {ops,
        [&] {
          std::uint64_t detected = 0;
          detect::apply_noisy_checked_words(checked_sim, checked_state,
                                            program.checked, &detected);
          mask_acc ^= detected;
          benchutil::do_not_optimize(checked_state);
        }}},
      15, 80);
  benchutil::do_not_optimize(mask_acc);

  const double plain_ns = t.ns_per_unit[0];
  const double checked_ns = t.ns_per_unit[1];
  const double ratio = t.ratio[1];
  std::printf("%-4s unchecked %8.3f ns/op | checked %8.3f ns/op | "
              "overhead %.3fx  (bar: <= 1.5)  %s\n",
              label, plain_ns, checked_ns, ratio,
              ratio <= 1.5 ? "PASS" : "FAIL");
  json.add(label, "unchecked_ns_per_op", plain_ns);
  json.add(label, "checked_ns_per_op", checked_ns);
  json.add(label, "kernel_overhead", ratio);
  json.add(label, "overhead_within_1_5x", ratio <= 1.5 ? 1.0 : 0.0);
  return ratio;
}

void print_overhead(benchutil::JsonResultWriter& json) {
  benchutil::print_header(
      "Checked-machine kernel overhead (per original op, 64 lanes)",
      "acceptance bar: checked <= 1.5x the unchecked machine");

  const Circuit logical = benchutil::scattered_workload();
  const MachineProgram p1 = Machine(k1d, 10).compile(logical);
  const MachineProgram p2 = Machine(k2d, 10).compile(logical);
  const CheckedMachineProgram c1 = compile(k1d, logical);
  const CheckedMachineProgram c2 = compile(k2d, logical);
  CheckedMachineOptions global;
  global.rails = RailGranularity::kGlobal;
  const CheckedMachineProgram g1 = compile(k1d, logical, global);
  const CheckedMachineProgram g2 = compile(k2d, logical, global);
  std::printf("workload: %zu scattered gates, 10 encoded bits; 1D %zu ops "
              "-> %zu checked (10 rails), 2D %zu ops -> %zu checked\n",
              logical.size(), p1.physical.size(), c1.checked.circuit.size(),
              p2.physical.size(), c2.checked.circuit.size());

  measure_overhead(p1.physical, c1, "1D", json);
  measure_overhead(p2.physical, c2, "2D", json);
  measure_overhead(p1.physical, g1, "1D-global", json);
  measure_overhead(p2.physical, g2, "2D-global", json);
  std::printf(
      "the routing fabric adds no rail gates at either granularity (swaps\n"
      "migrate membership), and a full partition's checkpoint costs the\n"
      "same word work as the single rail (the groups tile the cells), so\n"
      "the default per-block rails ride within the same 1.5x bar as the\n"
      "global rail.\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::reject_args(argc, argv);
  benchutil::JsonResultWriter json("local_checked");
  print_free_checking(json);
  print_census(json);
  print_partition_comparison(json);
  print_g_sweep(json);
  print_determinism(json);
  print_simd_sweep(json);
  print_overhead(json);
  json.write();
  return 0;
}
