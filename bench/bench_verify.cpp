// bench_verify — static certificates vs the exhaustive census.
//
// The certifier of src/verify/ takes the census' inputs as the lanes of
// one word and reaches the census' counts with ONE delta-cone walk per
// (op, value) pair, where the census runs every (op, value, input)
// scenario through the packed fault walker, 512 per batch. This bench
// prices that trade on the checked machine programs:
//
//   1. the headline table: certificate vs census CPU time on the
//      checked 1D and 2D machine programs and their ratio (medians of
//      five interleaved repetitions, with the min-max spread), and the
//      census_agreement_within_0 bar per machine (1 iff every
//      certificate count equals the census count; CI enforces it);
//   2. lint counts over the standard constructions.
//
// Emits BENCH_verify.json.
#include <algorithm>
#include <array>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "detect/checker.h"
#include "ft/detect_experiment.h"
#include "ft/ec_circuit.h"
#include "local/checked_machine.h"
#include "rev/circuit.h"
#include "support/table.h"
#include "verify/certify.h"
#include "verify/dataflow.h"
#include "verify/lint.h"

using namespace revft;

namespace {

/// A 5-bit workload with MAJ/Toffoli/routing traffic, so the machines
/// route heavily and the census has 32 inputs to grind through — the
/// certificate's walk count is input-independent, which is exactly the
/// asymmetry this table prices.
Circuit workload() {
  Circuit logical(5);
  logical.maj(4, 1, 0)
      .toffoli(0, 2, 4)
      .fredkin(1, 3, 2)
      .majinv(4, 3, 0)
      .swap3(0, 2, 4);
  return logical;
}

// --- certificate vs census ------------------------------------------

/// The census' scenario-count fields, in one comparable array (the
/// certifier leaves rail_detected empty).
std::array<std::uint64_t, 7> count_fields(const detect::DetectionCensus& c) {
  return {c.fault_sites,       c.scenarios,        c.benign_skipped,
          c.harmless,          c.detected_harmless, c.detected_harmful,
          c.silent_harmful};
}

void bench_certificate(const char* label, const CheckedMachineProgram& program,
                       const Circuit& logical, AsciiTable& table,
                       benchutil::JsonResultWriter& json) {
  // One call of each takes about 0.1-0.2 s, so one repetition says
  // little. One time_interleaved call times both in five repetitions
  // (the order alternating between them); the table reports medians
  // and the min-max spread.
  constexpr int kReps = 5;
  verify::FaultSecurityCertificate cert;
  detect::DetectionCensus census;
  const benchutil::Timing t = benchutil::time_interleaved(
      {{1.0, [&] { cert = verify::certify_machine_program(program, logical); }},
       {1.0, [&] { census = machine_detection_census(program, logical); }}},
      kReps, 1);
  std::vector<double> cert_s, census_s, speedups;
  for (int rep = 0; rep < kReps; ++rep) {
    cert_s.push_back(t.rep_ns[0][static_cast<std::size_t>(rep)] * 1e-9);
    census_s.push_back(t.rep_ns[1][static_cast<std::size_t>(rep)] * 1e-9);
    speedups.push_back(census_s.back() / cert_s.back());
  }
  for (auto* v : {&cert_s, &census_s, &speedups})
    std::sort(v->begin(), v->end());
  const auto median_and_spread = [](const std::vector<double>& v) {
    return AsciiTable::fixed(v[kReps / 2], 3) + " (" +
           AsciiTable::fixed(v[0], 3) + "-" +
           AsciiTable::fixed(v[kReps - 1], 3) + ")";
  };
  const double t_cert = cert_s[kReps / 2];
  const double t_census = census_s[kReps / 2];
  const double speedup = speedups[kReps / 2];
  const bool agree = count_fields(cert.counts) == count_fields(census);
  table.add_row({label, AsciiTable::cell(cert.counts.fault_sites),
                 AsciiTable::cell(census.scenarios),
                 median_and_spread(cert_s), median_and_spread(census_s),
                 median_and_spread(speedups),
                 agree ? "yes" : "NO",
                 census.fault_secure() ? "yes" : "NO"});
  json.add(label, "fault_sites", cert.counts.fault_sites);
  json.add(label, "census_scenarios", census.scenarios);
  json.add(label, "certify_seconds", t_cert);
  json.add(label, "census_seconds", t_census);
  json.add(label, "speedup", speedup);
  json.add(label, "fault_secure", census.fault_secure() ? 1.0 : 0.0);
  json.add(label, "census_agreement_within_0", agree ? 1.0 : 0.0);
}

// --- lint counts -----------------------------------------------------

void bench_lint(const CheckedMachineProgram& p1d,
                const CheckedMachineProgram& p2d,
                benchutil::JsonResultWriter& json) {
  benchutil::print_header("Lint pass over the standard constructions",
                          "verify/lint.h — static diagnostics, no simulation");
  const EcStage stage = make_fig2_ec(true);
  detect::ParityRailOptions cycle_opts;
  cycle_opts.check_every = 1;
  cycle_opts.known_zero = detect::known_zero_outside(
      9, {stage.before.data[0], stage.before.data[1], stage.before.data[2]});
  std::vector<verify::Poly> cycle_entry(9, verify::Poly::zero());
  for (const auto bit : stage.before.data)
    cycle_entry[bit] = verify::Poly::var(0);

  struct Row {
    const char* label;
    verify::LintReport report;
  };
  const Row rows[] = {
      {"maj_cycle",
       verify::lint_checked_circuit(
           detect::to_parity_rail(stage.circuit, cycle_opts), cycle_entry)},
      {"machine_1d",
       verify::lint_checked_circuit(p1d.checked, verify::machine_entry(p1d))},
      {"machine_2d",
       verify::lint_checked_circuit(p2d.checked, verify::machine_entry(p2d))},
  };
  AsciiTable table({"construction", "errors", "warnings", "infos"});
  for (const Row& row : rows) {
    table.add_row({row.label, AsciiTable::cell(row.report.errors()),
                   AsciiTable::cell(row.report.warnings()),
                   AsciiTable::cell(row.report.infos())});
    json.add(row.label, "lint_errors", row.report.errors());
    json.add(row.label, "lint_warnings", row.report.warnings());
    json.add(row.label, "lint_infos", row.report.infos());
  }
  std::printf("%s", table.str().c_str());
  std::printf(
      "errors would mean a broken construction; the machines' warnings are\n"
      "the routing-glued replay components BENCH_recover prices.\n\n");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::reject_args(argc, argv);
  benchutil::JsonResultWriter json("verify");
  const Circuit logical = workload();
  const auto p1d = CheckedMachine1d(logical.width()).compile(logical);
  const auto p2d = CheckedMachine2d(logical.width()).compile(logical);

  benchutil::print_header(
      "Static fault-security certificates vs the exhaustive census",
      "src/verify/ — the census' counts, one delta-cone walk per fault");
  AsciiTable table({"program", "sites", "census scen.",
                    "certify s (min-max)", "census s (min-max)",
                    "speedup (min-max)", "agree", "secure"});
  bench_certificate("certify_1d", p1d, logical, table, json);
  bench_certificate("certify_2d", p2d, logical, table, json);
  std::printf("%s\n", table.str().c_str());

  bench_lint(p1d, p2d, json);
  json.write();
  return 0;
}
