// Tests for src/verify/: the GF(2) polynomial engine and its
// brute-force equivalence with the simulator over every gate kind, the
// static dataflow's invariant discovery on the MAJ recovery cycle, the
// symbolic fault-security certifier (pinned residue, field-by-field
// agreement with the exhaustive census on the cycle and the checked
// 1D/2D machine programs), the restricted census, and the lint pass on
// clean and deliberately doctored configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "detect/checker.h"
#include "detect/rail.h"
#include "ft/detect_experiment.h"
#include "ft/ec_circuit.h"
#include "local/checked_machine.h"
#include "noise/injection.h"
#include "recover/plan.h"
#include "rev/circuit.h"
#include "rev/simulator.h"
#include "support/error.h"
#include "support/rng.h"
#include "verify/certify.h"
#include "verify/dataflow.h"
#include "verify/lint.h"

namespace revft {
namespace {

using verify::CheckStatus;
using verify::DataflowOptions;
using verify::Poly;

constexpr GateKind kAllKinds[] = {
    GateKind::kNot,     GateKind::kCnot,    GateKind::kSwap,
    GateKind::kToffoli, GateKind::kFredkin, GateKind::kSwap3,
    GateKind::kMaj,     GateKind::kMajInv,  GateKind::kInit3,
    GateKind::kF2g,     GateKind::kNft};

static_assert(static_cast<int>(std::size(kAllKinds)) == kNumGateKinds,
              "test table must cover every kind");

// --- polynomial engine ----------------------------------------------

TEST(VerifyPoly, AlgebraBasics) {
  const DataflowOptions opts;
  const Poly x = Poly::var(0);
  const Poly y = Poly::var(1);
  EXPECT_TRUE(poly_xor(x, x, opts).is_zero());       // x ^ x = 0
  EXPECT_EQ(poly_and(x, x, opts), x);                // x · x = x
  EXPECT_EQ(poly_and(x, Poly::one(), opts), x);      // x · 1 = x
  EXPECT_TRUE(poly_and(x, Poly::zero(), opts).is_zero());
  const Poly xy = poly_and(x, y, opts);
  EXPECT_EQ(xy.degree(), 2);
  EXPECT_EQ(xy.term_count(), 1u);
  // (x ^ y)(x ^ y) = x ^ y over GF(2) (Frobenius).
  const Poly s = poly_xor(x, y, opts);
  EXPECT_EQ(poly_and(s, s, opts), s);
  // (x ^ 1) · x = x·x ^ x = 0.
  EXPECT_TRUE(poly_and(poly_xor(x, Poly::one(), opts), x, opts).is_zero());
}

TEST(VerifyPoly, TopPropagationAndZeroAnnihilation) {
  const DataflowOptions opts;
  const Poly t = Poly::top();
  EXPECT_TRUE(poly_xor(t, Poly::var(3), opts).is_top());
  EXPECT_TRUE(poly_and(t, Poly::var(3), opts).is_top());
  EXPECT_TRUE(poly_and(t, Poly::zero(), opts).is_zero());  // 0 kills top
  EXPECT_TRUE(poly_and(Poly::zero(), t, opts).is_zero());
  EXPECT_THROW((void)t.eval(0), Error);
}

TEST(VerifyPoly, BudgetCollapsesToTop) {
  DataflowOptions tight;
  tight.max_degree = 2;
  // x0·x1 fits the degree budget; (x0·x1)·x2 exceeds it.
  const Poly xy = poly_and(Poly::var(0), Poly::var(1), tight);
  ASSERT_FALSE(xy.is_top());
  EXPECT_TRUE(poly_and(xy, Poly::var(2), tight).is_top());
  DataflowOptions small;
  small.max_terms = 2;
  const Poly three = Poly::from_monomials({1, 2, 4});  // x0 ^ x1 ^ x2
  EXPECT_TRUE(poly_xor(three, Poly::one(), small).is_top());
}

TEST(VerifyPoly, GateOutputAnfMatchesTruthTable) {
  for (const GateKind kind : kAllKinds) {
    const int n = gate_arity(kind);
    for (int out = 0; out < n; ++out) {
      const unsigned anf = gate_output_anf(kind, out);
      for (unsigned x = 0; x < (1u << n); ++x) {
        unsigned value = 0;
        for (unsigned m = 0; m < (1u << n); ++m)
          if (((anf >> m) & 1u) && (x & m) == m) value ^= 1u;
        EXPECT_EQ(value, (gate_apply_local(kind, x) >> out) & 1u)
            << gate_name(kind) << " out " << out << " at " << x;
      }
      // §2's structural fact: every primitive output has degree <= 2.
      for (unsigned m = 0; m < (1u << n); ++m)
        if ((anf >> m) & 1u) {
          EXPECT_LE(std::popcount(m), 2) << gate_name(kind);
        }
    }
  }
}

// --- dataflow vs brute force ----------------------------------------

Circuit random_circuit(std::uint32_t width, std::size_t ops, Xoshiro256& rng) {
  Circuit circuit(width);
  while (circuit.size() < ops) {
    const GateKind kind =
        kAllKinds[rng.next_below(static_cast<std::uint64_t>(kNumGateKinds))];
    const int n = gate_arity(kind);
    std::array<std::uint32_t, 3> bits{};
    bool distinct = true;
    for (int k = 0; k < n; ++k) {
      bits[static_cast<std::size_t>(k)] =
          static_cast<std::uint32_t>(rng.next_below(width));
      for (int j = 0; j < k; ++j)
        if (bits[static_cast<std::size_t>(j)] ==
            bits[static_cast<std::size_t>(k)])
          distinct = false;
    }
    if (!distinct) continue;
    circuit.push(Gate{kind, bits});
  }
  return circuit;
}

/// Every non-top exit form must EXACTLY equal the simulated bit on
/// every input — the soundness contract, under default and
/// deliberately starved budgets alike.
void expect_dataflow_exact(const Circuit& circuit,
                           const DataflowOptions& opts) {
  const auto flow = verify::analyze_dataflow(
      circuit, verify::identity_entry(circuit.width()), opts);
  const auto& exit = flow.exit_state();
  for (std::uint64_t x = 0; x < (1ull << circuit.width()); ++x) {
    const std::uint64_t out = simulate(circuit, x);
    for (std::uint32_t c = 0; c < circuit.width(); ++c) {
      if (exit[c].is_top()) continue;
      EXPECT_EQ(exit[c].eval(x), ((out >> c) & 1ull) != 0)
          << "cell " << c << " input " << x;
    }
  }
}

TEST(VerifyDataflow, ExactOnRandomCircuitsAllKinds) {
  Xoshiro256 rng(0x5eedf10bULL);
  for (int trial = 0; trial < 12; ++trial) {
    const std::uint32_t width =
        4 + static_cast<std::uint32_t>(rng.next_below(7));  // 4..10
    const Circuit circuit = random_circuit(width, 5 * width, rng);
    DataflowOptions generous;
    generous.max_degree = 16;
    generous.max_terms = 4096;
    expect_dataflow_exact(circuit, generous);
  }
}

TEST(VerifyDataflow, StarvedBudgetStaysSound) {
  Xoshiro256 rng(0xb0d6e7ULL);
  DataflowOptions starved;
  starved.max_degree = 2;
  starved.max_terms = 6;
  std::uint64_t tops = 0;
  for (int trial = 0; trial < 8; ++trial) {
    const Circuit circuit = random_circuit(8, 48, rng);
    expect_dataflow_exact(circuit, starved);
    tops += verify::analyze_dataflow(circuit, verify::identity_entry(8),
                                     starved)
                .top_events;
  }
  // The starved budget must actually bite for this to test anything.
  EXPECT_GT(tops, 0u);
}

// --- invariant discovery on the MAJ cycle ---------------------------

struct CycleFixture {
  EcStage stage = make_fig2_ec(/*with_init=*/true);
  detect::CheckedCircuit checked;
  std::vector<Poly> entry;

  explicit CycleFixture(
      const std::vector<std::vector<std::uint32_t>>& partition = {}) {
    detect::ParityRailOptions opts;
    opts.check_every = 1;
    opts.rail_partition = partition;
    checked = detect::to_parity_rail(stage.circuit, opts);
    entry.assign(9, Poly::zero());
    for (const std::uint32_t bit : stage.before.data)
      entry[bit] = Poly::var(0);
  }
};

TEST(VerifyDataflow, MajCycleInvariantsProvenStatically) {
  const CycleFixture fix;
  const auto df = verify::analyze_checked(fix.checked, fix.entry);
  EXPECT_TRUE(df.all_proven());
  EXPECT_EQ(df.proven_rail_invariants(), df.rail_reports.size());
  EXPECT_EQ(df.flow.top_events, 0u);

  // Discovery: the recovered codeword (0,3,6) plus the parity rail all
  // carry the logical bit — one equality class; the six syndrome
  // cells are proven clean.
  const auto& exit = df.flow.exit_state();
  for (const std::uint32_t bit : fix.stage.after.data)
    EXPECT_EQ(exit[bit], Poly::var(0)) << "cell " << bit;
  EXPECT_EQ(exit[fix.checked.parity_rail], Poly::var(0));
  const auto zeros = df.flow.zero_cells();
  EXPECT_EQ(zeros.size(), 6u);  // the syndrome cells
  const auto classes = df.flow.equal_classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0],
            (std::vector<std::uint32_t>{0, 3, 6, fix.checked.parity_rail}));
}

// --- certifier -------------------------------------------------------

void expect_census_counts_eq(const detect::DetectionCensus& a,
                             const detect::DetectionCensus& b) {
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.benign_skipped, b.benign_skipped);
  EXPECT_EQ(a.harmless, b.harmless);
  EXPECT_EQ(a.detected_harmless, b.detected_harmless);
  EXPECT_EQ(a.detected_harmful, b.detected_harmful);
  EXPECT_EQ(a.silent_harmful, b.silent_harmful);
}

detect::DetectionCensus census_sum(const detect::DetectionCensus& a,
                                   const detect::DetectionCensus& b) {
  detect::DetectionCensus sum = a;
  sum.scenarios += b.scenarios;
  sum.benign_skipped += b.benign_skipped;
  sum.harmless += b.harmless;
  sum.detected_harmless += b.detected_harmless;
  sum.detected_harmful += b.detected_harmful;
  sum.silent_harmful += b.silent_harmful;
  return sum;
}

TEST(VerifyCertify, MajCycleCertificatePinned) {
  const CycleFixture fix;
  const auto cert = verify::certify_single_faults(
      fix.checked, fix.entry, {0, 1},
      {{fix.stage.after.data[0], fix.stage.after.data[1],
        fix.stage.after.data[2]}});

  // Over ONE entry variable every form stays within any budget, so the
  // certificate decides every scenario: the residue is exactly empty —
  // pinned, the census has nothing left to do.
  EXPECT_EQ(cert.residue.size(), 0u);
  EXPECT_EQ(cert.certified_sites, cert.fault_sites);
  EXPECT_DOUBLE_EQ(cert.site_coverage(), 1.0);
  EXPECT_TRUE(cert.statically_secure());

  // The certificate must agree with the exhaustive dynamic census
  // field by field (the residue census adds nothing here).
  const auto full = checked_maj_cycle_census(/*embed_checkers=*/false);
  expect_census_counts_eq(full, cert.static_counts);
  EXPECT_EQ(full.fault_sites, cert.static_counts.fault_sites);
}

TEST(VerifyCertify, MajCyclePartitionedCertificateAgreesToo) {
  const std::vector<std::vector<std::uint32_t>> blocks = {
      {0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  const CycleFixture fix(blocks);
  const auto cert = verify::certify_single_faults(
      fix.checked, fix.entry, {0, 1},
      {{fix.stage.after.data[0], fix.stage.after.data[1],
        fix.stage.after.data[2]}});
  EXPECT_EQ(cert.residue.size(), 0u);
  const auto full = checked_maj_cycle_census(false, blocks);
  expect_census_counts_eq(full, cert.static_counts);
}

/// The acceptance-criterion harness: certify a machine program, check
/// coverage, and enforce full == static + restricted(residue).
void expect_machine_certificate_agrees(const CheckedMachineProgram& program,
                                       const Circuit& logical,
                                       double min_site_coverage) {
  const auto mc = verify::certify_machine_program(program, logical);
  const auto& cert = mc.certificate;
  EXPECT_GE(cert.site_coverage(), min_site_coverage);

  const auto full = machine_detection_census(program, logical);
  const auto is_error = [&](const StateVector& out, std::size_t in) {
    for (std::uint32_t i = 0; i < logical.width(); ++i) {
      const auto& cw = program.output_cells[i];
      const int sum = out.bit(cw[0]) + out.bit(cw[1]) + out.bit(cw[2]);
      if ((sum >= 2) != (((mc.expected[in] >> i) & 1ull) != 0)) return true;
    }
    return false;
  };
  const auto residue = detect::single_fault_detection_census(
      program.checked, mc.data_inputs, is_error, cert.residue);
  expect_census_counts_eq(full, census_sum(cert.static_counts, residue));
  // And the security verdicts coincide.
  EXPECT_EQ(full.fault_secure(),
            cert.statically_secure() && residue.silent_harmful == 0);
}

TEST(VerifyCertify, Checked1dMachineMostlyStatic) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine1d(3).compile(logical);
  expect_machine_certificate_agrees(program, logical, 0.90);
}

TEST(VerifyCertify, Checked2dMachineMostlyStatic) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine2d(3).compile(logical);
  expect_machine_certificate_agrees(program, logical, 0.90);
}

TEST(VerifyCertify, GlobalRailGapFoundStatically) {
  // The negative control of test_local_checked: a global rail with no
  // zero checks is NOT fault-secure in 1D. The certificate must find
  // concrete silent-harmful scenarios, and agree with the census.
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  CheckedMachineOptions opts;
  opts.rails = RailGranularity::kGlobal;
  opts.zero_checks = false;
  opts.check_every = 1;
  const auto program = CheckedMachine1d(3, true, opts).compile(logical);
  const auto mc = verify::certify_machine_program(program, logical);
  EXPECT_GT(mc.certificate.static_counts.silent_harmful, 0u);
  EXPECT_FALSE(mc.certificate.statically_secure());
  ASSERT_FALSE(mc.certificate.insecure_examples.empty());
  // Replay one statically found counterexample dynamically: silent and
  // harmful, exactly as certified.
  const auto& ex = mc.certificate.insecure_examples.front();
  const auto run = detect::checked_run_with_faults(
      program.checked, mc.data_inputs[ex.input], {ex.fault});
  EXPECT_FALSE(run.detected);
  bool wrong = false;
  for (std::uint32_t i = 0; i < logical.width(); ++i) {
    const auto& cw = program.output_cells[i];
    const int sum = run.state.bit(cw[0]) + run.state.bit(cw[1]) +
                    run.state.bit(cw[2]);
    if ((sum >= 2) != (((mc.expected[ex.input] >> i) & 1ull) != 0))
      wrong = true;
  }
  EXPECT_TRUE(wrong);
  expect_machine_certificate_agrees(program, logical, 0.0);
}

// --- the packed census against a scalar reference ---------------------

/// One single-fault checked run on the scalar simulator, written apart
/// from the packed walker the census uses: op `fault.op_index` has its
/// operands overwritten instead of applied, zero checks are read right
/// after their op, rail invariants at every checkpoint and embedded
/// check bits at the end.
detect::CheckedRunResult scalar_checked_run(
    const detect::CheckedCircuit& checked, const StateVector& data_input,
    const FaultSpec& fault) {
  detect::CheckedRunResult run{detect::widen_input(checked, data_input),
                               false,
                               std::vector<std::uint8_t>(checked.rails.size())};
  StateVector& state = run.state;
  std::size_t zc = 0;
  std::size_t cp = 0;
  for (std::size_t i = 0; i < checked.circuit.size(); ++i) {
    const Gate& g = checked.circuit.op(i);
    if (i == fault.op_index) {
      for (int k = 0; k < g.arity(); ++k)
        state.set_bit(g.bits[static_cast<std::size_t>(k)],
                      static_cast<std::uint8_t>((fault.corrupted_local >> k) &
                                                1u));
    } else {
      state.apply(g);
    }
    for (; zc < checked.zero_checks.size() &&
           checked.zero_checks[zc].op_index == i;
         ++zc)
      for (const std::uint32_t bit : checked.zero_checks[zc].bits)
        if (state.bit(bit) != 0) run.detected = true;
    for (; cp < checked.checkpoints.size() && checked.checkpoints[cp] == i;
         ++cp)
      for (std::size_t r = 0; r < checked.rails.size(); ++r)
        if (detect::rail_invariant(state, checked.rails[r].rail_bit,
                                   checked.checkpoint_spans[cp].group(r)) !=
            0) {
          run.rail_fired[r] = 1;
          run.detected = true;
        }
  }
  for (const std::uint32_t bit : checked.check_bits)
    if (state.bit(bit) != 0) run.detected = true;
  return run;
}

/// The census against one scalar reference run per pruned single
/// fault, on every count, the per-rail detections included.
void expect_packed_census_matches_scalar(
    const detect::CheckedCircuit& checked,
    const std::vector<StateVector>& inputs,
    const std::function<bool(const StateVector&, std::size_t)>& is_error) {
  const auto packed =
      detect::single_fault_detection_census(checked, inputs, is_error);

  detect::DetectionCensus scalar;
  const FaultSites sites = count_fault_sites(checked.circuit);
  scalar.fault_sites = sites.sites;
  scalar.rail_detected.assign(checked.rails.size(), 0);
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    const StateVector wide = detect::widen_input(checked, inputs[in]);
    const auto faults = enumerate_single_faults(checked.circuit, wide, true);
    scalar.benign_skipped += sites.scenarios - faults.size();
    for (const FaultSpec& fault : faults) {
      ++scalar.scenarios;
      const auto run = scalar_checked_run(checked, inputs[in], fault);
      const bool wrong = is_error(run.state, in);
      if (run.detected)
        ++(wrong ? scalar.detected_harmful : scalar.detected_harmless);
      else
        ++(wrong ? scalar.silent_harmful : scalar.harmless);
      for (std::size_t r = 0; r < run.rail_fired.size(); ++r)
        scalar.rail_detected[r] += run.rail_fired[r];
    }
  }
  EXPECT_GT(packed.total_rail_detected(), 0u);  // not a vacuous compare
  expect_census_counts_eq(scalar, packed);
  EXPECT_EQ(scalar.fault_sites, packed.fault_sites);
  EXPECT_EQ(scalar.rail_detected, packed.rail_detected);
}

TEST(VerifyCensus, PackedCensusMatchesScalarReference) {
  const CycleFixture fix;
  std::vector<StateVector> inputs;
  for (int logical = 0; logical <= 1; ++logical) {
    StateVector sv(9);
    for (const auto bit : fix.stage.before.data)
      sv.set_bit(bit, static_cast<std::uint8_t>(logical));
    inputs.push_back(std::move(sv));
  }
  const auto is_error = [&](const StateVector& out, std::size_t input) {
    const int sum = out.bit(fix.stage.after.data[0]) +
                    out.bit(fix.stage.after.data[1]) +
                    out.bit(fix.stage.after.data[2]);
    return (sum >= 2) != (input != 0);
  };
  expect_packed_census_matches_scalar(fix.checked, inputs, is_error);

  // With embedded checkers, so the end-of-run check bits count too.
  detect::ParityRailOptions embedded;
  embedded.check_every = 1;
  embedded.embed_checkers = true;
  const auto with_checkers =
      detect::to_parity_rail(fix.stage.circuit, embedded);
  ASSERT_FALSE(with_checkers.check_bits.empty());
  expect_packed_census_matches_scalar(with_checkers, inputs, is_error);

  // The checked 1D machine: several rails, membership migrated by
  // SWAP/SWAP3 routing, zero checks between rail checkpoints.
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine1d(3).compile(logical);
  ASSERT_GT(program.checked.rails.size(), 1u);
  ASSERT_FALSE(program.checked.zero_checks.empty());
  std::vector<StateVector> machine_inputs;
  std::vector<std::uint64_t> expected;
  for (std::uint64_t a = 0; a < 8; ++a) {
    StateVector sv(program.checked.data_width);
    for (std::uint32_t j = 0; j < 3; ++j)
      for (const std::uint32_t cell : program.input_cells[j])
        sv.set_bit(cell, static_cast<std::uint8_t>((a >> j) & 1u));
    machine_inputs.push_back(std::move(sv));
    expected.push_back(simulate(logical, a));
  }
  const auto machine_error = [&](const StateVector& out, std::size_t in) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      const auto& cw = program.output_cells[i];
      const int sum = out.bit(cw[0]) + out.bit(cw[1]) + out.bit(cw[2]);
      if ((sum >= 2) != (((expected[in] >> i) & 1u) != 0)) return true;
    }
    return false;
  };
  expect_packed_census_matches_scalar(program.checked, machine_inputs,
                                      machine_error);
}

TEST(VerifyCensus, RestrictedOverAllScenariosEqualsFull) {
  const CycleFixture fix;
  std::vector<StateVector> inputs;
  for (int logical = 0; logical <= 1; ++logical) {
    StateVector sv(9);
    for (const auto bit : fix.stage.before.data)
      sv.set_bit(bit, static_cast<std::uint8_t>(logical));
    inputs.push_back(std::move(sv));
  }
  const auto is_error = [&](const StateVector& out, std::size_t input) {
    const int sum = out.bit(fix.stage.after.data[0]) +
                    out.bit(fix.stage.after.data[1]) +
                    out.bit(fix.stage.after.data[2]);
    return (sum >= 2) != (input != 0);
  };
  const auto full =
      detect::single_fault_detection_census(fix.checked, inputs, is_error);
  const auto all = enumerate_single_faults(fix.checked.circuit);
  const auto restricted = detect::single_fault_detection_census(
      fix.checked, inputs, is_error, all);
  expect_census_counts_eq(full, restricted);
  EXPECT_EQ(full.fault_sites, restricted.fault_sites);
}

// --- lint ------------------------------------------------------------

TEST(VerifyLint, CleanConstructionsHaveNoErrors) {
  const CycleFixture cycle;
  const auto cycle_report =
      verify::lint_checked_circuit(cycle.checked, cycle.entry);
  EXPECT_EQ(cycle_report.errors(), 0u);

  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine1d(3).compile(logical);
  std::vector<Poly> entry(program.checked.data_width, Poly::zero());
  for (std::uint32_t j = 0; j < 3; ++j)
    for (const std::uint32_t cell : program.input_cells[j])
      entry[cell] = Poly::var(static_cast<int>(j));
  const auto report = verify::lint_checked_circuit(program.checked, entry);
  EXPECT_EQ(report.errors(), 0u);
}

std::size_t count_code(const verify::LintReport& report,
                       verify::LintCode code) {
  std::size_t n = 0;
  for (const auto& f : report.findings)
    if (f.code == code) ++n;
  return n;
}

TEST(VerifyLint, RailCoverageHoleReported) {
  // A partition watching only bits {0,1,2} of the 9-cell cycle leaves
  // six cells unwatched.
  const CycleFixture fix({{0, 1, 2}});
  const auto report = verify::lint_checked_circuit(fix.checked, fix.entry);
  ASSERT_EQ(count_code(report, verify::LintCode::kRailCoverageHole), 1u);
  for (const auto& f : report.findings)
    if (f.code == verify::LintCode::kRailCoverageHole) {
      EXPECT_EQ(f.cells.size(), 6u);
    }
}

TEST(VerifyLint, DeadCompensationFoundWithoutKnownZeroElision) {
  // Without the known-zero promise the transform emits encoder /
  // compensation gates reading cells that are provably zero under the
  // cycle's actual entry binding — the lint names the elision the
  // transform missed.
  const CycleFixture fix;  // no known_zero armed
  const auto report = verify::lint_checked_circuit(fix.checked, fix.entry);
  const std::size_t unelided =
      count_code(report, verify::LintCode::kDeadCompensation);
  EXPECT_GT(unelided, 0u);
  // With the promise armed, the transform removes (at least) the
  // entry-fact deaths the lint flagged.
  detect::ParityRailOptions elide;
  elide.check_every = 1;
  elide.known_zero = detect::known_zero_outside(
      9, {fix.stage.before.data[0], fix.stage.before.data[1],
          fix.stage.before.data[2]});
  const auto elided = detect::to_parity_rail(fix.stage.circuit, elide);
  const auto elided_report =
      verify::lint_checked_circuit(elided, fix.entry);
  EXPECT_LT(count_code(elided_report, verify::LintCode::kDeadCompensation),
            unelided);
}

TEST(VerifyLint, DoctoredMembershipIsAnError) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine1d(3).compile(logical);
  detect::CheckedCircuit doctored = program.checked;
  // Swap two cells between the first checkpoint's first two groups.
  auto& span = doctored.checkpoint_spans.front();
  ASSERT_GE(span.rail_first.size(), 3u);
  const auto g0 = span.bits.begin() + span.rail_first[0];
  const auto g1 = span.bits.begin() + span.rail_first[1];
  const auto g2 = span.bits.begin() + span.rail_first[2];
  ASSERT_LT(g0, g1);
  ASSERT_LT(g1, g2);
  std::swap(*g0, *g1);
  std::sort(g0, g1);
  std::sort(g1, g2);
  std::vector<Poly> entry(doctored.data_width, Poly::zero());
  for (std::uint32_t j = 0; j < 3; ++j)
    for (const std::uint32_t cell : program.input_cells[j])
      entry[cell] = Poly::var(static_cast<int>(j));
  const auto report = verify::lint_checked_circuit(doctored, entry);
  EXPECT_GT(count_code(report, verify::LintCode::kMembershipMismatch), 0u);
  EXPECT_GT(report.errors(), 0u);
}

TEST(VerifyLint, SpuriousZeroCheckIsAnError) {
  const CycleFixture fix;
  detect::CheckedCircuit doctored = fix.checked;
  // "Assert" the data cell that carries the logical bit is zero at the
  // end — provably false on input 1.
  detect::add_zero_check(doctored, fix.stage.circuit.size() - 1,
                         {fix.stage.after.data[0]});
  const auto report = verify::lint_checked_circuit(doctored, fix.entry);
  EXPECT_GT(count_code(report, verify::LintCode::kSpuriousCheck), 0u);
  EXPECT_GT(report.errors(), 0u);
}

TEST(VerifyLint, GluedReplayComponentsSurfaceStraddlers) {
  // The per-block 1D machine's routing glues rails within segments —
  // the mean_max_replay_share pathology. The lint must surface it with
  // the straddling ops attached, and the straddlers must be exactly
  // where glued components exist.
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine1d(3).compile(logical);
  std::vector<Poly> entry(program.checked.data_width, Poly::zero());
  for (std::uint32_t j = 0; j < 3; ++j)
    for (const std::uint32_t cell : program.input_cells[j])
      entry[cell] = Poly::var(static_cast<int>(j));
  const auto report = verify::lint_checked_circuit(program.checked, entry);
  const auto plan = recover::build_segment_plan(program.checked);
  std::size_t glued_segments = 0;
  for (const auto& seg : plan.segments) {
    bool glued = false;
    for (const auto& comp : seg.components)
      if (comp.rails.size() >= 2) glued = true;
    if (glued) {
      ++glued_segments;
      EXPECT_FALSE(seg.straddling_ops.empty());
    }
  }
  EXPECT_EQ(count_code(report, verify::LintCode::kGluedReplayComponents),
            glued_segments);
  EXPECT_GT(glued_segments, 0u);
}

}  // namespace
}  // namespace revft
