// Tests for src/verify/: the GF(2) polynomial engine and its
// brute-force equivalence with the simulator over every gate kind, the
// static dataflow's invariant discovery on the MAJ recovery cycle, the
// fault-security certifier (census == certificate field by field on
// the cycle, the checked 1D/2D machine programs — NOT and init ones,
// whose idle lanes leave zero, included — and every unarmed option
// combination, with each kept counterexample replayed), the
// packed census against a scalar reference, and the lint pass on clean
// and deliberately doctored configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "detect/checked_mc.h"
#include "detect/checker.h"
#include "detect/rail.h"
#include "ft/detect_experiment.h"
#include "ft/ec_circuit.h"
#include "local/checked_machine.h"
#include "noise/injection.h"
#include "recover/plan.h"
#include "recover/recovering_mc.h"
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
  /// The census' inputs: logical 0 and 1 on the data triple.
  std::vector<StateVector> inputs{StateVector(9), StateVector(9)};

  explicit CycleFixture(
      const std::vector<std::vector<std::uint32_t>>& partition = {}) {
    detect::ParityRailOptions opts;
    opts.check_every = 1;
    opts.rail_partition = partition;
    checked = detect::to_parity_rail(stage.circuit, opts);
    entry.assign(9, Poly::zero());
    for (const std::uint32_t bit : stage.before.data) {
      entry[bit] = Poly::var(0);
      inputs[1].set_bit(bit, 1);
    }
  }

  std::vector<std::array<std::uint32_t, 3>> codewords() const {
    return {{stage.after.data[0], stage.after.data[1], stage.after.data[2]}};
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
  const std::uint32_t rail_bit = fix.checked.rails[0].rail_bit;
  for (const std::uint32_t bit : fix.stage.after.data)
    EXPECT_EQ(exit[bit], Poly::var(0)) << "cell " << bit;
  EXPECT_EQ(exit[rail_bit], Poly::var(0));
  const auto zeros = df.flow.zero_cells();
  EXPECT_EQ(zeros.size(), 6u);  // the syndrome cells
  const auto classes = df.flow.equal_classes();
  ASSERT_EQ(classes.size(), 1u);
  EXPECT_EQ(classes[0], (std::vector<std::uint32_t>{0, 3, 6, rail_bit}));
}

// --- certifier -------------------------------------------------------

void expect_census_counts_eq(const detect::DetectionCensus& a,
                             const detect::DetectionCensus& b) {
  EXPECT_EQ(a.fault_sites, b.fault_sites);
  EXPECT_EQ(a.scenarios, b.scenarios);
  EXPECT_EQ(a.benign_skipped, b.benign_skipped);
  EXPECT_EQ(a.harmless, b.harmless);
  EXPECT_EQ(a.detected_harmless, b.detected_harmless);
  EXPECT_EQ(a.detected_harmful, b.detected_harmful);
  EXPECT_EQ(a.silent_harmful, b.silent_harmful);
}

TEST(VerifyCertify, MajCycleCertificateEqualsCensus) {
  const CycleFixture fix;
  const auto cert =
      verify::certify_single_faults(fix.checked, fix.inputs, fix.codewords());
  EXPECT_TRUE(cert.statically_secure());
  EXPECT_TRUE(cert.insecure_examples.empty());
  expect_census_counts_eq(checked_maj_cycle_census(), cert.counts);
}

TEST(VerifyCertify, MajCyclePartitionedCertificateAgreesToo) {
  const std::vector<std::vector<std::uint32_t>> blocks = {
      {0, 1, 2}, {3, 4, 5}, {6, 7, 8}};
  const CycleFixture fix(blocks);
  const auto cert =
      verify::certify_single_faults(fix.checked, fix.inputs, fix.codewords());
  expect_census_counts_eq(checked_maj_cycle_census(blocks), cert.counts);
}

/// The certificate's contract on a machine program: census ==
/// certificate field by field, and every kept counterexample replays
/// through checked_run as silent and harmful.
verify::FaultSecurityCertificate expect_machine_certificate_agrees(
    const CheckedMachineProgram& program, const Circuit& logical) {
  const auto cert = verify::certify_machine_program(program, logical);
  const auto census = machine_detection_census(program, logical);
  expect_census_counts_eq(census, cert.counts);
  EXPECT_EQ(census.fault_secure(), cert.statically_secure());
  EXPECT_EQ(cert.insecure_examples.size(),
            std::min<std::uint64_t>(
                cert.counts.silent_harmful,
                verify::FaultSecurityCertificate::kMaxInsecureExamples));
  for (const auto& ex : cert.insecure_examples) {
    const auto run = detect::checked_run(
        program.checked, machine_data_input(program, ex.input), {ex.fault});
    EXPECT_FALSE(run.detected) << "op " << ex.fault.op_index << " input "
                               << ex.input;
    EXPECT_NE(machine_decode(program, run.state),
              simulate(logical, ex.input))
        << "op " << ex.fault.op_index << " input " << ex.input;
  }
  return cert;
}

/// The routed Toffoli, and a NOT/init program: NOT and init drive the
/// clean run of the lanes past the last input away from zero (a NOT
/// turns the all-zero state's data cells to one), so only there does a
/// certifier that forgets to mask its words to the input lanes count
/// phantom scenarios.
std::vector<Circuit> certified_machine_programs() {
  std::vector<Circuit> programs(2, Circuit(3));
  programs[0].toffoli(2, 1, 0);
  programs[1].not_(1).init3(0, 1, 2).not_(0);
  return programs;
}

TEST(VerifyCertify, Checked1dMachineCertificateEqualsCensus) {
  for (const Circuit& logical : certified_machine_programs())
    expect_machine_certificate_agrees(CheckedMachine1d(3).compile(logical),
                                      logical);
  // The clean-run check refuses a circuit the program does not compute.
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  Circuit other(3);
  other.toffoli(0, 1, 2);
  EXPECT_THROW(
      verify::certify_machine_program(CheckedMachine1d(3).compile(logical),
                                      other),
      Error);
}

TEST(VerifyCertify, Checked2dMachineCertificateEqualsCensus) {
  for (const Circuit& logical : certified_machine_programs())
    expect_machine_certificate_agrees(CheckedMachine2d(3).compile(logical),
                                      logical);
}

TEST(VerifyCertify, GlobalRailGapFoundStatically) {
  // The negative control of test_local_checked: a global rail with no
  // zero checks is NOT fault-secure in 1D. The certificate must find
  // concrete silent-harmful scenarios, each replaying silent and
  // harmful, and agree with the census.
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  CheckedMachineOptions opts;
  opts.rails = RailGranularity::kGlobal;
  opts.zero_checks = false;
  opts.check_every = 1;
  const auto cert = expect_machine_certificate_agrees(
      CheckedMachine1d(3, true, opts).compile(logical), logical);
  EXPECT_GT(cert.counts.silent_harmful, 0u);
  EXPECT_FALSE(cert.statically_secure());
  EXPECT_FALSE(cert.insecure_examples.empty());
}

// The unarmed half of the checked machines' option sweep (the armed
// half is CheckedMachineCensus.EveryArmedOptionCombinationIsFaultSecure):
// zero checks off x rails {global, per-block} x {1D, 2D} x check_every
// {0, 1}. Some of these leak by design; whatever the census finds, the
// certificate must find too, and each of its counterexamples is real.
TEST(VerifyCertify, UnarmedOptionCombinationsAgreeWithCensus) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  for (unsigned combo = 0; combo < 8; ++combo) {
    CheckedMachineOptions opts;
    opts.zero_checks = false;
    opts.rails = (combo & 1u) ? RailGranularity::kPerBlock
                              : RailGranularity::kGlobal;
    opts.check_every = (combo & 4u) ? 1 : 0;
    SCOPED_TRACE("combo " + std::to_string(combo));
    const auto cert = expect_machine_certificate_agrees(
        (combo & 2u) ? CheckedMachine2d(3, true, opts).compile(logical)
                     : CheckedMachine1d(3, true, opts).compile(logical),
        logical);
    // Only the global-rail 1D machine leaks (the interleave gap).
    EXPECT_EQ(cert.statically_secure(), combo != 0 && combo != 4);
  }
}

// --- the packed census against a scalar reference ---------------------

/// One single-fault checked run on the scalar simulator, written apart
/// from the packed walker the census uses: op `fault.op_index` has its
/// operands overwritten instead of applied, zero checks are read right
/// after their op, rail invariants at every checkpoint.
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
  EXPECT_EQ(scalar.rail_detected, packed.rail_detected);
}

TEST(VerifyCensus, PackedCensusMatchesScalarReference) {
  const CycleFixture fix;
  const auto is_error = [&](const StateVector& out, std::size_t input) {
    const int sum = out.bit(fix.stage.after.data[0]) +
                    out.bit(fix.stage.after.data[1]) +
                    out.bit(fix.stage.after.data[2]);
    return (sum >= 2) != (input != 0);
  };
  expect_packed_census_matches_scalar(fix.checked, fix.inputs, is_error);

  // The checked 1D machine: several rails, membership migrated by
  // SWAP/SWAP3 routing, zero checks between rail checkpoints.
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine1d(3).compile(logical);
  ASSERT_GT(program.checked.rails.size(), 1u);
  ASSERT_FALSE(program.checked.zero_checks.empty());
  std::vector<StateVector> machine_inputs;
  for (std::uint64_t x = 0; x < 8; ++x)
    machine_inputs.push_back(machine_data_input(program, x));
  expect_packed_census_matches_scalar(
      program.checked, machine_inputs,
      [&](const StateVector& out, std::size_t in) {
        return machine_decode(program, out) != simulate(logical, in);
      });
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
  const auto report = verify::lint_checked_circuit(
      program.checked, verify::machine_entry(program));
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

// Rail bits are static, so a SWAP that moves one has no membership to
// migrate. index_walk and the segment plan name the op (membership
// covers the data bits only) and the linter skips the swap and
// returns.
TEST(VerifyLint, SwapOfARailBitIsRejectedByThePlanAndSkippedByLint) {
  Circuit logical(3);
  logical.maj(0, 1, 2).cnot(0, 1);
  detect::CheckedCircuit checked = detect::to_parity_rail(logical);
  const std::uint32_t rail_bit = checked.rails[0].rail_bit;
  // Op 0 is rail 0's encoder cnot(0, rail); make it swap(0, rail).
  ASSERT_EQ(checked.circuit.op(0), make_cnot(0, rail_bit));
  Circuit doctored(checked.circuit.width());
  doctored.swap(0, rail_bit);
  for (std::size_t i = 1; i < checked.circuit.size(); ++i)
    doctored.push(checked.circuit.op(i));
  checked.circuit = std::move(doctored);

  for (const bool plan : {false, true}) {
    try {
      if (plan) {
        recover::build_segment_plan(checked);
      } else {
        detect::CheckedCircuit reindexed = checked;
        detect::index_walk(reindexed);
      }
      FAIL() << (plan ? "a plan was built" : "the walk was indexed")
             << " over a swap of rail bit " << rail_bit;
    } catch (const Error& err) {
      EXPECT_NE(std::string(err.what())
                    .find("op 0 swap(0, 3) moves a rail bit"),
                std::string::npos)
          << err.what();
    }
  }
  const auto report = verify::lint_checked_circuit(
      checked, verify::identity_entry(checked.data_width));
  EXPECT_EQ(count_code(report, verify::LintCode::kGluedReplayComponents), 0u);
}

// The CheckedCircuit readers all rely on detect::index_walk: the
// checked and recovering engines and the segment plan on its slots,
// the certifier and dataflow on the checkpoint_spans it derives. A
// circuit assembled by hand and never indexed is rejected by each of
// them, naming index_walk, instead of read out of bounds; indexed,
// each one runs.
TEST(CheckedIndex, EveryReaderRejectsAnUnindexedCircuit) {
  // Data bits 0..2, rail bit 3: the encoder, then MAJ and MAJ⁻¹ (whose
  // compensations cancel), checked once at the end.
  detect::CheckedCircuit checked;
  checked.data_width = 3;
  checked.circuit = Circuit(4);
  checked.circuit.cnot(0, 3).cnot(1, 3).cnot(2, 3).maj(0, 1, 2).majinv(0, 1, 2);
  checked.rails = {{{0, 1, 2}, 3, 3}};
  checked.checkpoints = {checked.circuit.size() - 1};
  detect::CheckedCircuit indexed = checked;
  detect::index_walk(indexed);
  const recover::SegmentPlan plan = recover::build_segment_plan(indexed);
  const std::vector<StateVector> inputs{StateVector(3)};

  const auto readers = [&](const detect::CheckedCircuit& c) {
    std::vector<std::pair<const char*, std::function<void()>>> calls;
    calls.emplace_back("apply_noisy_checked_words", [&c] {
      PackedSimulator sim(NoiseModel::uniform(1e-2), 7);
      PackedState state(c.circuit.width(), 1);
      std::uint64_t detected = 0;
      detect::apply_noisy_checked_words(sim, state, c, &detected);
    });
    calls.emplace_back("build_segment_plan",
                       [&c] { recover::build_segment_plan(c); });
    calls.emplace_back("run_recovering_mc_span", [&c, &plan] {
      PackedSimulator sim(NoiseModel::uniform(1e-2), 7);
      PackedState state(c.circuit.width(), 1);
      recover::run_recovering_mc_span(
          sim, state, c, plan, recover::RetryPolicy::block_local(), 0, 64,
          [](PackedState&, Xoshiro256&, std::uint64_t) {},
          [](const PackedState&, int, std::uint64_t) { return false; });
    });
    calls.emplace_back("certify_single_faults", [&c, &inputs] {
      verify::certify_single_faults(c, inputs, {{0, 1, 2}});
    });
    calls.emplace_back("analyze_checked", [&c] {
      verify::analyze_checked(c, verify::identity_entry(3));
    });
    return calls;
  };
  for (const auto& [name, call] : readers(checked)) {
    try {
      call();
      ADD_FAILURE() << name << " ran on a circuit index_walk never indexed";
    } catch (const Error& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find(name), std::string::npos) << name << ": " << what;
      EXPECT_NE(what.find("index_walk"), std::string::npos) << what;
    }
  }
  detect::index_walk(checked);
  for (const auto& [name, call] : readers(checked))
    EXPECT_NO_THROW(call()) << name;
}

TEST(VerifyLint, GluedReplayComponentsSurfaceStraddlers) {
  // The per-block 1D machine's routing glues rails within segments —
  // the mean_max_replay_share pathology. The lint must surface it with
  // the straddling ops attached, and the straddlers must be exactly
  // where glued components exist.
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto program = CheckedMachine1d(3).compile(logical);
  const auto report = verify::lint_checked_circuit(
      program.checked, verify::machine_entry(program));
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
