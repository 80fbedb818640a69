// Tests for the detection-aware local machines (local/checked_machine):
// the exhaustive single-fault detection census proving the checked 1D
// and 2D single-cycle programs fault-secure (silent_harmful == 0, the
// local-machine analogue of the checked-MAJ-cycle proof), the
// routing-is-parity-preserving property over every logical gate kind,
// fault-site accounting shared between the enumerator and the census,
// and the checked engine's thread-count determinism on 1D/2D
// workloads.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "detect/checker.h"
#include "detect/parity.h"
#include "ft/detect_experiment.h"
#include "ft/experiments.h"
#include "local/checked_machine.h"
#include "local/scheme1d.h"
#include "local/scheme2d.h"
#include "noise/injection.h"
#include "rev/simulator.h"
#include "support/error.h"
#include "verify/certify.h"

namespace revft {
namespace {

constexpr GateKind kAllKinds[] = {
    GateKind::kNot,     GateKind::kCnot,    GateKind::kSwap,
    GateKind::kToffoli, GateKind::kFredkin, GateKind::kSwap3,
    GateKind::kMaj,     GateKind::kMajInv,  GateKind::kInit3,
    GateKind::kF2g,     GateKind::kNft};

static_assert(static_cast<int>(std::size(kAllKinds)) == kNumGateKinds,
              "test table must cover every kind");

// The census itself is the one shared definition in
// ft/detect_experiment (machine_detection_census), so this ctest gate
// and bench_local_checked's printed table cannot drift apart.

// --- fault-free behaviour --------------------------------------------

// The checked program computes the logical function and never raises a
// false alarm: every rail checkpoint and every recovery-boundary zero
// check passes on every input when nothing fails.
template <typename Machine>
void expect_clean_and_correct(const Machine& machine, const Circuit& logical) {
  const auto program = machine.compile(logical);
  EXPECT_GT(program.stats.checkpoints, 0u);
  EXPECT_GT(program.stats.zero_checks, 0u);
  for (std::uint64_t input = 0; input < (1u << logical.width()); ++input) {
    const auto run = detect::checked_run(
        program.checked, machine_data_input(program, input));
    EXPECT_FALSE(run.detected) << "false alarm on input " << input;
    EXPECT_EQ(machine_decode(program, run.state), simulate(logical, input))
        << "input " << input;
  }
}

TEST(CheckedMachine, FaultFreeRunsAreCleanAndCorrect1d) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);  // routed
  expect_clean_and_correct(CheckedMachine1d(3), logical);
}

TEST(CheckedMachine, FaultFreeRunsAreCleanAndCorrect2d) {
  Circuit logical(4);
  logical.maj(3, 0, 2).not_(1).fredkin(0, 1, 3);
  expect_clean_and_correct(CheckedMachine2d(4), logical);
}

// --- the acceptance proof: single-fault census, 1D and 2D ------------

// Every non-benign single fault of the checked single-cycle programs —
// routing, interleave, transversal gate, recovery, rail compensation
// and encoder gates included — is detected or harmless. This is the
// machine-level analogue of the PR 2 MAJ-cycle fault-security proof,
// and it is exactly the property a lone parity rail cannot deliver in
// 1D (see RailAloneIsNotEnoughIn1d below).
TEST(CheckedMachineCensus, SingleCycle1dIsFaultSecure) {
  for (const bool routed : {false, true}) {
    Circuit logical(3);
    if (routed)
      logical.toffoli(2, 1, 0);
    else
      logical.toffoli(0, 1, 2);
    const CheckedMachine1d machine(3);
    const auto program = machine.compile(logical);
    const auto census = machine_detection_census(program, logical);
    EXPECT_GT(census.scenarios, 4000u) << "routed=" << routed;
    EXPECT_GT(census.detected(), 0u) << "routed=" << routed;
    EXPECT_GT(census.detected_harmful, 0u)
        << "1D has fatal interleave faults; they must all be caught";
    EXPECT_EQ(census.silent_harmful, 0u) << "routed=" << routed;
    EXPECT_TRUE(census.fault_secure()) << "routed=" << routed;
  }
}

TEST(CheckedMachineCensus, SingleCycle2dIsFaultSecure) {
  for (const bool routed : {false, true}) {
    Circuit logical(3);
    if (routed)
      logical.toffoli(2, 1, 0);
    else
      logical.toffoli(0, 1, 2);
    const CheckedMachine2d machine(3);
    const auto program = machine.compile(logical);
    const auto census = machine_detection_census(program, logical);
    EXPECT_GT(census.scenarios, 4000u) << "routed=" << routed;
    EXPECT_GT(census.detected(), 0u) << "routed=" << routed;
    EXPECT_EQ(census.silent_harmful, 0u) << "routed=" << routed;
    EXPECT_TRUE(census.fault_secure()) << "routed=" << routed;
  }
}

// Logical NOT and initialization emit their own recovery/init
// boundaries; they must be fault-secure too.
TEST(CheckedMachineCensus, NotAndInitProgramsAreFaultSecure) {
  Circuit logical(3);
  logical.not_(1).init3(0, 1, 2).not_(0);
  for (const auto& census :
       {machine_detection_census(CheckedMachine1d(3).compile(logical), logical),
        machine_detection_census(CheckedMachine2d(3).compile(logical), logical)}) {
    EXPECT_GT(census.detected(), 0u);
    EXPECT_EQ(census.silent_harmful, 0u);
  }
}

/// The census' scenario-count fields in one comparable array (the
/// certifier leaves rail_detected empty).
std::array<std::uint64_t, 7> count_fields(const detect::DetectionCensus& c) {
  return {c.fault_sites,       c.scenarios,        c.benign_skipped,
          c.harmless,          c.detected_harmless, c.detected_harmful,
          c.silent_harmful};
}

// Every armed option combination is fault-secure, not just the
// defaults: layout x init x rail granularity x per-boundary rail
// checks, with the boundary zero checks on, over routed and unrouted
// cycles and the NOT / init boundaries — 64 censuses,
// each with a certificate that must equal it. (With zero_checks off
// some combinations leak by design; the tests below and
// VerifyCertify.UnarmedOptionCombinationsAgreeWithCensus pin that
// ablation.)
TEST(CheckedMachineCensus, EveryArmedOptionCombinationIsFaultSecure) {
  std::vector<Circuit> programs(4, Circuit(3));
  programs[0].toffoli(0, 1, 2);
  programs[1].toffoli(2, 1, 0);
  programs[2].not_(1).init3(0, 1, 2).not_(0);
  programs[3].init3(0, 1, 2).toffoli(0, 1, 2);
  int censuses = 0;
  for (unsigned combo = 0; combo < 16; ++combo) {
    const bool two_d = combo & 1u, with_init = combo & 2u;
    CheckedMachineOptions opts;
    opts.rails = (combo & 4u) ? RailGranularity::kPerBlock
                              : RailGranularity::kGlobal;
    opts.rail_check_every_boundary = combo & 8u;
    ASSERT_TRUE(opts.zero_checks);
    for (std::size_t p = 0; p < programs.size(); ++p) {
      const Circuit& logical = programs[p];
      const auto program =
          two_d ? CheckedMachine2d(3, with_init, opts).compile(logical)
                : CheckedMachine1d(3, with_init, opts).compile(logical);
      const auto census = machine_detection_census(program, logical);
      EXPECT_GT(census.scenarios, 0u);
      EXPECT_EQ(census.silent_harmful, 0u)
          << "combo " << combo << " program " << p;
      // The certifier must reach the census' counts exactly.
      EXPECT_EQ(count_fields(
                    verify::certify_machine_program(program, logical).counts),
                count_fields(census))
          << "combo " << combo << " program " << p;
      ++censuses;
    }
  }
  EXPECT_EQ(censuses, 64);
}

// Negative control — the finding that motivates both the zero checks
// and the rail partition: with the recovery-boundary zero checks
// disabled, the GLOBAL-rail 1D machine is NOT fault-secure. An
// even-weight fault on an interleave SWAP3 damages one bit of two
// different codewords: the global rail parity is unchanged, yet the
// transversal gate propagates both control damages onto a single
// target codeword, which then majority-decodes wrong. The
// recovery-boundary syndromes (nonzero because both control codewords
// arrive non-uniform) close this hole — and so does refining the rail
// into one per block (the next test): the same fault is odd in BOTH
// damaged blocks' groups.
TEST(CheckedMachineCensus, GlobalRailAloneIsNotEnoughIn1d) {
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  CheckedMachineOptions opts;
  opts.rails = RailGranularity::kGlobal;
  opts.zero_checks = false;
  opts.check_every = 1;  // even per-op rail checkpoints cannot help
  const CheckedMachine1d machine(3, /*with_init=*/true, opts);
  const auto census = machine_detection_census(machine.compile(logical), logical);
  EXPECT_GT(census.silent_harmful, 0u)
      << "if this starts passing, the global rail alone became sufficient "
         "and the zero-check machinery deserves a second look";
  EXPECT_FALSE(census.fault_secure());
}

// The partition payoff, pinned: the SAME configuration with per-block
// rails instead of the global one — zero checks still disabled — IS
// fault-secure. Every cross-codeword interleave fault that defeats
// the global rail damages two different blocks' values, so it is odd
// in two groups and both rails fire. (The shipped default keeps the
// boundary zero checks anyway: they abort earlier and they are what
// licenses the known-zero elision.)
TEST(CheckedMachineCensus, PerBlockRailsAloneAreFaultSecureIn1d) {
  Circuit logical(3);
  logical.toffoli(0, 1, 2);
  CheckedMachineOptions opts;
  opts.rails = RailGranularity::kPerBlock;
  opts.zero_checks = false;
  opts.check_every = 1;  // same checkpoint schedule as the control
  const CheckedMachine1d machine(3, /*with_init=*/true, opts);
  const auto census = machine_detection_census(machine.compile(logical), logical);
  EXPECT_EQ(census.silent_harmful, 0u);
  EXPECT_TRUE(census.fault_secure());
  EXPECT_GT(census.detected_harmful, 0u);
}

// The routed cycle bench_local_checked prints, pinned at either rail
// granularity: the same scenario space and harmful set, fault-secure
// either way.
TEST(CheckedMachineCensus, RoutedCycleCensusCountsPinned) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  for (const RailGranularity rails :
       {RailGranularity::kGlobal, RailGranularity::kPerBlock}) {
    CheckedMachineOptions opts;
    opts.rails = rails;
    const auto census1 = machine_detection_census(
        CheckedMachine1d(3, /*with_init=*/true, opts).compile(logical),
        logical);
    EXPECT_EQ(census1.scenarios, 12352u);
    EXPECT_EQ(census1.detected_harmful, 168u);
    EXPECT_EQ(census1.silent_harmful, 0u);
    EXPECT_TRUE(census1.fault_secure());
    const auto census2 = machine_detection_census(
        CheckedMachine2d(3, /*with_init=*/true, opts).compile(logical),
        logical);
    EXPECT_EQ(census2.scenarios, 7080u);
    EXPECT_EQ(census2.detected_harmful, 0u);
    EXPECT_EQ(census2.silent_harmful, 0u);
    EXPECT_TRUE(census2.fault_secure());
  }
}

// CheckedMachine::compile is exactly the rail transform of the
// machine program: gate-for-gate circuit equality, same checkpoints,
// same zero checks. The entry cells are the layouts' documented data
// offsets in the initial slots.
TEST(CheckedMachineCompile, IsTheRailTransformOfTheMachineProgram) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const CheckedMachineOptions opts;

  const auto expect_equal = [](const CheckedMachineProgram& a,
                               const CheckedMachineProgram& b) {
    EXPECT_EQ(a.checked.circuit, b.checked.circuit);
    EXPECT_EQ(a.checked.checkpoints, b.checked.checkpoints);
    ASSERT_EQ(a.checked.zero_checks.size(), b.checked.zero_checks.size());
    for (std::size_t k = 0; k < a.checked.zero_checks.size(); ++k) {
      EXPECT_EQ(a.checked.zero_checks[k].op_index,
                b.checked.zero_checks[k].op_index);
      EXPECT_EQ(a.checked.zero_checks[k].bits, b.checked.zero_checks[k].bits);
    }
  };

  {
    const auto via_checked = CheckedMachine1d(3, true, opts).compile(logical);
    const MachineProgram raw = Machine(BlockLayout::k1d, 3).compile(logical);
    std::vector<std::array<std::uint32_t, 3>> entry;
    for (std::uint32_t i = 0; i < 3; ++i)
      entry.push_back({9 * i + 0, 9 * i + 3, 9 * i + 6});
    EXPECT_EQ(raw.entry_cells, entry);
    expect_equal(via_checked, check_machine_program(raw, opts));
  }
  {
    const auto via_checked = CheckedMachine2d(3, true, opts).compile(logical);
    const MachineProgram raw = Machine(BlockLayout::k2d, 3).compile(logical);
    std::vector<std::array<std::uint32_t, 3>> entry;
    for (std::uint32_t i = 0; i < 3; ++i)
      entry.push_back({9 * i + 0, 9 * i + 1, 9 * i + 2});
    EXPECT_EQ(raw.entry_cells, entry);
    expect_equal(via_checked, check_machine_program(raw, opts));
  }
}

// The acceptance pin for the partition: a concrete cross-codeword
// interleave fault class — an even-weight corruption of a SWAP/SWAP3
// in the 1D gather/ungather schedule, damaging bits of two different
// blocks — that the global rail alone misses (silent AND harmful) but
// the per-block rails catch. Faults are injected at ORIGINAL op
// coordinates via source_position so both configurations see the
// identical corruption; zero checks are disabled in both so the rails
// alone are compared.
TEST(CheckedMachineCensus, PerBlockRailsCatchInterleaveFaultsGlobalRailMisses) {
  Circuit logical(3);
  logical.toffoli(0, 1, 2);  // adjacent operands: the program is one cycle
  CheckedMachineOptions global_opts;
  global_opts.rails = RailGranularity::kGlobal;
  global_opts.zero_checks = false;
  global_opts.check_every = 1;
  CheckedMachineOptions block_opts = global_opts;
  block_opts.rails = RailGranularity::kPerBlock;
  const auto global_program =
      CheckedMachine1d(3, true, global_opts).compile(logical);
  const auto block_program =
      CheckedMachine1d(3, true, block_opts).compile(logical);
  const Circuit physical =
      Machine(BlockLayout::k1d, 3).compile(logical).physical;
  ASSERT_EQ(global_program.checked.source_position.size(), physical.size());
  ASSERT_EQ(block_program.checked.source_position.size(), physical.size());

  std::uint64_t rescued_swap_faults = 0;  // silent+harmful -> detected
  for (unsigned input = 0; input < 8; ++input) {
    const StateVector sv = machine_data_input(global_program, input);
    const std::uint64_t expected = simulate(logical, input);
    const auto wrong = [&](const CheckedMachineProgram& program,
                           const StateVector& out) {
      return machine_decode(program, out) != expected;
    };
    for (std::size_t op = 0; op < physical.size(); ++op) {
      const GateKind kind = physical.op(op).kind;
      if (kind != GateKind::kSwap && kind != GateKind::kSwap3) continue;
      for (unsigned v = 0; v < (1u << physical.op(op).arity()); ++v) {
        const auto g_run = detect::checked_run(
            global_program.checked, sv,
            {{global_program.checked.source_position[op], v}});
        if (g_run.detected || !wrong(global_program, g_run.state))
          continue;  // not a silent-harmful escape of the global rail
        const auto b_run = detect::checked_run(
            block_program.checked, sv,
            {{block_program.checked.source_position[op], v}});
        if (b_run.detected) {
          ++rescued_swap_faults;
          // The damage really is cross-block: the global parity stayed
          // even, so the per-rail flips must pair up — at least two
          // different rails fired.
          int fired = 0;
          for (const auto f : b_run.rail_fired) fired += f != 0;
          EXPECT_GE(fired, 2);
        }
      }
    }
  }
  EXPECT_GT(rescued_swap_faults, 0u)
      << "per-block rails no longer catch the cross-codeword interleave "
         "fault class the global rail misses — the partition lost its "
         "reason to exist";
}

// --- routing is parity-preserving for every gate kind ----------------

// Machine::compile of a one-gate logical circuit (operands reversed
// to force routing) produces routing segments that are 100%
// parity-preserving — the structural fact that makes the routing
// fabric self-checking for free. Guards against any future routing
// primitive that silently breaks free checking. 2-bit kinds are not
// §3-compilable and must be rejected instead.
void expect_routing_parity_preserving(
    const Circuit& physical,
    const std::vector<std::pair<std::size_t, std::size_t>>& spans,
    std::uint64_t routing_cell_swaps, GateKind kind, bool expect_routing) {
  if (expect_routing) {
    EXPECT_FALSE(spans.empty()) << gate_name(kind);
  }
  // Every routing op must conserve parity, and the spans must account
  // for the raw cell-swap count exactly (a SWAP3 packs two adjacent
  // swaps) — no routing primitive escapes the free-checking claim.
  std::uint64_t raw = 0;
  for (const auto& [first, last] : spans) {
    ASSERT_LE(first, last) << gate_name(kind);
    ASSERT_LT(last, physical.size()) << gate_name(kind);
    for (std::size_t i = first; i <= last; ++i) {
      EXPECT_TRUE(detect::parity_preserving(physical.op(i).kind))
          << gate_name(kind) << " routing op " << i << " is "
          << gate_name(physical.op(i).kind);
      raw += physical.op(i).kind == GateKind::kSwap3 ? 2 : 1;
    }
  }
  EXPECT_EQ(raw, routing_cell_swaps) << gate_name(kind);
}

TEST(CheckedMachineProperty, RoutingSegmentsParityPreservingForAllKinds) {
  for (const GateKind kind : kAllKinds) {
    const int arity = gate_arity(kind);
    Circuit logical(4);
    Gate g{kind, {0, 0, 0}};
    // Reversed / scattered operands so 3-bit gates must route.
    if (arity == 1)
      g.bits = {3, 0, 0};
    else if (arity == 2)
      g.bits = {3, 0, 0};
    else
      g.bits = {3, 1, 0};
    logical.push(g);
    if (arity == 2) {
      // 2-bit logical gates are not in the §3 constructions.
      for (const BlockLayout layout : {BlockLayout::k1d, BlockLayout::k2d})
        EXPECT_THROW(Machine(layout, 4).compile(logical), Error)
            << gate_name(kind);
      continue;
    }
    // NOT is transversal and init resets in place — only 3-bit
    // reversible gates route.
    const bool routes = arity == 3 && gate_is_reversible(kind);
    for (const BlockLayout layout : {BlockLayout::k1d, BlockLayout::k2d}) {
      const auto program = Machine(layout, 4).compile(logical);
      expect_routing_parity_preserving(program.physical, program.routing_spans,
                                       program.routing_cell_swaps, kind,
                                       routes);
    }
  }
}

// The machine stats agree with the predicate: free + compensated =
// total, and every routing op is counted free.
TEST(CheckedMachineProperty, StatsPartitionOps) {
  Circuit logical(5);
  logical.maj(4, 2, 0).toffoli(0, 3, 4).swap3(1, 2, 3);
  for (const auto& program : {CheckedMachine1d(5).compile(logical),
                              CheckedMachine2d(5).compile(logical)}) {
    EXPECT_EQ(program.stats.free_ops + program.stats.compensated_ops,
              program.stats.total_ops);
    EXPECT_GT(program.stats.routing_ops, 0u);
    EXPECT_LE(program.stats.routing_ops, program.stats.free_ops);
    EXPECT_GT(program.stats.free_fraction(), 0.5)
        << "routing-dominated programs are mostly self-checking";
    EXPECT_EQ(program.stats.rail_ops, program.checked.rail_ops);
  }
}

// --- fault-site accounting -------------------------------------------

// The enumerator and the census must agree on fault-site counts for
// the width-27+ machine circuits: sites == fallible gate count,
// scenarios == Σ 2^arity (the per-gate width contribution), and the
// census partition must tile scenarios exactly. One shared definition
// (noise/injection's count_fault_sites) backs all three.
TEST(CheckedMachineAccounting, CensusAndEnumeratorAgreeOnFaultSites) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  for (const auto& program : {CheckedMachine1d(3).compile(logical),
                              CheckedMachine2d(3).compile(logical)}) {
    const Circuit& c = program.checked.circuit;
    ASSERT_GE(c.width(), 27u);

    const FaultSites sites = count_fault_sites(c);
    EXPECT_EQ(sites.sites, c.size());
    EXPECT_EQ(enumerate_single_faults(c).size(), sites.scenarios);

    // Per input: skip_benign prunes exactly one (the correct value)
    // per op.
    StateVector input(c.width());
    for (std::uint32_t i = 0; i < 3; ++i)
      for (const auto bit : program.input_cells[i]) input.set_bit(bit, 1);
    EXPECT_EQ(enumerate_single_faults(c, input, /*skip_benign=*/false).size(),
              sites.scenarios);
    EXPECT_EQ(enumerate_single_faults(c, input, /*skip_benign=*/true).size(),
              sites.scenarios - sites.sites);

    // The census over all 8 logical inputs covers every scenario:
    // simulated + benign == 8 * Σ 2^arity, and the outcome classes
    // tile the simulated count.
    const auto census = machine_detection_census(program, logical);
    EXPECT_EQ(census.fault_sites, sites.sites);
    EXPECT_EQ(census.scenarios + census.benign_skipped, 8 * sites.scenarios);
    EXPECT_EQ(census.benign_skipped, 8 * sites.sites);
    EXPECT_EQ(census.harmless + census.detected_harmless +
                  census.detected_harmful + census.silent_harmful,
              census.scenarios);
  }
}

// --- thread-count determinism ----------------------------------------

// Checked 1D/2D cycle experiments produce byte-identical
// DetectionEstimate fields for 1, 3 and 8 worker threads (the
// REVFT_THREADS regression of the checked engine on local workloads).
TEST(CheckedMachineDeterminism, CycleExperimentsBitIdenticalAcrossThreads) {
  const Cycle1d c1 = make_cycle_1d(GateKind::kToffoli, true);
  const Cycle2d c2 = make_cycle_2d(GateKind::kToffoli, true);
  CodewordCycleExperiment::Config config;
  config.trials = 30000;
  const CodewordCycleExperiment exp1d(c1.circuit, c1.data, c1.data, config,
                                      c1.recovery_boundaries);
  const CodewordCycleExperiment exp2d(c2.circuit, c2.data_before,
                                      c2.data_after, config,
                                      c2.recovery_boundaries);
  for (const auto* exp : {&exp1d, &exp2d}) {
    const auto t1 = exp->run_checked(0.01, 1);
    const auto t3 = exp->run_checked(0.01, 3);
    const auto t8 = exp->run_checked(0.01, 8);
    EXPECT_EQ(t1, t3);
    EXPECT_EQ(t1, t8);
    EXPECT_EQ(t1.trials, config.trials);
    EXPECT_GT(t1.detected, 0u);
  }
}

TEST(CheckedMachineDeterminism, MachineExperimentBitIdenticalAcrossThreads) {
  Circuit logical(4);
  logical.toffoli(3, 1, 0).maj(0, 2, 3);
  CheckedMachineExperiment::Config config;
  config.trials = 20000;
  const CheckedMachineExperiment exp(CheckedMachine1d(4).compile(logical),
                                     logical, config);
  const auto t1 = exp.run(0.005, 1);
  const auto t3 = exp.run(0.005, 3);
  const auto t8 = exp.run(0.005, 8);
  // operator== covers the per-rail detected counts, so this is the
  // REVFT_THREADS ∈ {1, 3, 8} bit-identity of the whole partition
  // split, not just the four aggregate outcomes.
  EXPECT_EQ(t1, t3);
  EXPECT_EQ(t1, t8);
  // The default machine partition is one rail per block: per-rail
  // counts are present, each bounded by the total, and under noise the
  // boundary zero checks fire too.
  ASSERT_EQ(t1.rail_detected.size(), 4u);
  for (const auto count : t1.rail_detected) EXPECT_LE(count, t1.detected);
  EXPECT_GT(t1.detected, 0u);
  EXPECT_GT(t1.zero_check_detected, 0u);
  // Sanity: at g = 0 nothing fires.
  const auto clean = exp.run(0.0, 2);
  EXPECT_EQ(clean.detected, 0u);
  EXPECT_EQ(clean.silent_failures, 0u);
  EXPECT_EQ(clean.zero_check_detected, 0u);
}

// The membership snapshots a checked machine program carries: one per
// checkpoint, tiling all 9B cells across the B block rails, and the
// exit snapshot maps every logical bit's final data cells to its own
// block's rail — the lookup a block-localized retry needs.
TEST(CheckedMachineDeterminism, CheckpointGroupsTrackBlocks) {
  Circuit logical(4);
  logical.toffoli(3, 1, 0).maj(0, 2, 3);  // routed: blocks move
  const auto program = CheckedMachine1d(4).compile(logical);
  const auto& checked = program.checked;
  ASSERT_EQ(checked.rails.size(), 4u);
  ASSERT_EQ(checked.checkpoint_spans.size(), checked.checkpoints.size());
  for (const auto& span : checked.checkpoint_spans) {
    std::size_t covered = 0;
    std::vector<char> seen(checked.data_width, 0);
    for (std::size_t r = 0; r < checked.rails.size(); ++r)
      for (const auto bit : span.group(r)) {
        ASSERT_EQ(seen[bit], 0);
        seen[bit] = 1;
        ++covered;
      }
    EXPECT_EQ(covered, checked.data_width);
  }
  // Exit membership: logical bit i's final codeword cells all sit in
  // the group of one rail — block rails follow their data through the
  // routing fabric.
  const auto& exit_span = checked.checkpoint_spans.back();
  for (std::uint32_t i = 0; i < 4; ++i) {
    int home_rail = -1;
    for (const auto bit : program.output_cells[i]) {
      int rail_of_bit = -1;
      for (std::size_t r = 0; r < checked.rails.size(); ++r)
        if (std::ranges::find(exit_span.group(r), bit) !=
            exit_span.group(r).end())
          rail_of_bit = static_cast<int>(r);
      ASSERT_GE(rail_of_bit, 0);
      if (home_rail < 0) home_rail = rail_of_bit;
      EXPECT_EQ(rail_of_bit, home_rail)
          << "logical bit " << i << " split across rails at exit";
    }
  }
}

// The checked engine's detection behaviour on local machines: under
// noise the recovery-boundary checks fire on most corrupted trials, so
// post-selection leaves a far cleaner accepted population.
TEST(CheckedMachineDeterminism, PostSelectionHelpsOnMachineWorkloads) {
  Circuit logical(4);
  logical.toffoli(3, 1, 0).maj(0, 2, 3);
  CheckedMachineExperiment::Config config;
  config.trials = 40000;
  const CheckedMachineExperiment exp(CheckedMachine1d(4).compile(logical),
                                     logical, config);
  const auto est = exp.run(0.01, 0);
  EXPECT_GT(est.detected, 0u);
  EXPECT_LT(est.post_selected_error_rate(), est.raw_failure_rate());
}

}  // namespace
}  // namespace revft
