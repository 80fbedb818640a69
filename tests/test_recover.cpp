// Tests for the recover/ subsystem — the checkpointed block-local
// retry engine that turns PR 4's retry-cost model into mechanism:
//
//   * segment-plan structure: segments tile the checked circuit,
//     components partition each segment's ops and cells, boundary
//     merging folds the machines' two-phase boundaries (zero check +
//     compensation flush + rail checkpoint) into one segment;
//   * checkpoint/restore primitives for both engines;
//   * the REPAIR THEOREM, exhaustively: with fault-free retries, the
//     block-local runner turns EVERY single-fault scenario of the
//     checked 1D and 2D machines into an accepted, correct output —
//     detection doesn't just flag the fault, the mechanism fixes it;
//   * engine consistency: the recovering engine under kNoRetry
//     reproduces the checked engine's outcome counts bit for bit (the
//     two consume identical randomness until a retry happens);
//   * the determinism suite: every policy's RecoveryEstimate —
//     retries, per-rail counters and op accounting included — is
//     bit-identical across worker counts {1, 3, 8};
//   * the economics acceptance bar: measured block-local
//     E[ops/accept] <= whole-program at equal fallible-op budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "code/repetition.h"
#include "detect/checker.h"
#include "ft/experiments.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "noise/injection.h"
#include "recover/checkpoint.h"
#include "recover/plan.h"
#include "recover/recovering_mc.h"
#include "recover/runner.h"
#include "rev/simulator.h"
#include "support/error.h"

namespace revft {
namespace {

Circuit routed_toffoli3() {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  return logical;
}

Circuit scattered6() {
  Circuit logical(6);
  logical.maj(5, 2, 0).toffoli(0, 3, 5).majinv(2, 1, 4).swap3(0, 2, 5);
  return logical;
}

StateVector machine_input(const CheckedMachineProgram& program, unsigned input) {
  StateVector sv(program.checked.data_width);
  for (std::uint32_t i = 0; i < program.logical_bits; ++i)
    for (const auto bit : program.input_cells[i])
      sv.set_bit(bit, static_cast<std::uint8_t>((input >> i) & 1u));
  return sv;
}

bool output_correct(const CheckedMachineProgram& program,
                    const Circuit& logical, const StateVector& state,
                    unsigned input) {
  const unsigned expected = static_cast<unsigned>(simulate(logical, input));
  for (std::uint32_t i = 0; i < program.logical_bits; ++i) {
    const auto& cw = program.output_cells[i];
    if (majority3(state.bit(cw[0]), state.bit(cw[1]), state.bit(cw[2])) !=
        static_cast<int>((expected >> i) & 1u))
      return false;
  }
  return true;
}

// --- segment-plan structure ------------------------------------------

TEST(SegmentPlan, SegmentsTileTheCircuitAndComponentsPartitionIt) {
  const auto program =
      CheckedMachine1d(3, true, recovering_machine_options())
          .compile(routed_toffoli3());
  const auto plan = recover::build_segment_plan(program.checked);
  ASSERT_FALSE(plan.segments.empty());
  EXPECT_EQ(plan.total_ops, program.checked.circuit.size());

  std::size_t next = 0;
  for (const auto& seg : plan.segments) {
    EXPECT_EQ(seg.begin, next);
    ASSERT_GE(seg.end, seg.begin);
    next = seg.end + 1;

    // Every rail maps to a component; component rails are disjoint and
    // cover all rails.
    ASSERT_EQ(seg.component_of_rail.size(), program.checked.rails.size());
    std::vector<int> rail_seen(program.checked.rails.size(), 0);
    for (const auto& comp : seg.components)
      for (const auto r : comp.rails) ++rail_seen[r];
    for (std::size_t r = 0; r < rail_seen.size(); ++r) {
      EXPECT_EQ(rail_seen[r], 1) << "rail " << r;
      const auto& comp = seg.components[seg.component_of_rail[r]];
      EXPECT_NE(std::find(comp.rails.begin(), comp.rails.end(),
                          static_cast<std::uint32_t>(r)),
                comp.rails.end());
    }

    // Ops partition across components, consistent with component_of_op.
    ASSERT_EQ(seg.component_of_op.size(), seg.op_count());
    std::size_t ops_total = 0;
    for (std::size_t c = 0; c < seg.components.size(); ++c) {
      ops_total += seg.components[c].ops.size();
      for (const auto pos : seg.components[c].ops) {
        ASSERT_GE(pos, seg.begin);
        ASSERT_LE(pos, seg.end);
        EXPECT_EQ(seg.component_of_op[pos - seg.begin],
                  static_cast<std::uint32_t>(c));
      }
    }
    EXPECT_EQ(ops_total, seg.op_count());

    // Footprints are disjoint and cover each rail's checkpoint group
    // and rail bit (what the restore path rewrites must include what
    // the checks read).
    std::vector<int> cell_seen(program.checked.circuit.width(), 0);
    for (const auto& comp : seg.components)
      for (const auto cell : comp.cells) ++cell_seen[cell];
    for (const auto count : cell_seen) EXPECT_LE(count, 1);
    if (seg.checkpoint >= 0) {
      const auto& span =
          program.checked
              .checkpoint_spans[static_cast<std::size_t>(seg.checkpoint)];
      for (std::size_t r = 0; r < program.checked.rails.size(); ++r) {
        const auto& cells = seg.components[seg.component_of_rail[r]].cells;
        for (const auto bit : span.group(r))
          EXPECT_NE(std::find(cells.begin(), cells.end(), bit), cells.end())
              << "rail " << r << " group cell " << bit;
        EXPECT_NE(std::find(cells.begin(), cells.end(),
                            program.checked.rails[r].rail_bit),
                  cells.end());
      }
    }
  }
  EXPECT_EQ(next, program.checked.circuit.size());
}

// The §3 machines register each boundary's zero check a few ops before
// the rail checkpoint (the transform flushes pending compensation in
// between); the plan must fold the pair into ONE segment — otherwise
// every rail violation is detected one segment after the snapshot that
// could repair it was replaced.
TEST(SegmentPlan, MachineBoundariesMergeZeroCheckAndCheckpoint) {
  const auto program =
      CheckedMachine1d(3, true, recovering_machine_options())
          .compile(routed_toffoli3());
  const auto plan = recover::build_segment_plan(program.checked);
  EXPECT_EQ(plan.segments.size(), program.checked.checkpoints.size());
  for (const auto& seg : plan.segments) {
    EXPECT_GE(seg.checkpoint, 0);
    EXPECT_FALSE(seg.zero_checks.empty());
  }
}

/// Every cell a component's boundary checks read — each rail's rail bit
/// and its checkpoint_spans bits, each zero check's bits — must lie in
/// that component's restore/merge footprint. The packed engine blends
/// an accepted lane back one component at a time, judged only on that
/// component's checks, which is sound only under this property. Returns
/// the number of check reads verified.
std::size_t expect_checks_read_own_footprint(
    const detect::CheckedCircuit& checked, const recover::SegmentPlan& plan) {
  std::size_t reads = 0;
  const auto expect_in = [&](const recover::Segment& seg, std::uint32_t c,
                             std::uint32_t cell, const char* what) {
    const auto& cells = seg.components[c].cells;
    EXPECT_TRUE(std::binary_search(cells.begin(), cells.end(), cell))
        << what << " reads cell " << cell << " outside component " << c
        << " of segment [" << seg.begin << ", " << seg.end << "]";
    ++reads;
  };
  for (const auto& seg : plan.segments) {
    if (seg.checkpoint >= 0) {
      const auto& span =
          checked.checkpoint_spans[static_cast<std::size_t>(seg.checkpoint)];
      for (std::size_t r = 0; r < checked.rails.size(); ++r) {
        const std::uint32_t c = seg.component_of_rail[r];
        expect_in(seg, c, checked.rails[r].rail_bit, "rail bit");
        for (std::uint32_t i = span.rail_first[r]; i < span.rail_first[r + 1];
             ++i)
          expect_in(seg, c, span.bits[i], "rail check");
      }
    }
    for (std::size_t k = 0; k < seg.zero_checks.size(); ++k)
      for (const auto bit : checked.zero_checks[seg.zero_checks[k]].bits)
        expect_in(seg, seg.component_of_zero_check[k], bit, "zero check");
  }
  return reads;
}

// A zero check on a cell no rail watches and no segment op touches
// must still land in its component's restore/merge footprint — the
// replay re-evaluates the check, so acceptance must blend the cells it
// read (regression: the packed engine could otherwise accept a lane
// while the corrupted checked cell was never written back). The same
// holds for every rail check of the recovering 1D and 2D machines.
TEST(SegmentPlan, ZeroCheckBitsBelongToTheComponentFootprint) {
  Circuit c(3);
  c.cnot(0, 1).cnot(1, 0).cnot(0, 1);
  detect::ParityRailOptions opts;
  opts.rail_partition = {{0}, {1}};  // bit 2 is unwatched...
  opts.zero_checks.push_back({1, {2}});  // ...but promised zero here
  const auto checked = detect::to_parity_rail(c, opts);
  const auto plan = recover::build_segment_plan(checked);
  bool found = false;
  for (const auto& seg : plan.segments)
    for (std::size_t k = 0; k < seg.zero_checks.size(); ++k)
      found = found || !checked.zero_checks[seg.zero_checks[k]].bits.empty();
  EXPECT_TRUE(found);
  EXPECT_GT(expect_checks_read_own_footprint(checked, plan), 0u);

  for (const auto& program :
       {CheckedMachine1d(6, true, recovering_machine_options())
            .compile(scattered6()),
        CheckedMachine2d(6, true, recovering_machine_options())
            .compile(scattered6())}) {
    const auto machine_plan = recover::build_segment_plan(program.checked);
    EXPECT_GT(expect_checks_read_own_footprint(program.checked, machine_plan),
              0u);
  }
}

// --- partition-aware scheduling: the replay-share payoff -------------

// The scheduling pass (local/schedule.h) exists to break the
// whole-segment replay pathology. Pinned both ways: opting out
// reproduces the PR 5 layout's pathology exactly (every segment's
// worst component IS the segment — mean_max_replay_share 1.0), and the
// scheduled default splits routing and batches EC stages so the mean
// share drops strictly below it on the same workload.
TEST(SegmentPlan, SchedulingBreaksTheWholeSegmentReplayPathology) {
  const Circuit logical = routed_toffoli3();
  CheckedMachineOptions legacy = recovering_machine_options();
  legacy.schedule.enabled = false;

  const auto legacy1d = recover::build_segment_plan(
      CheckedMachine1d(3, true, legacy).compile(logical).checked);
  EXPECT_EQ(legacy1d.segments.size(), 3u);
  EXPECT_DOUBLE_EQ(legacy1d.mean_max_replay_share(), 1.0);
  const auto legacy2d = recover::build_segment_plan(
      CheckedMachine2d(3, true, legacy).compile(logical).checked);
  EXPECT_EQ(legacy2d.segments.size(), 6u);
  EXPECT_DOUBLE_EQ(legacy2d.mean_max_replay_share(), 1.0);

  const auto sched1d = recover::build_segment_plan(
      CheckedMachine1d(3, true, recovering_machine_options())
          .compile(logical)
          .checked);
  EXPECT_LT(sched1d.mean_max_replay_share(),
            legacy1d.mean_max_replay_share());
  EXPECT_NEAR(sched1d.mean_max_replay_share(), 2.0 / 3.0, 1e-12);
  const auto sched2d = recover::build_segment_plan(
      CheckedMachine2d(3, true, recovering_machine_options())
          .compile(logical)
          .checked);
  EXPECT_LT(sched2d.mean_max_replay_share(),
            legacy2d.mean_max_replay_share());
  EXPECT_NEAR(sched2d.mean_max_replay_share(), 5.0 / 9.0, 1e-12);
}

// Regression (zero-op segments): adjacent check positions can produce
// a checkpoint-only segment with op_count() == 0. The share accounting
// must score it 0 — skipping the division — instead of emitting NaN
// into every REPORT table downstream.
TEST(SegmentPlan, ZeroOpSegmentsDoNotPoisonReplayShares) {
  recover::SegmentPlan plan;
  recover::Segment work;
  work.begin = 0;
  work.end = 9;
  recover::ReplayComponent comp;
  comp.ops = {0, 1, 2, 3, 4};
  work.components.push_back(comp);
  plan.segments.push_back(work);
  recover::Segment empty;  // adjacent boundaries: end precedes begin
  empty.begin = 10;
  empty.end = 9;
  plan.segments.push_back(empty);
  plan.total_ops = 10;

  ASSERT_EQ(plan.segments[1].op_count(), 0u);
  EXPECT_FALSE(std::isnan(plan.mean_max_replay_share()));
  EXPECT_FALSE(std::isnan(plan.worst_replay_share()));
  EXPECT_DOUBLE_EQ(plan.mean_max_replay_share(), 0.25);  // (5/10 + 0) / 2
  EXPECT_DOUBLE_EQ(plan.worst_replay_share(), 0.5);
}

// The straddling_ops diagnostic is emitted verbatim into lint findings
// and REPORT JSON, so its sorted-unique contract is pinned: an op that
// straddles both via an operand span and a shared cell must appear
// once, in position order, within its segment's bounds.
TEST(SegmentPlan, StraddlingOpsAreSortedUniqueAndInBounds) {
  const auto program = CheckedMachine1d(6, true, recovering_machine_options())
                           .compile(scattered6());
  const auto plan = recover::build_segment_plan(program.checked);
  std::size_t total = 0;
  for (const auto& seg : plan.segments) {
    EXPECT_TRUE(std::is_sorted(seg.straddling_ops.begin(),
                               seg.straddling_ops.end()));
    EXPECT_EQ(std::adjacent_find(seg.straddling_ops.begin(),
                                 seg.straddling_ops.end()),
              seg.straddling_ops.end());
    for (const auto pos : seg.straddling_ops) {
      EXPECT_GE(pos, seg.begin);
      EXPECT_LE(pos, seg.end);
    }
    total += seg.straddling_ops.size();
  }
  EXPECT_GT(total, 0u);  // routing glue exists on this workload
}

TEST(SegmentPlan, RejectsEmbeddedCheckerBits) {
  Circuit c(3);
  c.maj(0, 1, 2).majinv(0, 1, 2);
  detect::ParityRailOptions opts;
  opts.embed_checkers = true;
  const auto checked = detect::to_parity_rail(c, opts);
  EXPECT_THROW(recover::build_segment_plan(checked), Error);
}

// The recovering engine evaluates rail checks from checkpoint_spans
// alone, so a checked circuit whose spans do not match its checkpoints
// (hand-assembled, not produced by detect::to_parity_rail) is rejected
// at plan time instead of read out of bounds during a run.
TEST(SegmentPlan, RejectsMissingCheckpointSpans) {
  Circuit c(3);
  c.maj(0, 1, 2).majinv(0, 1, 2);
  detect::CheckedCircuit checked = detect::to_parity_rail(c);
  EXPECT_NO_THROW(recover::build_segment_plan(checked));
  checked.checkpoint_spans.clear();
  try {
    recover::build_segment_plan(checked);
    FAIL() << "a plan was built without checkpoint_spans";
  } catch (const Error& err) {
    EXPECT_NE(std::string(err.what()).find("to_parity_rail"),
              std::string::npos)
        << err.what();
  }
}

// --- checkpoint/restore primitives -----------------------------------

TEST(Checkpoint, ScalarRestoreCellsIsSelective) {
  StateVector snap(4);
  snap.set_bit(1, 1);
  snap.set_bit(3, 1);
  StateVector state(4);
  state.set_bit(0, 1);
  recover::restore_cells(state, snap, {1, 3});
  EXPECT_EQ(state.bit(0), 1);  // untouched cell keeps its value
  EXPECT_EQ(state.bit(1), 1);
  EXPECT_EQ(state.bit(2), 0);
  EXPECT_EQ(state.bit(3), 1);
}

TEST(Checkpoint, PackedBlendIsPerLaneAndPerCell) {
  PackedState a(2), b(2);
  a.word(0) = 0xffff0000ffff0000ULL;
  a.word(1) = 0x1234567812345678ULL;
  b.word(0) = 0x00ff00ff00ff00ffULL;
  b.word(1) = 0x0ULL;
  const std::uint64_t lanes = 0x00000000ffffffffULL;
  LaneMask lane_mask(1);
  lane_mask.word(0) = lanes;

  PackedState dst = a;
  recover::blend_lanes(dst, b, lane_mask);
  EXPECT_EQ(dst.word(0), (a.word(0) & ~lanes) | (b.word(0) & lanes));
  EXPECT_EQ(dst.word(1), (a.word(1) & ~lanes) | (b.word(1) & lanes));

  dst = a;
  recover::blend_cells_lanes(dst, b, {1}, lane_mask);
  EXPECT_EQ(dst.word(0), a.word(0));  // cell 0 untouched
  EXPECT_EQ(dst.word(1), (a.word(1) & ~lanes) | (b.word(1) & lanes));

  recover::PackedCheckpoint cp;
  cp.capture(a);
  recover::PackedCheckpoint moved = cp;
  PackedState restored(2);
  moved.restore_all(restored);
  EXPECT_EQ(restored.word(0), a.word(0));
  EXPECT_EQ(restored.word(1), a.word(1));
}

// --- fault-free runs: no retries, no cost inflation ------------------

TEST(RecoveringRunner, CleanRunsAcceptWithNoRetries) {
  const Circuit logical = routed_toffoli3();
  const auto program =
      CheckedMachine1d(3, true, recovering_machine_options()).compile(logical);
  const auto plan = recover::build_segment_plan(program.checked);
  for (const auto policy :
       {recover::RetryPolicy::no_retry(), recover::RetryPolicy::whole_program(),
        recover::RetryPolicy::block_local()}) {
    const recover::RecoveringRunner runner(program.checked, plan, policy);
    for (unsigned input = 0; input < 8; ++input) {
      const auto out = runner.run(machine_input(program, input), {});
      EXPECT_TRUE(out.accepted);
      EXPECT_FALSE(out.detected);
      EXPECT_EQ(out.ops_executed, program.checked.circuit.size());
      EXPECT_EQ(out.local_retries, 0u);
      EXPECT_EQ(out.program_restarts, 0u);
      EXPECT_TRUE(output_correct(program, logical, out.state, input));
    }
  }
}

// --- the repair theorem ----------------------------------------------

// Exhaustive: for EVERY single-fault scenario (every op of the checked
// circuit, every corrupted local value, every logical input), the
// block-local runner with fault-free retries ends accepted with the
// CORRECT output. Detected faults are repaired (rolled back and
// replayed), silent ones are harmless by the machines' fault-security
// census — so recovery turns "fault-secure" into "fault-TOLERANT
// through detection", the paper's missing mechanism. Also pins that a
// healthy share of repairs resolves locally (no whole-program
// fallback) — the localization payoff the per-block rails exist for.
template <typename Machine>
void expect_every_single_fault_repaired(const Machine& machine,
                                        const Circuit& logical) {
  const auto program = machine.compile(logical);
  const auto plan = recover::build_segment_plan(program.checked);
  const recover::RecoveringRunner block_local(
      program.checked, plan, recover::RetryPolicy::block_local());
  const recover::RecoveringRunner no_retry(program.checked, plan,
                                           recover::RetryPolicy::no_retry());

  std::uint64_t detected = 0, repaired_locally = 0, fallbacks = 0;
  for (unsigned input = 0; input < (1u << logical.width()); ++input) {
    const StateVector sv = machine_input(program, input);
    const StateVector wide = detect::widen_input(program.checked, sv);
    const auto faults =
        enumerate_single_faults(program.checked.circuit, wide,
                                /*skip_benign=*/true);
    for (const FaultSpec& fault : faults) {
      const auto out = block_local.run(sv, {fault});
      ASSERT_TRUE(out.accepted)
          << "input " << input << " op " << fault.op_index;
      ASSERT_FALSE(out.exhausted);
      EXPECT_TRUE(output_correct(program, logical, out.state, input))
          << "input " << input << " op " << fault.op_index << " value "
          << fault.corrupted_local;
      if (out.detected) {
        ++detected;
        fallbacks += out.fallbacks;
        if (out.fallbacks == 0) ++repaired_locally;
        // The abort-only baseline rejects exactly the detected runs.
        EXPECT_FALSE(no_retry.run(sv, {fault}).accepted);
      }
    }
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(repaired_locally, fallbacks)
      << "most repairs must resolve locally — the localization payoff the "
         "per-block rails exist for";
}

// Both theorem instances run on the SCHEDULED programs — the shipped
// recovering configuration keeps the scheduling pass on, so the
// wave-packed, interior-cut layout is what gets exhaustively repaired
// (the assertion below keeps that coverage from silently rotting if
// the default ever flips).
TEST(RecoveringRunner, EverySingleFaultRepaired1d) {
  ASSERT_TRUE(recovering_machine_options().schedule.enabled);
  expect_every_single_fault_repaired(
      CheckedMachine1d(3, true, recovering_machine_options()),
      routed_toffoli3());
}

TEST(RecoveringRunner, EverySingleFaultRepaired2d) {
  expect_every_single_fault_repaired(
      CheckedMachine2d(3, true, recovering_machine_options()),
      routed_toffoli3());
}

// And the legacy layout stays repairable on opt-out: the scheduling
// knob changes localization economics, never correctness, in either
// position.
TEST(RecoveringRunner, EverySingleFaultRepairedWithScheduleOff1d) {
  CheckedMachineOptions legacy = recovering_machine_options();
  legacy.schedule.enabled = false;
  expect_every_single_fault_repaired(CheckedMachine1d(3, true, legacy),
                                     routed_toffoli3());
}

// Whole-program retry also repairs everything, by exactly one restart
// per detected scenario (retries are fault-free here).
TEST(RecoveringRunner, WholeProgramRestartsOncePerDetectedScenario) {
  const Circuit logical = routed_toffoli3();
  const auto program =
      CheckedMachine1d(3, true, recovering_machine_options()).compile(logical);
  const auto plan = recover::build_segment_plan(program.checked);
  const recover::RecoveringRunner runner(program.checked, plan,
                                         recover::RetryPolicy::whole_program());
  const StateVector sv = machine_input(program, 5);
  const StateVector wide = detect::widen_input(program.checked, sv);
  const auto faults = enumerate_single_faults(program.checked.circuit, wide,
                                              /*skip_benign=*/true);
  for (const FaultSpec& fault : faults) {
    const auto out = runner.run(sv, {fault});
    ASSERT_TRUE(out.accepted);
    EXPECT_EQ(out.program_restarts, out.detected ? 1u : 0u);
    EXPECT_TRUE(output_correct(program, logical, out.state, 5));
  }
}

// --- engine consistency: kNoRetry == the checked engine --------------

// Until a retry happens the recovering engine consumes randomness
// identically to detect's checked engine, so under kNoRetry (never
// retries) the outcome counts must agree BIT FOR BIT with
// run_parallel_checked_mc on the same seed — the recovering engine is
// a strict extension, not a fork, of the detection semantics. The
// config is rails-only: with zero checks armed the plan may evaluate a
// deferrable zero check at the merged boundary instead of its
// registered position (same values fault-free, but a fault on a
// compensation gate in between can dirty a checked cell), so the two
// engines' detected counts legitimately differ by a handful there —
// the rails-only configuration shares every check position exactly.
TEST(RecoveringMc, NoRetryMatchesCheckedEngineBitForBit) {
  const Circuit logical = scattered6();
  CheckedMachineOptions rails_only = recovering_machine_options();
  rails_only.zero_checks = false;
  const auto program =
      CheckedMachine1d(6, true, rails_only).compile(logical);

  CheckedMachineExperiment::Config cc;
  cc.trials = 20000;
  cc.seed = 0xabcdef12ULL;
  const CheckedMachineExperiment checked_exp(program, logical, cc);

  RecoveryExperiment::Config rc;
  rc.trials = cc.trials;
  rc.seed = cc.seed;
  const RecoveryExperiment recover_exp(program, logical, rc);

  for (const double g : {1e-3, 3e-3}) {
    const auto de = checked_exp.run(g, 2);
    const auto nr = recover_exp.run(g, recover::RetryPolicy::no_retry(), 2);
    EXPECT_EQ(nr.trials, de.trials);
    EXPECT_EQ(nr.detected_trials, de.detected);
    EXPECT_EQ(nr.rejected, de.detected);
    EXPECT_EQ(nr.accepted, de.accepted());
    EXPECT_EQ(nr.silent_failures, de.silent_failures);
    EXPECT_EQ(nr.ops_local, 0u);
    EXPECT_EQ(nr.ops_restart, 0u);
    EXPECT_EQ(nr.program_restarts, 0u);
  }
}

// --- determinism across worker counts (the ctest-enforced suite) -----

TEST(RecoveringMcDeterminism, AllPoliciesBitIdenticalAcrossThreads138) {
  const Circuit logical = scattered6();
  RecoveryExperiment::Config config;
  config.trials = 30000;
  const RecoveryExperiment exp(
      CheckedMachine1d(6, true, recovering_machine_options()).compile(logical),
      logical, config);

  for (const auto policy :
       {recover::RetryPolicy::no_retry(), recover::RetryPolicy::whole_program(),
        recover::RetryPolicy::block_local()}) {
    const auto t1 = exp.run(3e-3, policy, 1);
    const auto t3 = exp.run(3e-3, policy, 3);
    const auto t8 = exp.run(3e-3, policy, 8);
    EXPECT_EQ(t1, t3);  // operator== covers every counter, rails included
    EXPECT_EQ(t1, t8);
    EXPECT_EQ(t1.trials, config.trials);
    EXPECT_EQ(t1.accepted + t1.rejected, t1.trials);
  }
}

// --- the economics acceptance bar ------------------------------------

// At equal fallible-op budgets (same checked circuit, same trials) the
// measured block-local E[ops/accept] must not exceed whole-program's:
// localization can only save work. Both must deliver strictly more
// accepted trials than the abort-only baseline at noise levels where
// aborts are common.
template <typename Machine>
void expect_block_local_beats_whole_program(const Machine& machine,
                                            const Circuit& logical,
                                            double g) {
  RecoveryExperiment::Config config;
  config.trials = 30000;
  const RecoveryExperiment exp(machine.compile(logical), logical, config);
  const auto nr = exp.run(g, recover::RetryPolicy::no_retry());
  const auto wp = exp.run(g, recover::RetryPolicy::whole_program());
  const auto bl = exp.run(g, recover::RetryPolicy::block_local());

  EXPECT_GT(nr.detected_trials, 0u);
  EXPECT_GT(wp.accepted, nr.accepted);
  EXPECT_GT(bl.accepted, nr.accepted);
  EXPECT_LE(bl.expected_ops_per_accept(), wp.expected_ops_per_accept());
  // Localization shows up as replay work far smaller than restart work
  // per repaired trial; both policies accounted every op they ran.
  EXPECT_EQ(bl.ops_total(), bl.ops_main + bl.ops_local + bl.ops_restart);
  EXPECT_GT(bl.local_retries, 0u);
}

TEST(RecoveringMcEconomics, BlockLocalBeatsWholeProgram1d) {
  expect_block_local_beats_whole_program(
      CheckedMachine1d(6, true, recovering_machine_options()), scattered6(),
      3e-3);
}

TEST(RecoveringMcEconomics, BlockLocalBeatsWholeProgram2d) {
  expect_block_local_beats_whole_program(
      CheckedMachine2d(6, true, recovering_machine_options()), scattered6(),
      3e-3);
}

// Per-rail retry counters localize: on a 6-block machine every block's
// rail fires somewhere over a long noisy run, and the counters merge
// exactly (their sum is conserved across thread counts — covered by
// the determinism suite's operator==).
TEST(RecoveringMcEconomics, PerRailCountersNameSuspectBlocks) {
  const Circuit logical = scattered6();
  RecoveryExperiment::Config config;
  config.trials = 30000;
  const RecoveryExperiment exp(
      CheckedMachine1d(6, true, recovering_machine_options()).compile(logical),
      logical, config);
  const auto bl = exp.run(1e-2, recover::RetryPolicy::block_local());
  ASSERT_EQ(bl.rail_events.size(), 6u);
  for (std::size_t r = 0; r < bl.rail_events.size(); ++r)
    EXPECT_GT(bl.rail_events[r], 0u) << "rail " << r;
}

}  // namespace
}  // namespace revft
