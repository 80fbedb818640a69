#include "recover/recovering_mc.h"

#include <algorithm>
#include <bit>
#include <vector>

#include "detect/checked_mc.h"
#include "detect/slot_walk.h"
#include "recover/checkpoint.h"
#include "support/error.h"

namespace revft::recover {

namespace {

/// Evaluate the checks of `seg` on the slot-space state `s` for every
/// component in `watch` (a component bitmask), ORing per-lane fired
/// masks into comp_fired (pre-zeroed, W words per component,
/// component-major). When `est` is non-null the per-rail / zero-check
/// event counters are bumped for lanes in `count_mask` and the
/// matching kRailFired / kZeroCheckFired events go to `events`
/// (counting pass only: replay and restart re-evaluations pass a null
/// est and stay silent, so the event stream matches the estimate's
/// attribution exactly). Each rail reads its fixed slot set
/// (rails[r].rail_bit and rails[r].group) and each zero check the
/// slots its cells held at its own op (WalkIndex::zero_bits), where
/// they still are at the boundary (detail::check_zero_fold). The rail
/// and zero-check words come from the checked engine's evaluators.
template <unsigned W>
void eval_boundary(const detect::CheckedCircuit& checked, const Segment& seg,
                   const PackedState& s, std::uint64_t watch,
                   std::uint64_t* comp_fired, RecoveryEstimate* est,
                   const LaneMask& count_mask,
                   const telemetry::SpanEvents& events =
                       telemetry::SpanEvents(nullptr),
                   std::uint32_t seg_index = 0, std::uint64_t batch = 0) {
  const detect::WalkIndex& x = checked.walk;
  if (seg.checkpoint >= 0) {
    for (std::size_t r = 0; r < checked.rails.size(); ++r) {
      const std::uint32_t c = seg.component_of_rail[r];
      if (!((watch >> c) & 1ULL)) continue;
      std::uint64_t violated[W];
      detect::detail::rail_invariant_words<W>(s, checked.rails[r].rail_bit,
                                              checked.rails[r].group, violated);
      for (unsigned w = 0; w < W; ++w) comp_fired[c * W + w] |= violated[w];
      if (est != nullptr) {
        LaneMask counted = count_mask;
        for (unsigned w = 0; w < W; ++w) counted.word(w) &= violated[w];
        est->rail_events[r] += counted.popcount();
        events.emit_words(telemetry::EventKind::kRailFired, batch, counted,
                          seg_index, static_cast<std::uint16_t>(r));
      }
    }
  }
  for (std::size_t k = 0; k < seg.zero_checks.size(); ++k) {
    const std::uint32_t c = seg.component_of_zero_check[k];
    if (!((watch >> c) & 1ULL)) continue;
    const std::size_t z = seg.zero_checks[k];
    std::uint64_t mask[W];
    detect::detail::zero_check_words<W>(
        s,
        {x.zero_bits.data() + x.zero_start[z],
         x.zero_bits.data() + x.zero_start[z + 1]},
        mask);
    for (unsigned w = 0; w < W; ++w) comp_fired[c * W + w] |= mask[w];
    if (est != nullptr) {
      LaneMask counted = count_mask;
      for (unsigned w = 0; w < W; ++w) counted.word(w) &= mask[w];
      est->zero_check_events += counted.popcount();
      events.emit_words(telemetry::EventKind::kZeroCheckFired, batch, counted,
                        seg_index, static_cast<std::uint16_t>(z));
    }
  }
}

/// Walks segment `seg` of `s` in slot space with the segment's faults
/// (drawn or scripted, in op order) injected.
template <unsigned W>
void walk_segment(PackedState& s, const detect::WalkIndex& x,
                  const Segment& seg, std::span<const FaultEvent> events) {
  detect::detail::SpanOps ops{x.data_ops.data(), x.data_ops_before[seg.begin]};
  const FaultEvent* ev = events.data();
  detect::detail::walk_span<W>(s, x, ops, seg.end + 1, ev,
                               ev + events.size());
}

/// One replay of `comp` on `s`: draw the faults of all its ops, routing
/// included, in op order, then walk its data ops with them injected.
template <unsigned W>
void replay_component(PackedSimulator& sim, PackedState& s,
                      const detect::CheckedCircuit& checked,
                      const ReplayComponent& comp) {
  const detect::WalkIndex& x = checked.walk;
  const std::span<const FaultEvent> events = sim.draw_faults(
      checked.circuit, comp.kinds, 0, checked.circuit.size(), W);
  detect::detail::ListOps ops{x.data_ops.data(), comp.data_ops.data(),
                              comp.data_ops.data() + comp.data_ops.size()};
  const FaultEvent* ev = events.data();
  detect::detail::walk_span<W>(s, x, ops, checked.circuit.size(), ev,
                               ev + events.size());
}

/// Bitmask naming all `n` components of a segment (n <= 64).
std::uint64_t all_components(std::size_t n) {
  return n >= 64 ? ~0ULL : (1ULL << n) - 1;
}

/// OR of the per-component fired masks in comp_fired over `comps`.
template <unsigned W>
LaneMask fired_lanes(const std::uint64_t* comp_fired, std::uint64_t comps) {
  LaneMask fired(W);
  for (; comps != 0; comps &= comps - 1) {
    const unsigned c = static_cast<unsigned>(std::countr_zero(comps));
    for (unsigned w = 0; w < W; ++w) fired.word(w) |= comp_fired[c * W + w];
  }
  return fired;
}

/// run_recovering_mc_span at a compile-time lane width, so the walks
/// and boundary checks of every first pass, replay and restart run
/// fixed-trip word loops (with_lane_words picks the width, as for the
/// gate kernels). Every pass draws first, then walks in slot space
/// (detect/slot_walk.h): a batch's state stays in slot space from
/// prepare to the judge, which reads it after one undo of the final
/// renaming. A first pass draws its faults from `script` when
/// non-null (run_scripted_recovering), else from `sim`; replays and
/// restarts always draw from `sim`.
template <unsigned W, typename Classify>
RecoveryEstimate recovering_span(
    PackedSimulator& sim, PackedState& state,
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::uint64_t first_batch, std::uint64_t trials,
    const PrepareFn& prepare, const Classify& classify,
    telemetry::ShardTrace* trace, const ScriptedPass* script) {
  const Circuit& circuit = checked.circuit;
  const detect::WalkIndex& x = checked.walk;
  RecoveryEstimate est;
  est.rail_events.assign(checked.rails.size(), 0);
  est.segment_replays.assign(plan.segments.size(), 0);
  est.segment_replay_ops.assign(plan.segments.size(), 0);
  const telemetry::SpanEvents events(trace);
  telemetry::Histogram* replays_per_batch =
      events.on() ? &trace->metrics().histogram("recover.replays_per_batch",
                                                {0, 1, 2, 4, 8, 16, 32})
                  : nullptr;

  const std::uint64_t lanes_per_batch = 64ULL * W;
  const LaneMask no_lanes(W);
  PackedState scratch(circuit.width(), W);
  PackedCheckpoint entry_cp, boundary_cp;
  // Per-component fired masks, component-major: comp_fired[c*W + w].
  std::vector<std::uint64_t> comp_fired;
  // Block-local replay membership: member[c] = the outstanding lanes
  // whose fired set contains component c.
  std::vector<LaneMask> member;
  std::vector<int> program_left(lanes_per_batch, 0);
  // Restart passes: the pending lanes (owners), each lane's next lane
  // running an attempt of the same trial (-1 ends the chain), the last
  // lane of each owner's chain, and the ops each attempt lane paid.
  std::vector<unsigned> owners;
  owners.reserve(lanes_per_batch);
  std::vector<int> next_attempt(lanes_per_batch, -1);
  std::vector<unsigned> chain_tail(lanes_per_batch, 0);
  std::vector<std::uint64_t> attempt_ops(lanes_per_batch, 0);

  const std::uint64_t batches =
      (trials + lanes_per_batch - 1) / lanes_per_batch;
  for (std::uint64_t b = 0; b < batches; ++b) {
    const std::uint64_t batch = first_batch + b;
    const std::uint64_t lanes_this_batch =
        (b + 1 == batches && trials % lanes_per_batch != 0)
            ? trials % lanes_per_batch
            : lanes_per_batch;
    const LaneMask live = LaneMask::first_n(W, lanes_this_batch);
    state.clear();
    prepare(state, sim.rng(), batch);
    entry_cp.capture(state);
    // Only block-local rollback ever reads the boundary checkpoint;
    // the other policies restart from entry_cp, so skip the per-
    // boundary copies on their hot path (captures draw no randomness,
    // so this cannot shift any estimate).
    const bool keep_boundaries = policy.kind == RetryPolicyKind::kBlockLocal;
    if (keep_boundaries) boundary_cp.capture(state);
    std::fill(program_left.begin(), program_left.end(),
              policy.max_program_attempts);

    LaneMask active = live;
    LaneMask restart_pending(W);
    LaneMask rejected(W);
    LaneMask detected_lanes(W);
    std::uint64_t batch_replays = 0;

    // --- first pass: segment walk with per-boundary reaction --------
    for (std::size_t si = 0; si < plan.segments.size(); ++si) {
      const Segment& seg = plan.segments[si];
      const std::uint32_t seg_id = static_cast<std::uint32_t>(si);
      const std::size_t n_comp = seg.components.size();
      const std::size_t first = seg.begin, last = seg.end + 1;
      walk_segment<W>(
          state, x, seg,
          script != nullptr
              ? script->draw_faults(circuit, seg.kinds, first, last, W)
              : sim.draw_faults(circuit, seg.kinds, first, last, W));
      est.ops_main += seg.op_count() * active.popcount();
      comp_fired.assign(n_comp * W, 0);
      eval_boundary<W>(checked, seg, state, ~0ULL, comp_fired.data(), &est,
                       active, events, seg_id, batch);
      const LaneMask fired_any =
          fired_lanes<W>(comp_fired.data(), all_components(n_comp)) & active;
      if (fired_any.any()) {
        detected_lanes |= fired_any;
        switch (policy.kind) {
          case RetryPolicyKind::kNoRetry:
            rejected |= fired_any;
            active.remove(fired_any);
            break;
          case RetryPolicyKind::kWholeProgram:
            restart_pending |= fired_any;
            active.remove(fired_any);
            break;
          case RetryPolicyKind::kBlockLocal: {
            // One union replay per attempt serves every outstanding
            // lane: it replays each component some lane still needs,
            // and a lane is accepted when none of ITS components
            // re-fired. Components partition the segment's ops and the
            // cells their checks read (recover/plan.h), so replaying a
            // component a lane does not need never touches what that
            // lane is judged or blended on. A lane keeps its FULL
            // fired set until accepted: each attempt restores scratch
            // from the boundary checkpoint, so a component repaired in
            // a discarded attempt was never blended into `state`.
            member.assign(n_comp, LaneMask(W));
            std::uint64_t replay_set = 0;  // components with a member
            for (std::size_t c = 0; c < n_comp; ++c) {
              for (unsigned w = 0; w < W; ++w)
                member[c].word(w) = comp_fired[c * W + w] & fired_any.word(w);
              if (member[c].any()) replay_set |= 1ULL << c;
            }
            LaneMask outstanding = fired_any;
            for (int attempt = 0;
                 attempt < policy.max_local_attempts && outstanding.any();
                 ++attempt) {
              boundary_cp.restore_all(scratch);
              std::uint64_t pass_ops = 0;  // ops the vehicle executes
              std::uint64_t charged_ops = 0;  // per lane, summed
              for (std::uint64_t m = replay_set; m != 0; m &= m - 1) {
                const unsigned c = static_cast<unsigned>(std::countr_zero(m));
                const ReplayComponent& comp = seg.components[c];
                replay_component<W>(sim, scratch, checked, comp);
                pass_ops += comp.ops.size();
                charged_ops += comp.ops.size() * member[c].popcount();
              }
              const std::uint64_t consumers = outstanding.popcount();
              est.ops_local += charged_ops;
              est.local_retries += consumers;
              est.segment_replay_ops[si] += charged_ops;
              est.segment_replays[si] += consumers;
              batch_replays += consumers;
              events.emit_words(telemetry::EventKind::kCheckpointRestore,
                                batch, outstanding, seg_id);
              events.emit_words(telemetry::EventKind::kSegmentReplay, batch,
                                outstanding, seg_id, 0, pass_ops);
              comp_fired.assign(n_comp * W, 0);
              eval_boundary<W>(checked, seg, scratch, replay_set,
                               comp_fired.data(), nullptr, no_lanes);
              LaneMask clean = outstanding;
              for (std::uint64_t m = replay_set; m != 0; m &= m - 1) {
                const unsigned c = static_cast<unsigned>(std::countr_zero(m));
                for (unsigned w = 0; w < W; ++w)
                  clean.word(w) &=
                      ~(comp_fired[c * W + w] & member[c].word(w));
              }
              if (clean.none()) continue;
              for (std::uint64_t m = replay_set; m != 0; m &= m - 1) {
                const unsigned c = static_cast<unsigned>(std::countr_zero(m));
                const LaneMask take = member[c] & clean;
                if (take.none()) continue;
                blend_cells_lanes(state, scratch, seg.components[c].slots,
                                  take);
                member[c].remove(take);
                if (member[c].none()) replay_set &= ~(1ULL << c);
              }
              outstanding.remove(clean);
            }
            // Whatever is still outstanding exhausted its attempts.
            if (outstanding.any()) {
              est.fallbacks += outstanding.popcount();
              events.emit_words(telemetry::EventKind::kEscalationRestart,
                                batch, outstanding, seg_id);
              restart_pending |= outstanding;
              active.remove(outstanding);
            }
            break;
          }
        }
      }
      if (keep_boundaries) boundary_cp.capture(state);
    }

    est.trials += lanes_this_batch;
    est.detected_trials += detected_lanes.popcount();
    LaneMask accepted_lanes = active & live;

    // --- whole-program restarts (kWholeProgram, and kBlockLocal
    // fallbacks): full re-runs from the entry checkpoint. One pass runs
    // each pending lane's next attempts side by side — attempt 1 in its
    // own lane, attempts 2, 3, ... in the batch's idle lanes, handed out
    // in ascending lane order, round robin, up to the lane's
    // program_left. Attempts are i.i.d. given the entry state and mask
    // lanes are independent, so taking the first clean attempt in
    // attempt order and charging only the attempts up to it has the law
    // of one attempt per pass ------------------------------------------
    LaneMask pending = restart_pending;
    if (pending.any() && policy.max_program_attempts <= 0) {
      rejected |= pending;
      pending.clear();
    }
    while (pending.any()) {
      entry_cp.restore_all(scratch);
      owners.clear();
      for_each_lane(pending, [&](unsigned lane) {
        owners.push_back(lane);
        next_attempt[lane] = -1;
        chain_tail[lane] = lane;
      });
      LaneMask used = pending;
      unsigned idle = 0;  // next candidate idle lane
      for (int handed = 1; idle < lanes_per_batch; ++handed) {
        bool any_handed = false;
        for (const unsigned owner : owners) {
          if (program_left[owner] <= handed) continue;
          while (idle < lanes_per_batch && pending.test(idle)) ++idle;
          if (idle == lanes_per_batch) break;
          next_attempt[chain_tail[owner]] = static_cast<int>(idle);
          next_attempt[idle] = -1;
          chain_tail[owner] = idle;
          used.set(idle++);
          any_handed = true;
        }
        if (!any_handed) break;
      }
      for (const unsigned owner : owners) {
        LaneMask extra(W);
        for (int l = next_attempt[owner]; l >= 0; l = next_attempt[l])
          extra.set(static_cast<unsigned>(l));
        if (extra.any()) copy_lane(scratch, owner, extra);
      }

      LaneMask still_clean = used;
      std::uint64_t ops_run = 0;
      for (const Segment& seg : plan.segments) {
        walk_segment<W>(
            scratch, x, seg,
            sim.draw_faults(circuit, seg.kinds, seg.begin, seg.end + 1, W));
        ops_run += seg.op_count();
        comp_fired.assign(seg.components.size() * W, 0);
        eval_boundary<W>(checked, seg, scratch, ~0ULL, comp_fired.data(),
                         nullptr, no_lanes);
        // An attempt pays each segment up to its first fired boundary —
        // the point a physical whole-program retry would abort at.
        const LaneMask fired =
            fired_lanes<W>(comp_fired.data(),
                           all_components(seg.components.size())) &
            still_clean;
        for_each_lane(fired, [&](unsigned l) { attempt_ops[l] = ops_run; });
        still_clean.remove(fired);
        if (still_clean.none()) break;  // every attempt failed
      }
      for_each_lane(still_clean,
                    [&](unsigned l) { attempt_ops[l] = ops_run; });

      LaneMask accepted_now(W);
      for (const unsigned owner : owners) {
        for (int l = static_cast<int>(owner); l >= 0; l = next_attempt[l]) {
          const unsigned lane = static_cast<unsigned>(l);
          ++est.program_restarts;
          est.ops_restart += attempt_ops[lane];
          --program_left[owner];
          if (still_clean.test(lane)) {
            move_lane(state, owner, scratch, lane);
            accepted_now.set(owner);
            break;
          }
        }
        if (!accepted_now.test(owner) && program_left[owner] <= 0)
          rejected.set(owner);
      }
      accepted_lanes |= accepted_now;
      est.restart_accepts += accepted_now.popcount();
      pending.remove(accepted_now);
      pending.remove(rejected);
    }
    // move_lane wrote only the owner lanes, so every accepted lane's
    // final state is in `state`: one undo of the renaming and one
    // judgement cover them all.
    detect::detail::undo_renaming<W>(state, x);
    est.accepted += accepted_lanes.popcount();
    est.silent_failures +=
        revft::detail::judge_lanes(classify, state, batch, accepted_lanes)
            .popcount();
    est.rejected += rejected.popcount();
    if (replays_per_batch != nullptr) replays_per_batch->record(batch_replays);
    events.batch_accept(batch, accepted_lanes);
  }
  return est;
}

/// Checks the plan and the walk index, then runs recovering_span at the
/// state's lane width.
template <typename Classify>
RecoveryEstimate dispatch_span(
    PackedSimulator& sim, PackedState& state,
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::uint64_t first_batch, std::uint64_t trials,
    const PrepareFn& prepare, const Classify& classify,
    telemetry::ShardTrace* trace, const ScriptedPass* script) {
  REVFT_CHECK_MSG(plan.total_ops == checked.circuit.size(),
                  "run_recovering_mc_span: plan built for a different circuit");
  REVFT_CHECK_MSG(state.width() == checked.circuit.width(),
                  "run_recovering_mc_span: width mismatch");
  detect::check_walk_index(checked, "run_recovering_mc_span");
  return with_lane_words(state.lane_words(), "run_recovering_mc_span",
                         [&](auto W) {
                           return recovering_span<W>(
                               sim, state, checked, plan, policy, first_batch,
                               trials, prepare, classify, trace, script);
                         });
}

}  // namespace

RecoveryEstimate run_recovering_mc_span(
    PackedSimulator& sim, PackedState& state,
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::uint64_t first_batch, std::uint64_t trials,
    const PrepareFn& prepare, const JudgeFn& classify,
    telemetry::ShardTrace* trace) {
  return dispatch_span(sim, state, checked, plan, policy, first_batch, trials,
                       prepare, classify, trace, /*script=*/nullptr);
}

RecoveryEstimate run_recovering_mc_span(
    PackedSimulator& sim, PackedState& state,
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::uint64_t first_batch, std::uint64_t trials,
    const PrepareFn& prepare, const ClassifyFn& classify,
    telemetry::ShardTrace* trace) {
  return dispatch_span(sim, state, checked, plan, policy, first_batch, trials,
                       prepare, classify, trace, /*script=*/nullptr);
}

RecoveryEstimate run_scripted_recovering(
    const detect::CheckedCircuit& checked, const SegmentPlan& plan,
    const RetryPolicy& policy, std::span<const FaultScenario> scenarios,
    unsigned lane_words,
    const std::function<bool(const StateVector&, std::size_t)>& wrong) {
  ScriptedPass script(checked.circuit, checked.data_width, scenarios,
                      lane_words, wrong);
  PackedState state(checked.circuit.width(), lane_words);
  return dispatch_span(
      script.sim(), state, checked, plan, policy, /*first_batch=*/0,
      scenarios.size(),
      [&script](PackedState& s, Xoshiro256&, std::uint64_t batch) {
        script.prepare(s, batch);
      },
      [&script](const PackedState& s, int lane, std::uint64_t batch) {
        return script.classify(s, lane, batch);
      },
      /*trace=*/nullptr, &script);
}

}  // namespace revft::recover
