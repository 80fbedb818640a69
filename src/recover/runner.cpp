#include "recover/runner.h"

#include <algorithm>

#include "recover/checkpoint.h"
#include "support/error.h"

namespace revft::recover {

namespace {

/// Apply op `i`, honoring at most one injected fault (first pass only).
void apply_op(const Circuit& circuit, StateVector& state, std::size_t i,
              const std::vector<int>& fault_at,
              const std::vector<FaultSpec>& faults) {
  const Gate& g = circuit.op(i);
  const int fi = fault_at[i];
  if (fi < 0) {
    state.apply(g);
    return;
  }
  const unsigned v = faults[static_cast<std::size_t>(fi)].corrupted_local;
  const int n = g.arity();
  REVFT_CHECK_MSG(v < (1u << n), "corrupted_local " << v << " exceeds arity");
  for (int k = 0; k < n; ++k)
    state.set_bit(g.bits[static_cast<std::size_t>(k)],
                  static_cast<std::uint8_t>((v >> k) & 1u));
}

}  // namespace

RecoveringRunner::RecoveringRunner(const detect::CheckedCircuit& checked,
                                   const SegmentPlan& plan,
                                   const RetryPolicy& policy)
    : checked_(checked), plan_(plan), policy_(policy) {
  REVFT_CHECK_MSG(plan.total_ops == checked.circuit.size(),
                  "RecoveringRunner: plan built for a different circuit");
}

ScalarRecoveryOutcome RecoveringRunner::run(
    const StateVector& data_input, const std::vector<FaultSpec>& faults,
    telemetry::ShardTrace* trace, std::uint64_t trial) const {
  const Circuit& circuit = checked_.circuit;
  const bool tracing = trace != nullptr && trace->enabled();
  std::uint64_t* m_trials = nullptr;
  std::uint64_t* m_accepted = nullptr;
  std::uint64_t* m_local = nullptr;
  std::uint64_t* m_restarts = nullptr;
  std::uint64_t* m_fallbacks = nullptr;
  std::vector<std::uint64_t>* m_rail = nullptr;
  if (tracing) {
    // Register before taking handles (registration may reallocate).
    telemetry::MetricsRegistry& m = trace->metrics();
    m.counter("runner.trials");
    m.counter("runner.accepted");
    m.counter("runner.local_retries");
    m.counter("runner.program_restarts");
    m.counter("runner.fallbacks");
    m.counter_vec("runner.rail_events", checked_.rails.size());
    m_trials = &m.counter("runner.trials");
    m_accepted = &m.counter("runner.accepted");
    m_local = &m.counter("runner.local_retries");
    m_restarts = &m.counter("runner.program_restarts");
    m_fallbacks = &m.counter("runner.fallbacks");
    m_rail = &m.counter_vec("runner.rail_events", checked_.rails.size());
    ++*m_trials;
  }
  const auto emit = [&](telemetry::EventKind kind, std::uint32_t segment,
                        std::uint16_t rail, std::uint64_t value) {
    if (!tracing) return;
    telemetry::Event ev;
    ev.kind = kind;
    ev.shard = trace->shard_index();
    ev.rail = rail;
    ev.segment = segment;
    ev.batch = trial;
    ev.lanes = 1;
    ev.value = value;
    trace->emit(ev);
  };
  std::vector<int> fault_at(circuit.size(), -1);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    REVFT_CHECK_MSG(faults[i].op_index < circuit.size(),
                    "fault op_index " << faults[i].op_index << " out of range");
    REVFT_CHECK_MSG(fault_at[faults[i].op_index] < 0,
                    "duplicate fault on op " << faults[i].op_index);
    fault_at[faults[i].op_index] = static_cast<int>(i);
  }

  ScalarRecoveryOutcome out;
  out.rail_events.assign(checked_.rails.size(), 0);
  StateVector state = detect::widen_input(checked_, data_input);
  const StateVector entry = state;  // the entry checkpoint
  StateVector boundary = state;     // last accepted boundary

  // Evaluate the checks at a segment's end; returns the fired
  // components restricted to `watch` (~0 = all), recording counters.
  const auto fired_components = [&](const Segment& seg, std::uint32_t seg_id,
                                    const StateVector& s, std::uint64_t watch,
                                    bool count) -> std::uint64_t {
    std::uint64_t fired = 0;
    if (seg.checkpoint >= 0) {
      const detect::CheckpointSpan& span =
          checked_.checkpoint_spans[static_cast<std::size_t>(seg.checkpoint)];
      for (std::size_t r = 0; r < checked_.rails.size(); ++r) {
        const std::uint64_t comp = 1ULL << seg.component_of_rail[r];
        if (!(watch & comp)) continue;
        if (detect::rail_invariant(s, checked_.rails[r].rail_bit,
                                   span.group(r)) != 0) {
          fired |= comp;
          if (count) {
            ++out.rail_events[r];
            if (tracing) ++(*m_rail)[r];
            emit(telemetry::EventKind::kRailFired, seg_id,
                 static_cast<std::uint16_t>(r), 0);
          }
        }
      }
    }
    for (std::size_t k = 0; k < seg.zero_checks.size(); ++k) {
      const std::uint64_t comp = 1ULL << seg.component_of_zero_check[k];
      if (!(watch & comp)) continue;
      for (const std::uint32_t bit :
           checked_.zero_checks[seg.zero_checks[k]].bits) {
        if (s.bit(bit) != 0) {
          fired |= comp;
          if (count) {
            ++out.zero_check_events;
            emit(telemetry::EventKind::kZeroCheckFired, seg_id,
                 static_cast<std::uint16_t>(seg.zero_checks[k]), 0);
          }
          break;
        }
      }
    }
    return fired;
  };

  // Whole-program restart: fault-free re-run from the entry
  // checkpoint, re-checking every boundary. Returns true on accept.
  const auto restart = [&]() -> bool {
    for (int attempt = 0; attempt < policy_.max_program_attempts; ++attempt) {
      ++out.program_restarts;
      if (tracing) ++*m_restarts;
      state = entry;
      out.ops_executed += circuit.size();
      bool clean = true;
      std::size_t pos = 0;
      for (std::size_t si = 0; si < plan_.segments.size(); ++si) {
        const Segment& seg = plan_.segments[si];
        for (; pos <= seg.end; ++pos) state.apply(circuit.op(pos));
        if (fired_components(seg, static_cast<std::uint32_t>(si), state, ~0ULL,
                             /*count=*/false) != 0) {
          clean = false;
          break;
        }
      }
      if (clean) return true;  // always, for circuits clean fault-free
    }
    return false;
  };

  const auto finish = [&](bool accepted) -> ScalarRecoveryOutcome {
    out.accepted = accepted;
    if (accepted) {
      if (tracing) ++*m_accepted;
      emit(telemetry::EventKind::kBatchAccept, 0, 0, 1);
    }
    out.state = std::move(state);
    return std::move(out);
  };

  std::size_t pos = 0;
  for (std::size_t si = 0; si < plan_.segments.size(); ++si) {
    const Segment& seg = plan_.segments[si];
    const std::uint32_t seg_id = static_cast<std::uint32_t>(si);
    for (; pos <= seg.end; ++pos) apply_op(circuit, state, pos, fault_at, faults);
    out.ops_executed += seg.op_count();
    std::uint64_t fired =
        fired_components(seg, seg_id, state, ~0ULL, /*count=*/true);
    if (fired == 0) {
      boundary = state;  // accept the boundary
      continue;
    }
    out.detected = true;
    switch (policy_.kind) {
      case RetryPolicyKind::kNoRetry:
        return finish(false);  // aborted: not accepted, not exhausted
      case RetryPolicyKind::kWholeProgram: {
        if (!restart()) {
          out.exhausted = true;
          return finish(false);
        }
        return finish(true);  // a clean full run needs no further walking
      }
      case RetryPolicyKind::kBlockLocal: {
        for (int attempt = 0;
             fired != 0 && attempt < policy_.max_local_attempts; ++attempt) {
          ++out.local_retries;
          if (tracing) ++*m_local;
          emit(telemetry::EventKind::kCheckpointRestore, seg_id, 0, 0);
          for (std::size_t c = 0; c < seg.components.size(); ++c) {
            if (!((fired >> c) & 1ULL)) continue;
            restore_cells(state, boundary, seg.components[c].cells);
          }
          std::uint64_t replay_ops = 0;
          for (std::size_t k = 0; k < seg.component_of_op.size(); ++k) {
            if (!((fired >> seg.component_of_op[k]) & 1ULL)) continue;
            state.apply(circuit.op(seg.begin + k));  // replays run clean
            ++out.ops_executed;
            ++replay_ops;
          }
          emit(telemetry::EventKind::kSegmentReplay, seg_id, 0, replay_ops);
          fired = fired_components(seg, seg_id, state, fired, /*count=*/false);
        }
        if (fired != 0) {
          // Local repair failed (damage predates the boundary): fall
          // back to a whole-program restart.
          ++out.fallbacks;
          if (tracing) ++*m_fallbacks;
          emit(telemetry::EventKind::kEscalationRestart, seg_id, 0, 0);
          if (!restart()) {
            out.exhausted = true;
            return finish(false);
          }
          return finish(true);
        }
        boundary = state;  // repaired boundary is now accepted
        break;
      }
    }
  }
  return finish(true);
}

}  // namespace revft::recover
