// revft/local/schedule.h
//
// Partition-aware scheduling: the last pass of Machine::compile, run
// on every §3 machine program. It breaks the whole-segment replay
// pathology of recover/plan.h (mean_max_replay_share = 1.0). The
// compiler emits routing as one serial chain of block transpositions
// and registers recovery boundaries only at stage ends, so every
// segment's SWAP traffic would glue all B rail territories into one
// union-find component — block-local retry would then replay the whole
// segment. This pass restructures the program around the rail-block
// territories:
//
//   * WAVE PACKING — consecutive block transpositions with disjoint
//     territory windows commute (they act on disjoint cells); an ASAP
//     greedy schedule groups them into waves, so a routing chain that
//     marched one block at a time becomes layers of parallel,
//     territory-disjoint exchanges;
//   * INTERIOR CUTS — after every wave of >= 2 disjoint
//     transpositions, and after every cycle core (interleave /
//     transversal gate / uninterleave — the ancillas are provably zero
//     again there), the pass places per-territory recovery boundaries
//     (zero check + rail checkpoint). Cut boundaries are emitted one
//     per touched territory, never spanning blocks — a multi-block
//     zero check would itself glue the rails it is meant to separate;
//   * STAGE BATCHING — runs of consecutive recovery stages on pairwise
//     disjoint blocks (the three per-block EC stages of a cycle, the
//     three block inits of a logical init) share one segment: the
//     non-final boundaries keep their zero checks but drop the rail
//     checkpoint (RecoveryBoundary::rail_checkpoint = false), so
//     recover/plan.cpp's merge_boundaries defers the checks into the
//     batch-end delimiter and the batch becomes one segment with one
//     independent component per block. Stages that revisit a block
//     (the 2D re-orientation of a block the cycle just recovered)
//     break the batch — deferring across a writer would be unsound.
//
// Singleton waves get no cut: a lone transposition flows forward into
// the next wave's segment (or the cycle core), which improves the mean
// share — a 45-op segment whose only component is the transposition
// itself would score 1.0. But a singleton CHAIN must not be allowed to
// flow into a cuttable wave: the chain conflicts with the wave (else
// packing would have merged them), so it would glue the wave's
// disjoint components into one. When pending singletons precede a
// wave of >= 2 transpositions, the pass seals the chain with a cut
// just before the wave — the chain segment stays glued (serial
// routing is glued by construction), but the wave keeps its 1/k share.
//
// Soundness: wave packing permutes only provably-commuting ops (the
// reordered region computes the same permutation), and cuts add only
// checks — cells the construction leaves zero fault-free — so the
// fault-free gate stream semantics are unchanged and detection is a
// superset. The static certifier (verify/certify.h) re-proves fault
// security of every scheduled program; tests/test_recover.cpp re-runs
// the exhaustive single-fault repair theorem on it.
#pragma once

#include "local/machine.h"

namespace revft {

/// Reschedule a compiled machine program in place: reorders routing
/// into waves, inserts interior recovery boundaries (zero-checking the
/// program's at-rest clean cells, MachineProgram::rest_clean), and
/// rewrites routing_spans / recovery_boundaries to match.
void schedule_program(MachineProgram& program);

}  // namespace revft
