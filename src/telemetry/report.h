// revft/telemetry/report.h
//
// The per-block profile report — the artifact ROADMAP's scheduling and
// adaptivity items consume. A RunReport condenses one traced run of
// the detect → localize → recover pipeline into:
//
//   * a RAIL TABLE: per rail (= per block under the checked machines'
//     partition) the entry-group cells, the fired count from whichever
//     estimate ran (DetectionEstimate::rail_detected, trial-counting,
//     or RecoveryEstimate::rail_events, event-counting — the source is
//     named), and the per-trial rate;
//   * a HOT-BLOCK RANKING: rail indices sorted by fired count
//     descending (ties broken toward the lower index so the ranking is
//     deterministic) — bench_telemetry cross-checks this ordering
//     against the exhaustive single-fault census;
//   * a SEGMENT TABLE: per segment the op span, replay attempts and
//     replayed ops (RecoveryEstimate::segment_replays /
//     segment_replay_ops, so the table fills with or without a trace),
//     the static worst-component replay share, and the
//     STRADDLING OPS — the gluers (Segment::straddling_ops) that chain
//     replay components together and are therefore WHY a poorly
//     localized segment replays more than 1/B of its ops;
//   * the merged histograms and event-stream accounting (with a trace).
//
// Everything in the exported JSON is derived from deterministic
// payloads, so REPORT_<name>.json is bit-identical across
// REVFT_THREADS for a fixed seed (the git-SHA stamp aside, across
// commits).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "detect/checked_mc.h"
#include "detect/rail.h"
#include "recover/plan.h"
#include "recover/retry.h"
#include "support/json.h"
#include "telemetry/trace.h"

namespace revft::telemetry {

/// One rail's (= one block's) row of the profile.
struct RailProfile {
  std::uint32_t rail = 0;
  /// The rail's entry-group cells (detect::RailInfo::group).
  std::vector<std::uint32_t> cells;
  /// Fired count from the run's estimate (see `source` on RunReport).
  std::uint64_t fired = 0;
  /// fired / trials.
  double rate = 0.0;
};

/// One segment's row of the replay profile.
struct SegmentProfile {
  std::uint32_t segment = 0;
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t replays = 0;     ///< component replay attempts landed here
  std::uint64_t replay_ops = 0;  ///< ops re-executed here across all replays
  /// Static worst localization: (largest component op count) /
  /// (segment op count).
  double max_component_share = 0.0;
  /// Positions of the ops gluing replay components together
  /// (Segment::straddling_ops) — the scheduling pass' target list.
  std::vector<std::size_t> straddling_ops;
};

/// The condensed profile of one traced run.
struct RunReport {
  std::string name;
  std::uint64_t trials = 0;
  std::uint64_t seed = 0;
  int threads = 0;
  /// Which per-rail counter filled the rail table: "rail_events"
  /// (recovery run) or "rail_detected" (detection run).
  std::string source;
  std::vector<RailProfile> rails;          ///< rail order
  std::vector<std::uint32_t> hot_rails;    ///< rail indices, hottest first
  std::vector<SegmentProfile> segments;    ///< empty without a plan
  std::uint64_t zero_check_fired = 0;
  std::uint64_t events_emitted = 0;
  std::uint64_t events_dropped = 0;
  json::Value metrics = json::Value::object();

  json::Value to_json() const;
};

/// Assemble a report. Exactly one of `detection` / `recovery` should
/// be non-null (both null yields an empty rail table; if both are
/// given the recovery estimate wins — it is the richer signal).
/// `plan` (nullable) fills the segment table: its static columns from
/// the plan, its replay columns from the recovery estimate (zero for a
/// detection run). `trace` (nullable) fills the histogram snapshot and
/// the event accounting.
RunReport build_run_report(const std::string& name,
                           const detect::CheckedCircuit& checked,
                           const detect::DetectionEstimate* detection,
                           const recover::RecoveryEstimate* recovery,
                           const recover::SegmentPlan* plan,
                           const Trace* trace);

}  // namespace revft::telemetry
