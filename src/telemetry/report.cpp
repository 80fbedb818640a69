#include "telemetry/report.h"

#include <algorithm>
#include <numeric>

#include "support/provenance.h"

namespace revft::telemetry {

namespace {

/// Largest-component share of one segment (static localization bound).
double max_component_share(const recover::Segment& seg) {
  std::size_t largest = 0;
  for (const recover::ReplayComponent& c : seg.components)
    largest = std::max(largest, c.ops.size());
  const double ops = static_cast<double>(seg.op_count());
  return ops > 0.0 ? static_cast<double>(largest) / ops : 0.0;
}

}  // namespace

RunReport build_run_report(const std::string& name,
                           const detect::CheckedCircuit& checked,
                           const detect::DetectionEstimate* detection,
                           const recover::RecoveryEstimate* recovery,
                           const recover::SegmentPlan* plan,
                           const Trace* trace) {
  RunReport report;
  report.name = name;

  const std::vector<std::uint64_t>* fired = nullptr;
  if (recovery != nullptr) {
    report.source = "rail_events";
    report.trials = recovery->trials;
    report.zero_check_fired = recovery->zero_check_events;
    fired = &recovery->rail_events;
  } else if (detection != nullptr) {
    report.source = "rail_detected";
    report.trials = detection->trials;
    report.zero_check_fired = detection->zero_check_detected;
    fired = &detection->rail_detected;
  }

  for (std::size_t r = 0; r < checked.rails.size(); ++r) {
    RailProfile row;
    row.rail = static_cast<std::uint32_t>(r);
    row.cells = checked.rails[r].group;
    if (fired != nullptr && r < fired->size()) row.fired = (*fired)[r];
    row.rate = report.trials != 0 ? static_cast<double>(row.fired) /
                                        static_cast<double>(report.trials)
                                  : 0.0;
    report.rails.push_back(std::move(row));
  }

  // Hot-block ranking: fired descending, ties toward the lower rail
  // index (stable sort over an index-ordered base) — deterministic.
  report.hot_rails.resize(report.rails.size());
  std::iota(report.hot_rails.begin(), report.hot_rails.end(), 0u);
  std::stable_sort(report.hot_rails.begin(), report.hot_rails.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return report.rails[a].fired > report.rails[b].fired;
                   });

  if (plan != nullptr) {
    for (std::size_t s = 0; s < plan->segments.size(); ++s) {
      const recover::Segment& seg = plan->segments[s];
      SegmentProfile row;
      row.segment = static_cast<std::uint32_t>(s);
      row.begin = seg.begin;
      row.end = seg.end;
      if (recovery != nullptr && s < recovery->segment_replays.size()) {
        row.replays = recovery->segment_replays[s];
        row.replay_ops = recovery->segment_replay_ops[s];
      }
      row.max_component_share = max_component_share(seg);
      row.straddling_ops = seg.straddling_ops;
      report.segments.push_back(std::move(row));
    }
  }

  if (trace != nullptr) {
    report.metrics = trace->metrics().to_json();
    report.events_emitted = trace->emitted();
    report.events_dropped = trace->dropped();
  }
  return report;
}

json::Value RunReport::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("name", name);
  doc.set("git_sha", provenance::git_sha());
  doc.set("compiler", provenance::compiler_version());
  doc.set("trials", trials);
  doc.set("seed", seed);
  doc.set("threads", threads);
  doc.set("source", source);

  json::Value rail_rows = json::Value::array();
  for (const RailProfile& r : rails) {
    json::Value row = json::Value::object();
    row.set("rail", static_cast<std::uint64_t>(r.rail));
    json::Value cells = json::Value::array();
    for (std::uint32_t c : r.cells) cells.push_back(static_cast<std::uint64_t>(c));
    row.set("cells", std::move(cells));
    row.set("fired", r.fired);
    row.set("rate", r.rate);
    rail_rows.push_back(std::move(row));
  }
  doc.set("rails", std::move(rail_rows));

  json::Value hot = json::Value::array();
  for (std::uint32_t r : hot_rails) hot.push_back(static_cast<std::uint64_t>(r));
  doc.set("hot_rails", std::move(hot));

  json::Value seg_rows = json::Value::array();
  for (const SegmentProfile& s : segments) {
    json::Value row = json::Value::object();
    row.set("segment", static_cast<std::uint64_t>(s.segment));
    row.set("begin", static_cast<std::uint64_t>(s.begin));
    row.set("end", static_cast<std::uint64_t>(s.end));
    row.set("replays", s.replays);
    row.set("replay_ops", s.replay_ops);
    row.set("max_component_share", s.max_component_share);
    json::Value straddlers = json::Value::array();
    for (std::size_t p : s.straddling_ops)
      straddlers.push_back(static_cast<std::uint64_t>(p));
    row.set("straddling_ops", std::move(straddlers));
    seg_rows.push_back(std::move(row));
  }
  doc.set("segments", std::move(seg_rows));

  doc.set("zero_check_fired", zero_check_fired);
  json::Value ev = json::Value::object();
  ev.set("emitted", events_emitted);
  ev.set("dropped", events_dropped);
  doc.set("events", std::move(ev));
  doc.set("metrics", metrics);
  return doc;
}

}  // namespace revft::telemetry
