#include "telemetry/convergence.h"

#include "support/provenance.h"
#include "telemetry/metrics.h"

namespace revft::telemetry {

json::Value EarlyStopPolicy::to_json() const {
  json::Value obj = json::Value::object();
  obj.set("z", z);
  obj.set("target_half_width", target_half_width);
  obj.set("target_rel_half_width", target_rel_half_width);
  obj.set("target_upper_bound", target_upper_bound);
  obj.set("min_trials", min_trials);
  obj.set("min_failures", min_failures);
  return obj;
}

const char* stop_reason_name(StopReason reason) noexcept {
  switch (reason) {
    case StopReason::kNone: return "none";
    case StopReason::kExhausted: return "exhausted";
    case StopReason::kHalfWidth: return "half_width";
    case StopReason::kRelHalfWidth: return "rel_half_width";
    case StopReason::kUpperBound: return "upper_bound";
  }
  return "unknown";
}

StopReason decide_stop(const EarlyStopPolicy& policy, std::uint64_t raw_trials,
                       const BernoulliEstimate& headline) noexcept {
  if (!policy.enabled()) return StopReason::kNone;
  if (raw_trials < policy.min_trials) return StopReason::kNone;
  // A zero-denominator headline (e.g. every trial aborted so far in a
  // post-selected engine) carries no statistical information — its
  // Wilson interval is the [0,1] prior, which can never satisfy a
  // meaningful target, but keep the guard explicit.
  if (headline.trials == 0) return StopReason::kNone;
  const double hw = headline.half_width(policy.z);
  if (policy.target_half_width > 0.0 && hw <= policy.target_half_width)
    return StopReason::kHalfWidth;
  if (policy.target_rel_half_width > 0.0 &&
      headline.failures >= policy.min_failures &&
      hw <= policy.target_rel_half_width * headline.rate())
    return StopReason::kRelHalfWidth;
  if (policy.target_upper_bound > 0.0 &&
      headline.wilson_interval(policy.z).hi <= policy.target_upper_bound)
    return StopReason::kUpperBound;
  return StopReason::kNone;
}

json::Value DeterminismKey::to_json() const {
  json::Value obj = json::Value::object();
  obj.set("trials", trials);
  obj.set("seed", seed);
  obj.set("batches_per_shard", batches_per_shard);
  obj.set("lane_words", static_cast<std::uint64_t>(lane_words));
  return obj;
}

double WallProfile::total_seconds() const noexcept {
  double total = 0.0;
  for (double s : round_seconds) total += s;
  return total;
}

json::Value WallProfile::to_json() const {
  // 1-2-5 microsecond buckets up to 10s: wide enough for any round,
  // fine enough that the percentiles mean something.
  Histogram hist;
  for (std::uint64_t decade = 1; decade <= 10000000ULL; decade *= 10) {
    hist.bounds.push_back(decade);
    hist.bounds.push_back(2 * decade);
    hist.bounds.push_back(5 * decade);
  }
  hist.counts.assign(hist.bounds.size() + 1, 0);
  for (double s : round_seconds)
    hist.record(static_cast<std::uint64_t>(s * 1e6));

  json::Value obj = json::Value::object();
  obj.set("rounds", static_cast<std::uint64_t>(round_seconds.size()));
  obj.set("total_seconds", total_seconds());
  obj.set("p50_us", hist.quantile(0.50));
  obj.set("p90_us", hist.quantile(0.90));
  obj.set("p99_us", hist.quantile(0.99));
  obj.set("max_us", static_cast<double>(hist.count > 0 ? hist.max : 0));
  return obj;
}

void ConvergenceTrajectory::record(std::uint64_t round,
                                   std::uint64_t raw_trials,
                                   const BernoulliEstimate& headline) {
  ConvergenceSnapshot snap;
  snap.round = round;
  snap.trials = raw_trials;
  snap.denominator = headline.trials;
  snap.failures = headline.failures;
  snap.rate = headline.rate();
  snap.half_width = headline.half_width(policy.z);
  snapshots.push_back(snap);
}

bool ConvergenceTrajectory::deterministic_equal(
    const ConvergenceTrajectory& other) const noexcept {
  return name == other.name && engine == other.engine && key == other.key &&
         policy == other.policy && snapshots == other.snapshots &&
         stop_reason == other.stop_reason;
}

json::Value ConvergenceTrajectory::to_json() const {
  json::Value doc = json::Value::object();
  doc.set("name", name);
  doc.set("git_sha", provenance::git_sha());
  doc.set("compiler", provenance::compiler_version());
  doc.set("engine", engine);
  doc.set("determinism_key", key.to_json());
  doc.set("policy", policy.to_json());

  json::Value snaps = json::Value::array();
  for (const ConvergenceSnapshot& s : snapshots) {
    json::Value row = json::Value::object();
    row.set("round", s.round);
    row.set("trials", s.trials);
    row.set("denominator", s.denominator);
    row.set("failures", s.failures);
    row.set("rate", s.rate);
    row.set("half_width", s.half_width);
    snaps.push_back(std::move(row));
  }
  doc.set("snapshots", std::move(snaps));

  json::Value stop = json::Value::object();
  stop.set("reason", stop_reason_name(stop_reason));
  stop.set("stopped_early", stopped_early());
  stop.set("rounds", rounds());
  stop.set("trials_budget", key.trials);
  stop.set("trials_consumed", trials_consumed());
  doc.set("stop", std::move(stop));

  doc.set("wall", wall.to_json());
  return doc;
}

namespace {

/// One ph:"C" counter sample. Chrome's counter tracks graph each args
/// key as a series, so rate and half-width share one track and the
/// trial count gets its own (different vertical scales).
json::Value counter_event(const char* name, std::uint64_t ts,
                          const char* key, double value) {
  json::Value ev = json::Value::object();
  ev.set("name", name);
  ev.set("cat", "revft");
  ev.set("ph", "C");
  ev.set("ts", ts);
  ev.set("pid", 0);
  json::Value args = json::Value::object();
  args.set(key, value);
  ev.set("args", std::move(args));
  return ev;
}

}  // namespace

json::Value convergence_chrome_json(const ConvergenceTrajectory& trajectory,
                                    const std::string& process_name) {
  json::Value events = json::Value::array();

  json::Value meta = json::Value::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("pid", 0);
  meta.set("tid", 0);
  json::Value meta_args = json::Value::object();
  meta_args.set("name", process_name);
  meta.set("args", std::move(meta_args));
  events.push_back(std::move(meta));

  for (const ConvergenceSnapshot& s : trajectory.snapshots) {
    // ts = round index: synthetic but deterministic (see chrome_trace.h
    // on why presentation timelines must never leak wall-clock into a
    // golden-testable file).
    events.push_back(counter_event("conv.rate", s.round, "rate", s.rate));
    events.push_back(
        counter_event("conv.half_width", s.round, "half_width", s.half_width));
    events.push_back(counter_event("conv.trials", s.round, "trials",
                                   static_cast<double>(s.trials)));
  }

  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  json::Value other = json::Value::object();
  other.set("git_sha", provenance::git_sha());
  other.set("engine", trajectory.engine);
  other.set("stop_reason", stop_reason_name(trajectory.stop_reason));
  doc.set("otherData", std::move(other));
  return doc;
}

}  // namespace revft::telemetry
