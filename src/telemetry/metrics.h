// revft/telemetry/metrics.h
//
// The metrics registry of the telemetry subsystem: named fixed-bucket
// histograms of per-batch distributions (e.g. replays per batch) —
// what an Estimate cannot hold. Counts are not kept here: every count
// a run produces lives, exactly, in its engine's Estimate.
//
// Determinism contract — the same discipline every Estimate in this
// repo follows, generalized to open-ended metric sets: each shard of
// the thread-sharded Monte-Carlo engines owns a PRIVATE registry, and
// the per-shard registries merge IN SHARD ORDER after all workers
// finish (telemetry::Trace::absorb). Every merge is exact integer
// accumulation (buckets, count and sum add; min/max combine), so the
// merged registry is bit-identical for a fixed seed regardless of
// REVFT_THREADS — ctest-enforced across {1,3,8} in
// tests/test_telemetry.cpp.
//
// Registration is by name with a reference returned for the hot path:
// instrumentation looks a histogram up once per span (a string search
// over a handful of entries) and then records into it. Names double as
// the JSON keys of the exported registry, so keep them stable:
// "engine.metric[.qualifier]".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/json.h"

namespace revft::telemetry {

/// Fixed-bucket histogram: counts[i] counts values <= bounds[i]
/// (first matching bucket wins; bounds strictly increasing), the
/// final slot counts overflows (> bounds.back()). Also keeps exact
/// count/sum/min/max so a merged histogram can report central
/// numbers without rebinning.
struct Histogram {
  std::vector<std::uint64_t> bounds;  ///< inclusive upper bounds, ascending
  std::vector<std::uint64_t> counts;  ///< bounds.size() + 1 slots
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = UINT64_MAX;  ///< UINT64_MAX when empty
  std::uint64_t max = 0;

  void record(std::uint64_t value) noexcept {
    std::size_t i = 0;
    while (i < bounds.size() && value > bounds[i]) ++i;
    ++counts[i];
    ++count;
    sum += value;
    if (value < min) min = value;
    if (value > max) max = value;
  }

  /// Interpolated quantile over the inclusive-upper-bound buckets:
  /// rank q*count is located in its bucket and the value interpolated
  /// linearly between the bucket's lower edge (exclusive previous
  /// bound, 0 for the first bucket) and its inclusive upper bound.
  /// The overflow bucket has no finite upper edge, so ranks landing
  /// there return the last finite edge (bounds.back(); the exact max
  /// when there are no finite edges at all). q is clamped to [0,1];
  /// an empty histogram returns 0. Like count/sum/min/max this is
  /// exact under shard merging — buckets add, so the merged quantile
  /// is the quantile of the merged data at bucket resolution.
  double quantile(double q) const noexcept;

  bool operator==(const Histogram&) const = default;
};

/// One named histogram.
struct Metric {
  std::string name;
  Histogram histogram;

  bool operator==(const Metric&) const = default;
};

/// Ordered name -> histogram map. Registration order is serialization
/// order; merge() unions by name (entries absent on one side are
/// adopted), so shards that touched different histograms still combine
/// deterministically.
class MetricsRegistry {
 public:
  /// Find-or-create. Re-registration with different bounds is a
  /// contract violation and throws; so are bounds that are not
  /// strictly increasing. The reference stays valid until a new name
  /// is registered.
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds);

  /// Read-only lookup; nullptr when absent.
  const Metric* find(const std::string& name) const noexcept;
  const std::vector<Metric>& entries() const noexcept { return entries_; }

  /// Shard-order merge (exact integer accumulation; see file comment).
  void merge(const MetricsRegistry& other);

  /// Export as a JSON object: each histogram as {bounds, counts, count,
  /// sum, min, max} (min omitted when empty).
  json::Value to_json() const;

  bool operator==(const MetricsRegistry&) const = default;

 private:
  std::vector<Metric> entries_;
};

}  // namespace revft::telemetry
