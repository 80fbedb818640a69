#include "telemetry/metrics.h"

#include <algorithm>

#include "support/error.h"

namespace revft::telemetry {

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::uint64_t> bounds) {
  REVFT_CHECK_MSG(std::is_sorted(bounds.begin(), bounds.end()) &&
                      std::adjacent_find(bounds.begin(), bounds.end()) ==
                          bounds.end(),
                  "histogram '" + name + "' bounds must be strictly increasing");
  for (Metric& m : entries_) {
    if (m.name != name) continue;
    REVFT_CHECK_MSG(m.histogram.bounds == bounds,
                    "histogram '" + name + "' re-registered with other bounds");
    return m.histogram;
  }
  Metric& m = entries_.emplace_back();
  m.name = name;
  m.histogram.bounds = std::move(bounds);
  m.histogram.counts.assign(m.histogram.bounds.size() + 1, 0);
  return m.histogram;
}

double Histogram::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const double next = cum + static_cast<double>(counts[i]);
    const bool last = i + 1 == counts.size();
    if ((rank <= next && counts[i] > 0) || last) {
      if (i >= bounds.size()) {
        // Overflow bucket: no finite upper edge to interpolate toward.
        return bounds.empty() ? static_cast<double>(max)
                              : static_cast<double>(bounds.back());
      }
      const double lo = i == 0 ? 0.0 : static_cast<double>(bounds[i - 1]);
      const double hi = static_cast<double>(bounds[i]);
      const double frac = (rank - cum) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * frac;
    }
    cum = next;
  }
  return static_cast<double>(max);  // unreachable: count > 0
}

const Metric* MetricsRegistry::find(const std::string& name) const noexcept {
  for (const Metric& m : entries_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const Metric& theirs : other.entries_) {
    Histogram& mine = histogram(theirs.name, theirs.histogram.bounds);
    for (std::size_t i = 0; i < mine.counts.size(); ++i)
      mine.counts[i] += theirs.histogram.counts[i];
    mine.count += theirs.histogram.count;
    mine.sum += theirs.histogram.sum;
    mine.min = std::min(mine.min, theirs.histogram.min);
    mine.max = std::max(mine.max, theirs.histogram.max);
  }
}

json::Value MetricsRegistry::to_json() const {
  json::Value obj = json::Value::object();
  for (const Metric& m : entries_) {
    json::Value h = json::Value::object();
    json::Value bounds = json::Value::array();
    for (std::uint64_t b : m.histogram.bounds) bounds.push_back(b);
    json::Value counts = json::Value::array();
    for (std::uint64_t c : m.histogram.counts) counts.push_back(c);
    h.set("bounds", std::move(bounds));
    h.set("counts", std::move(counts));
    h.set("count", m.histogram.count);
    h.set("sum", m.histogram.sum);
    if (m.histogram.count > 0) h.set("min", m.histogram.min);
    h.set("max", m.histogram.max);
    obj.set(m.name, std::move(h));
  }
  return obj;
}

}  // namespace revft::telemetry
