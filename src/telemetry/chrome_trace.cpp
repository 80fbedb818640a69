#include "telemetry/chrome_trace.h"

#include <algorithm>

#include "support/provenance.h"

namespace revft::telemetry {

json::Value chrome_trace_json(const Trace& trace,
                              const std::string& process_name) {
  json::Value events = json::Value::array();

  // Metadata: name the process track so Perfetto shows which bench
  // produced the file.
  json::Value meta = json::Value::object();
  meta.set("name", "process_name");
  meta.set("ph", "M");
  meta.set("pid", 0);
  meta.set("tid", 0);
  json::Value meta_args = json::Value::object();
  meta_args.set("name", process_name);
  meta.set("args", std::move(meta_args));
  events.push_back(std::move(meta));

  const bool clocked = trace.ticks().size() == trace.events().size() &&
                       !trace.ticks().empty();
  std::uint64_t epoch = 0;
  if (clocked) {
    epoch = trace.ticks().front();
    for (std::uint64_t t : trace.ticks()) epoch = std::min(epoch, t);
  }

  for (std::size_t i = 0; i < trace.events().size(); ++i) {
    const Event& e = trace.events()[i];
    json::Value ev = json::Value::object();
    ev.set("name", event_kind_name(e.kind));
    ev.set("cat", "revft");
    ev.set("ph", "i");
    ev.set("s", "t");  // instant scope: thread
    // Wall-clock microseconds when available; otherwise the event's
    // index in the merged stream (synthetic but deterministic).
    ev.set("ts", clocked ? (trace.ticks()[i] - epoch) / 1000
                         : static_cast<std::uint64_t>(i));
    ev.set("pid", 0);
    ev.set("tid", static_cast<std::uint64_t>(e.shard));
    json::Value args = json::Value::object();
    args.set("batch", e.batch);
    args.set("segment", static_cast<std::uint64_t>(e.segment));
    args.set("rail", static_cast<std::uint64_t>(e.rail));
    args.set("lanes", e.lanes);
    args.set("value", e.value);
    ev.set("args", std::move(args));
    events.push_back(std::move(ev));
  }

  json::Value doc = json::Value::object();
  doc.set("traceEvents", std::move(events));
  doc.set("displayTimeUnit", "ms");
  json::Value other = json::Value::object();
  other.set("git_sha", provenance::git_sha());
  other.set("emitted", trace.emitted());
  other.set("dropped", trace.dropped());
  doc.set("otherData", std::move(other));
  return doc;
}

}  // namespace revft::telemetry
