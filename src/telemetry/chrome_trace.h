// revft/telemetry/chrome_trace.h
//
// Export a telemetry::Trace as Chrome trace-event JSON — the format
// chrome://tracing and Perfetto (https://ui.perfetto.dev) open
// directly. Each pipeline event becomes an instant event ("ph":"i")
// on the track of its emitting shard, with the logical coordinates
// (batch, segment, rail, lane mask, value) in "args".
//
// Timestamps: when the trace carried wall-clock ticks
// (TraceConfig::wall_clock) they become the "ts" microseconds,
// rebased so the first event sits at t=0. Without wall-clock, "ts" is
// the event's index in the merged stream — a synthetic but
// DETERMINISTIC timeline, so the exported file is bit-identical
// across runs and thread counts and can be golden-tested. Either way
// "ts" is presentation-layer only; determinism comparisons use the
// Trace payload, never this file.
#pragma once

#include <string>

#include "support/json.h"
#include "telemetry/trace.h"

namespace revft::telemetry {

/// Build the Chrome trace-event document ({"traceEvents": [...]}).
/// `process_name` labels the single process track (e.g. the bench
/// name).
json::Value chrome_trace_json(const Trace& trace,
                              const std::string& process_name);

}  // namespace revft::telemetry
