// revft/telemetry/trace.h
//
// Structured event tracing for the detect → localize → recover
// pipeline. An Event is a small POD stamped with LOGICAL coordinates
// only — batch index, segment id, rail id, packed lane mask — never
// wall-clock time: the deterministic payload must be bit-identical
// across REVFT_THREADS, and wall-clock is the one thing threads can
// never agree on. Wall-clock spans live in a PARALLEL array
// (ShardTrace::ticks) that the Chrome-trace exporter consumes and the
// determinism comparison ignores (Event/ShardTrace operator== never
// look at it).
//
// Counts are not kept here. Every count a run produces — trials,
// failures, detections, retries, per-rail and per-segment tallies —
// lives in its engine's Estimate, exact and merged the same way; the
// trace keeps what an Estimate cannot hold: the event stream and
// per-batch histograms (telemetry/metrics.h).
//
// Sinks:
//   * ShardTrace — a per-shard ring buffer. Preallocated at
//     make_shard() time; emit() is a bounds check plus a struct store,
//     with no allocation on the hot path. Capacity 0 is the NULL SINK:
//     emit() is a single predictable branch. When the ring wraps, the
//     OLDEST events are dropped (dropped_ counts them) — the Estimate
//     still counts everything, so totals never lie even when the event
//     window does.
//   * SpanEvents — the one hook every engine's span loop emits
//     through, resolved once per span. With a null or null-sink trace
//     each of its calls is one branch, so a run without telemetry
//     executes the same per-lane work as one that never had it
//     (bench_telemetry holds the disabled overhead <= 3%, CI-enforced).
//   * Trace — the per-run session. Hands out ShardTraces, absorbs
//     them IN SHARD-INDEX ORDER after the workers join (same merge
//     discipline as every Estimate in this repo), and owns the merged
//     histograms + event stream that report.h and chrome_trace.h
//     consume.
//
// Trial identity: the packed engines process 64 lanes per batch, so
// an event's (batch, lanes) pair names trials batch*64+lane for every
// set bit of `lanes`. Scalar engines use lanes == 1u<<0.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "noise/lanes.h"
#include "telemetry/metrics.h"

namespace revft::telemetry {

/// What happened. Values are stable (they appear in exported JSON).
enum class EventKind : std::uint8_t {
  kRailFired = 0,        ///< a parity rail mismatched at a boundary
  kZeroCheckFired = 1,   ///< an ancilla zero-check caught a fault
  kCheckpointRestore = 2,///< lanes rolled back to a checkpoint image
  kSegmentReplay = 3,    ///< a segment's ops re-executed for some lanes
  kEscalationRestart = 4,///< block-local retry gave up; whole-trial restart
  kBatchAccept = 5,      ///< a batch of lanes left the pipeline accepted
};

/// Stable lower-case name ("rail_fired", ...) used in exported JSON.
const char* event_kind_name(EventKind kind) noexcept;

/// One traced occurrence. 32 bytes; logical coordinates only (see
/// file comment). Fields that do not apply to a kind are 0.
struct Event {
  EventKind kind = EventKind::kRailFired;
  std::uint8_t shard = 0;    ///< shard that emitted (informational)
  std::uint16_t rail = 0;    ///< rail index (kRailFired) / check index
  std::uint32_t segment = 0; ///< segment id (replay/restore events)
  std::uint64_t batch = 0;   ///< batch index within the run
  std::uint64_t lanes = 0;   ///< packed lane mask (trial = batch*64+lane)
  std::uint64_t value = 0;   ///< kind-specific payload (e.g. ops replayed)

  bool operator==(const Event&) const = default;
};

/// Tracing configuration, fixed at Trace construction.
struct TraceConfig {
  /// Ring capacity per shard, in events. 0 = null sink (events and
  /// histograms both off; hooks reduce to one branch).
  std::size_t ring_capacity = 1 << 16;
  /// Record wall-clock ticks alongside events (for Chrome export).
  /// Never affects the deterministic payload.
  bool wall_clock = false;
};

/// Per-shard event sink. Owned by Trace; handed to exactly one worker
/// (no internal synchronization — the sharding already guarantees
/// exclusive access, the same way each shard owns its partial
/// Estimate).
class ShardTrace {
 public:
  ShardTrace() = default;

  /// Null sink? (capacity 0 — emit() drops everything in one branch.)
  bool enabled() const noexcept { return capacity_ != 0; }

  void emit(const Event& e) noexcept {
    if (capacity_ == 0) return;
    ++seen_;
    if (events_.size() < capacity_) {
      events_.push_back(e);
      if (clock_) ticks_.push_back(now_ticks());
    } else {
      // Ring wrapped: overwrite the oldest slot (next_ points at it).
      ++dropped_;
      events_[next_] = e;
      if (clock_) ticks_[next_] = now_ticks();
      next_ = (next_ + 1 == capacity_) ? 0 : next_ + 1;
    }
  }

  MetricsRegistry& metrics() noexcept { return metrics_; }
  std::uint8_t shard_index() const noexcept { return shard_index_; }

  /// Events in emission order (un-rotating the ring).
  std::vector<Event> ordered_events() const;
  /// Wall-clock ticks (ns since an arbitrary epoch) parallel to
  /// ordered_events(); empty when wall_clock was off.
  std::vector<std::uint64_t> ordered_ticks() const;

  std::uint64_t emitted() const noexcept { return seen_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  friend class Trace;
  static std::uint64_t now_ticks() noexcept;

  std::vector<Event> events_;
  std::vector<std::uint64_t> ticks_;
  MetricsRegistry metrics_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;  ///< oldest slot (= next overwrite) once wrapped
  std::uint64_t seen_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint8_t shard_index_ = 0;
  bool clock_ = false;
};

/// The event hook of an engine's span loop — the only way run_mc_span,
/// run_checked_mc_span and the recovering span emit. Built once per
/// span from the shard's (nullable) ShardTrace; a null or null-sink
/// trace leaves it off, and every call is then one branch. Events
/// carry the shard index of the sink they land in.
class SpanEvents {
 public:
  explicit SpanEvents(ShardTrace* trace) noexcept
      : trace_(trace != nullptr && trace->enabled() ? trace : nullptr) {}

  bool on() const noexcept { return trace_ != nullptr; }

  /// One event; fields that do not apply to `kind` stay 0.
  void emit(EventKind kind, std::uint64_t batch, std::uint64_t lanes,
            std::uint32_t segment = 0, std::uint16_t rail = 0,
            std::uint64_t value = 0) const noexcept {
    if (trace_ == nullptr) return;
    Event ev;
    ev.kind = kind;
    ev.shard = trace_->shard_index();
    ev.rail = rail;
    ev.segment = segment;
    ev.batch = batch;
    ev.lanes = lanes;
    ev.value = value;
    trace_->emit(ev);
  }

  /// One event per nonzero lane word of `lanes`, in word order.
  void emit_words(EventKind kind, std::uint64_t batch, const LaneMask& lanes,
                  std::uint32_t segment = 0, std::uint16_t rail = 0,
                  std::uint64_t value = 0) const {
    if (trace_ == nullptr) return;
    for (unsigned w = 0; w < lanes.words(); ++w)
      if (lanes.word(w) != 0)
        emit(kind, batch, lanes.word(w), segment, rail, value);
  }

  /// One kBatchAccept per lane word — empty words included — naming
  /// the word's accepted lanes, valued by their count.
  void batch_accept(std::uint64_t batch, const LaneMask& accepted) const {
    if (trace_ == nullptr) return;
    for (unsigned w = 0; w < accepted.words(); ++w)
      emit(EventKind::kBatchAccept, batch, accepted.word(w), 0, 0,
           static_cast<std::uint64_t>(std::popcount(accepted.word(w))));
  }

 private:
  ShardTrace* trace_;
};

/// Per-run tracing session. Lifecycle:
///   Trace trace(config);
///   auto shards = trace.make_shards(n);     // before spawning workers
///   ... workers emit into shards[shard.index] ...
///   trace.absorb(shards);                   // after join, shard order
/// Single-threaded engines can use make_shards(1) and absorb the one
/// shard, or emit through shard(0) convenience accessors.
class Trace {
 public:
  explicit Trace(TraceConfig config = {}) : config_(config) {}

  const TraceConfig& config() const noexcept { return config_; }

  /// Preallocate one ShardTrace per shard (indexed by shard.index so
  /// concurrent workers touch disjoint elements).
  std::vector<ShardTrace> make_shards(std::size_t count) const;

  /// Merge per-shard traces in shard-index order: histograms merge
  /// exactly, events concatenate. Call once per engine run; repeated
  /// calls accumulate (a run with a detection phase and a recovery
  /// phase absorbs twice).
  void absorb(std::vector<ShardTrace>& shards);

  const MetricsRegistry& metrics() const noexcept { return metrics_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }
  const std::vector<Event>& events() const noexcept { return events_; }
  const std::vector<std::uint64_t>& ticks() const noexcept { return ticks_; }
  std::uint64_t emitted() const noexcept { return emitted_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

  /// Deterministic-payload equality: histograms + events, NEVER ticks.
  bool deterministic_equal(const Trace& other) const noexcept {
    return metrics_ == other.metrics_ && events_ == other.events_;
  }

 private:
  TraceConfig config_;
  MetricsRegistry metrics_;
  std::vector<Event> events_;
  std::vector<std::uint64_t> ticks_;  ///< parallel to events_ when clocked
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace revft::telemetry
