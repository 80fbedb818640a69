// Telemetry subsystem tests: the metrics registry's exact-integer
// merge discipline, the ring-buffer event sink (including the null
// sink's zero-allocation promise), thread-count determinism of traced
// pipeline runs, the Chrome-trace exporter's JSON round-trip, and the
// hot-spot ranking cross-check against the exhaustive single-fault
// census — the ctest gate behind bench_telemetry's PASS columns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "ft/detect_experiment.h"
#include "ft/experiments.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "support/error.h"
#include "support/json.h"
#include "telemetry/chrome_trace.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"

// --- global allocation counter (for the null-sink guarantee) ----------
//
// Counts every path through the global operator new. The null-sink
// test snapshots it around a burst of emit() calls: a capacity-0
// ShardTrace must not allocate — its hot path is one branch.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
// The nothrow forms too (std::stable_sort's temporary buffer uses
// them): left to the library they would pair its allocator with the
// free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// The replacement operator new above is malloc-backed, so free() IS
// the matching deallocator — silence GCC's new/free pairing check,
// which can't see through the replacement.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#pragma GCC diagnostic pop

namespace revft {
namespace {

using telemetry::Event;
using telemetry::EventKind;
using telemetry::Histogram;
using telemetry::MetricsRegistry;
using telemetry::ShardTrace;
using telemetry::Trace;
using telemetry::TraceConfig;

// --- histogram bucket semantics ---------------------------------------

TEST(TelemetryMetrics, HistogramBucketEdgesAreInclusiveUpperBounds) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1, 2, 4});
  ASSERT_EQ(h.counts.size(), 4u);  // 3 bounds + overflow

  for (const std::uint64_t v : {0, 1, 2, 3, 4, 5})
    h.record(static_cast<std::uint64_t>(v));

  // 0,1 <= 1 | 2 <= 2 | 3,4 <= 4 | 5 overflows.
  EXPECT_EQ(h.counts[0], 2u);
  EXPECT_EQ(h.counts[1], 1u);
  EXPECT_EQ(h.counts[2], 2u);
  EXPECT_EQ(h.counts[3], 1u);
  EXPECT_EQ(h.count, 6u);
  EXPECT_EQ(h.sum, 15u);
  EXPECT_EQ(h.min, 0u);
  EXPECT_EQ(h.max, 5u);
}

TEST(TelemetryMetrics, QuantileInterpolatesWithinBuckets) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {10, 20, 40});
  // 4 samples in (0,10], 4 in (10,20], 2 in (20,40].
  for (const std::uint64_t v : {2, 4, 6, 8}) h.record(v);
  for (const std::uint64_t v : {12, 14, 16, 18}) h.record(v);
  for (const std::uint64_t v : {25, 35}) h.record(v);

  // rank = q * 10; buckets hold cumulative 4 / 8 / 10.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);    // lower edge of first bucket
  EXPECT_DOUBLE_EQ(h.quantile(0.2), 5.0);    // rank 2 of 4 in [0,10]
  EXPECT_DOUBLE_EQ(h.quantile(0.4), 10.0);   // exactly the bucket edge
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 12.5);   // rank 1 of 4 in (10,20]
  EXPECT_DOUBLE_EQ(h.quantile(0.9), 30.0);   // rank 1 of 2 in (20,40]
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 40.0);   // upper edge of last bucket
}

TEST(TelemetryMetrics, QuantileOverflowBucketReturnsLastFiniteEdge) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {1, 2});
  h.record(100);  // lands in the unbounded overflow bucket
  h.record(200);
  // The overflow bucket has no finite upper edge, so any quantile that
  // lands there is clamped to the last finite bound.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 2.0);
}

TEST(TelemetryMetrics, QuantileClampsAndHandlesEmpty) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("h", {8});
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);  // empty histogram
  h.record(4);
  EXPECT_DOUBLE_EQ(h.quantile(-1.0), h.quantile(0.0));  // clamped below
  EXPECT_DOUBLE_EQ(h.quantile(2.0), h.quantile(1.0));   // clamped above
}

TEST(TelemetryMetrics, QuantileIsExactUnderShardMerging) {
  // Merged shard histograms must report the same quantiles as one
  // histogram that saw every sample — the bucket counts are exact
  // integers, so the interpolation sees identical state.
  MetricsRegistry whole;
  Histogram& w = whole.histogram("h", {1, 2, 5, 10});

  MetricsRegistry a, b;
  Histogram& ha = a.histogram("h", {1, 2, 5, 10});
  Histogram& hb = b.histogram("h", {1, 2, 5, 10});
  for (std::uint64_t v = 0; v < 40; ++v) {
    w.record(v % 12);
    (v % 2 == 0 ? ha : hb).record(v % 12);
  }
  a.merge(b);
  for (const double q : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(a.find("h")->histogram.quantile(q), w.quantile(q)) << q;
}

TEST(TelemetryMetrics, EmptyHistogramHasSentinelMin) {
  MetricsRegistry reg;
  const Histogram& h = reg.histogram("h", {10});
  EXPECT_EQ(h.count, 0u);
  EXPECT_EQ(h.min, UINT64_MAX);
  EXPECT_EQ(h.max, 0u);
  // to_json omits "min" for an empty histogram (there is none).
  const json::Value doc = reg.to_json();
  const json::Value* entry = doc.find("h");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->find("min"), nullptr);
}

// --- registry contract ------------------------------------------------

TEST(TelemetryMetrics, BoundsMismatchThrows) {
  MetricsRegistry reg;
  reg.histogram("h", {1, 2});
  EXPECT_NO_THROW(reg.histogram("h", {1, 2}));  // same bounds: found
  EXPECT_THROW(reg.histogram("h", {1, 3}), Error);  // bounds change
  EXPECT_THROW(reg.histogram("g", {2, 2}), Error);  // not increasing
  EXPECT_EQ(reg.entries().size(), 1u);
}

TEST(TelemetryMetrics, MergeIsExactIntegerAccumulation) {
  MetricsRegistry a;
  a.histogram("h", {4}).record(3);
  a.histogram("h", {4}).record(5);

  MetricsRegistry b;
  b.histogram("h", {4}).record(7);
  b.histogram("only_b", {1}).record(1);

  a.merge(b);
  const Histogram& h = a.find("h")->histogram;
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum, 15u);
  EXPECT_EQ(h.counts[0], 1u);  // 3 <= 4
  EXPECT_EQ(h.counts[1], 2u);  // 5, 7 overflow
  EXPECT_EQ(h.min, 3u);
  EXPECT_EQ(h.max, 7u);
  ASSERT_NE(a.find("only_b"), nullptr);  // union adopts absent entries
  EXPECT_EQ(a.find("only_b")->histogram.count, 1u);
  EXPECT_THROW(a.merge([] {
                 MetricsRegistry c;
                 c.histogram("h", {8});
                 return c;
               }()),
               Error);  // same name, other bounds
}

// --- ring-buffer event sink -------------------------------------------

Event make_event(std::uint64_t batch) {
  Event e;
  e.kind = EventKind::kRailFired;
  e.batch = batch;
  e.lanes = 1;
  return e;
}

TEST(TelemetryTrace, RingKeepsNewestEventsInOrder) {
  TraceConfig cfg;
  cfg.ring_capacity = 4;
  Trace trace(cfg);
  auto shards = trace.make_shards(1);
  for (std::uint64_t i = 0; i < 10; ++i) shards[0].emit(make_event(i));

  EXPECT_EQ(shards[0].emitted(), 10u);
  EXPECT_EQ(shards[0].dropped(), 6u);
  const auto events = shards[0].ordered_events();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].batch, 6 + i);
}

TEST(TelemetryTrace, FillPhaseKeepsEmissionOrder) {
  TraceConfig cfg;
  cfg.ring_capacity = 8;
  Trace trace(cfg);
  auto shards = trace.make_shards(1);
  for (std::uint64_t i = 0; i < 5; ++i) shards[0].emit(make_event(i));
  const auto events = shards[0].ordered_events();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(events[i].batch, i);
  EXPECT_EQ(shards[0].dropped(), 0u);
}

TEST(TelemetryTrace, NullSinkNeverAllocates) {
  TraceConfig cfg;
  cfg.ring_capacity = 0;  // the null sink
  Trace trace(cfg);
  auto shards = trace.make_shards(1);
  EXPECT_FALSE(shards[0].enabled());

  const Event e = make_event(1);
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 100000; ++i) shards[0].emit(e);
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
  EXPECT_EQ(shards[0].emitted(), 0u);  // the null sink counts nothing
  EXPECT_EQ(shards[0].ordered_events().size(), 0u);
}

TEST(TelemetryTrace, AbsorbMergesInShardIndexOrder) {
  Trace trace;
  auto shards = trace.make_shards(3);
  // Emit out of shard order — absorb order must not care.
  shards[2].emit(make_event(20));
  shards[0].emit(make_event(0));
  shards[1].emit(make_event(10));
  shards[0].emit(make_event(1));
  shards[0].metrics().histogram("h", {2}).record(1);
  shards[2].metrics().histogram("h", {2}).record(4);
  shards[2].metrics().histogram("g", {2}).record(0);
  trace.absorb(shards);

  ASSERT_EQ(trace.events().size(), 4u);
  EXPECT_EQ(trace.events()[0].batch, 0u);  // shard 0 first...
  EXPECT_EQ(trace.events()[1].batch, 1u);
  EXPECT_EQ(trace.events()[2].batch, 10u);  // ...then shard 1, shard 2
  EXPECT_EQ(trace.events()[3].batch, 20u);
  const Histogram& h = trace.metrics().find("h")->histogram;
  EXPECT_EQ(h.count, 2u);
  EXPECT_EQ(h.sum, 5u);
  EXPECT_EQ(trace.metrics().entries()[0].name, "h");  // shard 0's first
  EXPECT_EQ(trace.metrics().entries()[1].name, "g");
  EXPECT_EQ(trace.emitted(), 4u);
}

// --- traced pipeline determinism across worker counts -----------------

Circuit scattered_workload() {
  Circuit logical(10);
  logical.maj(9, 4, 0)
      .toffoli(0, 7, 9)
      .majinv(4, 1, 8)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return logical;
}

TEST(TelemetryDeterminism, DetectionTraceBitIdenticalAcrossThreads) {
  const Circuit logical = scattered_workload();
  const auto program = CheckedMachine1d(10).compile(logical);
  CheckedMachineExperiment::Config config;
  config.trials = 20000;
  const CheckedMachineExperiment exp(program, logical, config);

  Trace traces[3];
  detect::DetectionEstimate ests[3];
  const int threads[3] = {1, 3, 8};
  for (int i = 0; i < 3; ++i) ests[i] = exp.run(1e-3, threads[i], &traces[i]);

  EXPECT_TRUE(traces[0].deterministic_equal(traces[1]));
  EXPECT_TRUE(traces[0].deterministic_equal(traces[2]));
  EXPECT_EQ(ests[0], ests[1]);
  EXPECT_EQ(ests[0], ests[2]);
  EXPECT_GT(traces[0].emitted(), 0u);
}

TEST(TelemetryDeterminism, RecoveryTraceBitIdenticalAcrossThreads) {
  const Circuit logical = scattered_workload();
  const auto program =
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical);
  RecoveryExperiment::Config config;
  config.trials = 20000;
  const RecoveryExperiment exp(program, logical, config);

  Trace traces[3];
  recover::RecoveryEstimate ests[3];
  const int threads[3] = {1, 3, 8};
  for (int i = 0; i < 3; ++i)
    ests[i] = exp.run(3e-3, recover::RetryPolicy::block_local(), threads[i],
                      &traces[i]);

  EXPECT_TRUE(traces[0].deterministic_equal(traces[1]));
  EXPECT_TRUE(traces[0].deterministic_equal(traces[2]));
  EXPECT_EQ(ests[0], ests[1]);
  EXPECT_EQ(ests[0], ests[2]);
  EXPECT_GT(traces[0].emitted(), 0u);
}

// --- Chrome-trace export ----------------------------------------------

TEST(TelemetryChromeTrace, SyntheticTimestampsRoundTripThroughStrictParser) {
  Trace trace;
  auto shards = trace.make_shards(1);
  for (std::uint64_t i = 0; i < 3; ++i) shards[0].emit(make_event(i));
  trace.absorb(shards);

  const json::Value doc = telemetry::chrome_trace_json(trace, "test");
  const std::string text = doc.dump(2);
  const json::ParseResult parsed = json::parse(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;

  const json::Value* events = parsed.value.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // Metadata record + one instant per event.
  ASSERT_EQ(events->size(), 4u);
  EXPECT_EQ(events->elements()[0].find("ph")->as_string(), "M");
  for (std::size_t i = 1; i < 4; ++i) {
    const json::Value& ev = events->elements()[i];
    EXPECT_EQ(ev.find("ph")->as_string(), "i");
    EXPECT_EQ(ev.find("name")->as_string(), "rail_fired");
    // No wall clock: ts is the deterministic event index.
    EXPECT_EQ(ev.find("ts")->as_uint(), i - 1);
  }

  // Golden determinism: an identical trace exports byte-identical JSON.
  Trace trace2;
  auto shards2 = trace2.make_shards(1);
  for (std::uint64_t i = 0; i < 3; ++i) shards2[0].emit(make_event(i));
  trace2.absorb(shards2);
  EXPECT_EQ(telemetry::chrome_trace_json(trace2, "test").dump(2), text);
}

// --- the hot-spot ranking vs the exhaustive census --------------------

Circuit census_workload() {
  Circuit logical(3);
  logical.toffoli(2, 1, 0).maj(0, 1, 2);
  return logical;
}

/// Pairwise bar shared with bench_telemetry: wherever the census
/// separates two rails by >= 25%, the sampled ordering must agree.
void expect_ranking_matches_census(const CheckedMachineProgram& program,
                                   const Circuit& logical) {
  const auto census = machine_detection_census(program, logical);
  ASSERT_EQ(census.rail_detected.size(), program.checked.rails.size());
  EXPECT_GT(census.total_rail_detected(), 0u);

  CheckedMachineExperiment::Config config;
  config.trials = 50000;
  const CheckedMachineExperiment exp(program, logical, config);
  Trace trace;
  const auto est = exp.run(1e-2, 1, &trace);

  const telemetry::RunReport report = telemetry::build_run_report(
      "census_check", program.checked, &est, nullptr, nullptr, &trace);
  ASSERT_EQ(report.rails.size(), census.rail_detected.size());
  EXPECT_EQ(report.source, "rail_detected");

  for (std::size_t a = 0; a < census.rail_detected.size(); ++a)
    for (std::size_t b = 0; b < census.rail_detected.size(); ++b) {
      const std::uint64_t ca = census.rail_detected[a];
      const std::uint64_t cb = census.rail_detected[b];
      if (ca < cb + (cb + 3) / 4) continue;  // not materially separated
      EXPECT_GE(report.rails[a].fired, report.rails[b].fired)
          << "census ranks rail " << a << " (" << ca << ") above rail " << b
          << " (" << cb << ") but the sampled profile disagrees";
    }

  // hot_rails is the fired-descending order with index tie-breaks.
  for (std::size_t i = 1; i < report.hot_rails.size(); ++i) {
    const auto prev = report.rails[report.hot_rails[i - 1]].fired;
    const auto cur = report.rails[report.hot_rails[i]].fired;
    EXPECT_GE(prev, cur);
    if (prev == cur) {
      EXPECT_LT(report.hot_rails[i - 1], report.hot_rails[i]);
    }
  }
}

TEST(TelemetryReport, HotSpotRankingMatchesCensus1d) {
  const Circuit logical = census_workload();
  expect_ranking_matches_census(CheckedMachine1d(3).compile(logical), logical);
}

TEST(TelemetryReport, HotSpotRankingMatchesCensus2d) {
  const Circuit logical = census_workload();
  expect_ranking_matches_census(CheckedMachine2d(3).compile(logical), logical);
}

// --- RunReport assembly -----------------------------------------------

TEST(TelemetryReport, RecoveryReportFillsSegmentTableFromEstimate) {
  const Circuit logical = scattered_workload();
  const auto program =
      CheckedMachine1d(10, true, recovering_machine_options()).compile(logical);
  RecoveryExperiment::Config config;
  config.trials = 20000;
  const RecoveryExperiment exp(program, logical, config);

  Trace trace;
  const auto est =
      exp.run(3e-3, recover::RetryPolicy::block_local(), 1, &trace);
  const telemetry::RunReport report = telemetry::build_run_report(
      "recover_report", program.checked, nullptr, &est, &exp.plan(), &trace);

  EXPECT_EQ(report.source, "rail_events");
  EXPECT_EQ(report.trials, est.trials);
  ASSERT_EQ(report.segments.size(), exp.plan().segments.size());
  std::uint64_t replays = 0;
  for (const auto& seg : report.segments) replays += seg.replays;
  EXPECT_EQ(replays, est.local_retries);

  // The exported document survives the strict parser.
  const json::ParseResult parsed = json::parse(report.to_json().dump(2));
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_EQ(parsed.value.find("source")->as_string(), "rail_events");
  EXPECT_EQ(parsed.value.find("rails")->size(),
            program.checked.rails.size());

  // The segment table needs no trace: an untraced run of the same seed
  // fills the same rows, and they split the estimate's replay totals.
  const auto untraced = exp.run(3e-3, recover::RetryPolicy::block_local(), 1);
  EXPECT_EQ(untraced, est);
  const telemetry::RunReport bare = telemetry::build_run_report(
      "recover_report", program.checked, nullptr, &untraced, &exp.plan(),
      nullptr);
  ASSERT_EQ(bare.segments.size(), report.segments.size());
  std::uint64_t bare_replays = 0;
  std::uint64_t bare_replay_ops = 0;
  for (std::size_t s = 0; s < bare.segments.size(); ++s) {
    EXPECT_EQ(bare.segments[s].replays, report.segments[s].replays);
    EXPECT_EQ(bare.segments[s].replay_ops, report.segments[s].replay_ops);
    bare_replays += bare.segments[s].replays;
    bare_replay_ops += bare.segments[s].replay_ops;
  }
  EXPECT_GT(untraced.local_retries, 0u);
  EXPECT_EQ(bare_replays, untraced.local_retries);
  EXPECT_EQ(bare_replay_ops, untraced.ops_local);
}

}  // namespace
}  // namespace revft
