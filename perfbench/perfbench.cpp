// perfbench — the plain, checked and recovering Monte-Carlo engines,
// measured end to end and layer by layer on three fixed workloads.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --reference FILE [--out DIR]
//
// Every workload is a closed loop with one client: build the workload
// from its logical circuit, run one fixed-budget Monte-Carlo run
// through its ft/ experiment class's run_streaming (never-stop policy,
// so the run reproduces run() bit for bit and every merged round is
// one timing sample), wait for the estimate, and start over with the
// next seed derived from --seed, until S seconds have passed.
//
//   --trace 0  prints the end-to-end metrics (README.md has the list).
//   --trace 1  runs the per-layer measurements instead: timed setup
//              phases, traced vs untraced streams, 1 vs 2 workers, and
//              interleaved span differentials; writes a Chrome trace
//              of its spans and a per-layer metrics file into DIR.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics. Each correctness check (estimate
// inside a 5-sigma band around reference FILE, a fault-free pass with
// no failures, exact repeat of every count for a fixed seed) is one
// attempted operation; a failed check counts against it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "code/block_tree.h"
#include "detect/checked_mc.h"
#include "ft/concat.h"
#include "ft/experiments.h"
#include "ft/machine_kernel.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "noise/monte_carlo.h"
#include "recover/plan.h"
#include "recover/recovering_mc.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/stats.h"
#include "telemetry/stream.h"
#include "telemetry/trace.h"

using namespace revft;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Linearly interpolated quantile (q in [0, 1]) of a non-empty sample.
double quantile(std::vector<double> v, double q) {
  REVFT_CHECK_MSG(!v.empty(), "quantile of an empty sample");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(pos);
  if (i + 1 >= v.size()) return v.back();
  return v[i] + (pos - static_cast<double>(i)) * (v[i + 1] - v[i]);
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Independent child seed number `stream` of the run seed.
std::uint64_t child_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1)));
  return mix.next();
}

// --- workloads --------------------------------------------------------

/// The statistical target a workload's seconds-to-target projects to,
/// on its headline rate (silent failures per delivered output).
enum class Target {
  kRelHalfWidth,  ///< Wilson half-width <= value * rate
  kUpperBound,    ///< Wilson upper bound <= value (certification)
};

struct Config {
  const char* name;
  double g;              ///< physical gate error rate
  unsigned lane_words;   ///< W: 64 * W trials per batch
  int threads;           ///< pinned worker count (never 0 / auto)
  std::uint64_t shards;  ///< shards per run = batches per merged round
  std::uint64_t rounds;  ///< batches per shard = merged rounds per run
  Target target;
  double target_value;

  std::uint64_t lanes() const { return 64ULL * lane_words; }
  std::uint64_t trials() const { return shards * rounds * lanes(); }
};

// Why each workload is here: perfbench/README.md.
constexpr Config kConfigs[] = {
    {"toffoli_l2_plain", 3e-2, 1, 1, 8, 512, Target::kRelHalfWidth, 0.25},
    {"machine1d_blocklocal", 1e-3, 1, 1, 16, 128, Target::kUpperBound, 2e-2},
    {"machine2d_checked_w8", 1e-5, 8, 2, 16, 512, Target::kUpperBound, 1e-4},
};

/// The scattered 10-bit logical circuit of bench_recover: heavy
/// routing, the regime the checked local machines are built for.
Circuit scattered_logical() {
  Circuit logical(10);
  logical.maj(9, 4, 0)
      .toffoli(0, 7, 9)
      .majinv(4, 1, 8)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return logical;
}

/// Exact outcome counts of a run, in one shape for all three engines.
struct Tally {
  std::uint64_t trials = 0;
  std::uint64_t accepted = 0;  ///< delivered outputs
  std::uint64_t silent = 0;    ///< delivered but wrong
  std::uint64_t detected = 0;  ///< trials with a fired check
  std::uint64_t local_retries = 0;
  std::uint64_t restarts = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t ops_main = 0;  ///< fallible ops of first passes
  std::uint64_t ops_local = 0;
  std::uint64_t ops_restart = 0;
  std::uint64_t rail_events = 0;
  std::uint64_t zero_check_events = 0;

  std::uint64_t ops_total() const { return ops_main + ops_local + ops_restart; }
  bool operator==(const Tally&) const = default;
  Tally& operator+=(const Tally& o) {
    trials += o.trials;
    accepted += o.accepted;
    silent += o.silent;
    detected += o.detected;
    local_retries += o.local_retries;
    restarts += o.restarts;
    fallbacks += o.fallbacks;
    ops_main += o.ops_main;
    ops_local += o.ops_local;
    ops_restart += o.ops_restart;
    rail_events += o.rail_events;
    zero_check_events += o.zero_check_events;
    return *this;
  }
};

Tally tally(const BernoulliEstimate& e, std::uint64_t ops) {
  Tally t;
  t.trials = e.trials;
  t.accepted = e.trials;
  t.silent = e.failures;
  t.ops_main = e.trials * ops;
  return t;
}

Tally tally(const detect::DetectionEstimate& e, std::uint64_t ops) {
  Tally t;
  t.trials = e.trials;
  t.accepted = e.accepted();
  t.silent = e.silent_failures;
  t.detected = e.detected;
  t.ops_main = e.trials * ops;
  t.rail_events = e.total_detected();
  t.zero_check_events = e.zero_check_detected;
  return t;
}

Tally tally(const recover::RecoveryEstimate& e, std::uint64_t) {
  Tally t;
  t.trials = e.trials;
  t.accepted = e.accepted;
  t.silent = e.silent_failures;
  t.detected = e.detected_trials;
  t.local_retries = e.local_retries;
  t.restarts = e.program_restarts;
  t.fallbacks = e.fallbacks;
  t.ops_main = e.ops_main;
  t.ops_local = e.ops_local;
  t.ops_restart = e.ops_restart;
  t.rail_events = e.total_rail_events();
  t.zero_check_events = e.zero_check_events;
  return t;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den != 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

/// Chrome-trace spans recorded around the calls into each layer.
class Spans {
 public:
  /// `name` is "<layer>.<call>"; the layer becomes the span's category.
  void add(const std::string& name, int track, Clock::time_point t0,
           Clock::time_point t1) {
    spans_.push_back({name, name.substr(0, name.find('.')), track,
                      seconds_between(epoch_, t0) * 1e6,
                      seconds_between(t0, t1) * 1e6});
  }

  json::Value chrome_json(const std::string& process) const {
    json::Value events = json::Value::array();
    json::Value meta = json::Value::object();
    meta.set("name", "process_name");
    meta.set("ph", "M");
    meta.set("pid", 1);
    json::Value args = json::Value::object();
    args.set("name", process);
    meta.set("args", std::move(args));
    events.push_back(std::move(meta));
    for (const Span& s : spans_) {
      json::Value e = json::Value::object();
      e.set("name", s.name);
      e.set("cat", s.layer);
      e.set("ph", "X");
      e.set("pid", 1);
      e.set("tid", s.track);
      e.set("ts", s.start_us);
      e.set("dur", s.dur_us);
      events.push_back(std::move(e));
    }
    json::Value doc = json::Value::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
  }

 private:
  struct Span {
    std::string name;
    std::string layer;
    int track;
    double start_us;
    double dur_us;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// Span tracks of the Chrome trace.
enum Track : int { kSetupTrack = 0, kStreamTrack = 1, kLayerTrack = 2 };

/// One cold build, split by layer: the machine compile (schedule and
/// rail transform; empty for the concatenated Toffoli), then the ft/
/// experiment construction (concatenated compile, or truth table and
/// for 1D the segment plan).
struct SetupPhases {
  Clock::time_point start, local_end, ft_end;

  double local() const { return seconds_between(start, local_end); }
  double ft() const { return seconds_between(local_end, ft_end); }
  double total() const { return seconds_between(start, ft_end); }
};

/// One fixed-budget closed-loop run.
struct RunResult {
  Tally tally;
  std::vector<double> round_s;  ///< wall seconds of each merged round
  double wall_s = 0.0;
  std::uint64_t replay_passes = 0;  ///< kSegmentReplay events (traced)
};

/// Metrics in print order: name -> (value, unit).
using Metrics =
    std::vector<std::pair<std::string, std::pair<double, std::string>>>;

void put(Metrics& m, const std::string& name, double value, const char* unit) {
  for (auto& entry : m) {
    if (entry.first == name) {
      entry.second = {value, unit};
      return;
    }
  }
  m.push_back({name, {value, unit}});
}

/// A batch runner with its own persistent simulator: each call runs
/// the next `batches` batches through one engine's span function.
using Variant = std::function<void(std::uint64_t batches)>;

template <typename Kernel>
struct SpanState {
  PackedSimulator sim;
  PackedState state;
  Kernel kernel;
  std::uint64_t batch = 0;
  SpanState(double g, std::uint64_t seed, std::uint32_t width, unsigned W,
            Kernel k)
      : sim(NoiseModel::uniform(g), seed), state(width, W),
        kernel(std::move(k)) {}
};

/// The layer spans judge no output: classification is workload glue,
/// not a layer, and its per-lane loop compiles very differently in
/// each caller (instantiations of the same span were seen 2.5x apart),
/// which would swamp the layer differences.
bool no_classify(const PackedState&, int, std::uint64_t) { return false; }

/// What the layer spans of one workload drive: the circuits each
/// engine executes and a fresh per-simulator kernel, whose prepare
/// draws the workload's random inputs.
template <typename Kernel>
struct Engines {
  const Circuit* plain = nullptr;
  const detect::CheckedCircuit* checked = nullptr;
  const recover::SegmentPlan* plan = nullptr;
  std::function<Kernel()> kernel;
  unsigned lane_words = 1;

  using State = std::shared_ptr<SpanState<Kernel>>;

  State state(double g, std::uint64_t seed) const {
    return std::make_shared<SpanState<Kernel>>(g, seed, plain->width(),
                                               lane_words, kernel());
  }

  static auto prepare(const State& s) {
    return [s](PackedState& ps, Xoshiro256& rng, std::uint64_t b) {
      s->kernel.prepare(ps, rng, b);
    };
  }

  /// noise: detail::run_mc_span over the circuit, no checks.
  Variant plain_span(double g, std::uint64_t seed) const {
    const Circuit* circuit = plain;
    return [s = state(g, seed), circuit](std::uint64_t batches) {
      revft::detail::run_mc_span(s->sim, s->state, *circuit, s->batch,
                                 batches * 64ULL * s->state.lane_words(),
                                 prepare(s), no_classify);
      s->batch += batches;
    };
  }

  /// detect: the checked engine's span (rail and zero checks).
  Variant checked_span(double g, std::uint64_t seed) const {
    const detect::CheckedCircuit* c = checked;
    return [s = state(g, seed), c](std::uint64_t batches) {
      detect::detail::run_checked_mc_span(
          s->sim, s->state, *c, s->batch,
          batches * 64ULL * s->state.lane_words(), prepare(s), no_classify);
      s->batch += batches;
    };
  }

  /// recover: the recovering engine's span under `policy`.
  Variant recovering_span(double g, std::uint64_t seed,
                          const recover::RetryPolicy& policy) const {
    const detect::CheckedCircuit* c = checked;
    const recover::SegmentPlan* p = plan;
    State s = state(g, seed);
    return [s, c, p, policy, prep = recover::PrepareFn(prepare(s)),
            classify = recover::ClassifyFn(no_classify)](
               std::uint64_t batches) {
      recover::run_recovering_mc_span(
          s->sim, s->state, *c, *p, policy, s->batch,
          batches * 64ULL * s->state.lane_words(), prep, classify);
      s->batch += batches;
    };
  }

  /// Faults the noise layer draws over the first `batches` batches of
  /// a plain span (deterministic for a fixed seed).
  std::uint64_t faults_drawn(double g, std::uint64_t seed,
                             std::uint64_t batches) const {
    State s = state(g, seed);
    revft::detail::run_mc_span(s->sim, s->state, *plain, 0,
                               batches * 64ULL * lane_words, prepare(s),
                               no_classify);
    return s->sim.faults_drawn();
  }
};

/// Median seconds per batch of each variant. The variants run in
/// interleaved chunks of `chunk` batches until `budget_s` has passed,
/// so a slow drift of the host hits every variant alike and the
/// differences between them stay meaningful.
std::vector<double> per_batch_medians(
    const std::vector<std::pair<std::string, Variant>>& variants,
    std::uint64_t chunk, double budget_s, Spans& spans) {
  for (const auto& v : variants) v.second(chunk);  // warm-up, untimed
  std::vector<std::vector<double>> samples(variants.size());
  const auto start = Clock::now();
  while (samples[0].size() < 5 ||
         seconds_between(start, Clock::now()) < budget_s) {
    for (std::size_t i = 0; i < variants.size(); ++i) {
      const auto t0 = Clock::now();
      variants[i].second(chunk);
      const auto t1 = Clock::now();
      samples[i].push_back(seconds_between(t0, t1) /
                           static_cast<double>(chunk));
      spans.add(variants[i].first, kLayerTrack, t0, t1);
    }
  }
  std::vector<double> out;
  for (const auto& s : samples) out.push_back(median(s));
  return out;
}

using RoundHook = std::function<void(const telemetry::ConvergenceSnapshot&,
                                     const telemetry::ConvergenceTrajectory&)>;

telemetry::StreamOptions stream_options(const Config& c, std::uint64_t rounds,
                                        const RoundHook& hook) {
  telemetry::StreamOptions opts;
  opts.mc.batches_per_shard = rounds;
  opts.name = c.name;
  opts.on_snapshot = hook;  // default stop policy: never stop
  return opts;
}

template <typename Estimate>
RunResult collect(telemetry::StreamResult<Estimate>&& r, std::uint64_t ops,
                  Clock::time_point t0) {
  RunResult out;
  out.wall_s = seconds_between(t0, Clock::now());
  REVFT_CHECK_MSG(r.stop_reason() == telemetry::StopReason::kExhausted,
                  "a never-stop run must exhaust its budget");
  out.tally = tally(r.estimate, ops);
  out.round_s = std::move(r.trajectory.wall.round_seconds);
  return out;
}

std::uint64_t count_events(const telemetry::Trace& trace,
                           telemetry::EventKind kind) {
  return static_cast<std::uint64_t>(std::count_if(
      trace.events().begin(), trace.events().end(),
      [kind](const telemetry::Event& e) { return e.kind == kind; }));
}

/// One workload: how to build it from its logical circuit, run it
/// through its experiment class, and time its layers.
class Workload {
 public:
  explicit Workload(const Config& c) : config_(c) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  const Config& config() const { return config_; }

  /// One cold build from the logical circuit, ready to run `shards`
  /// shards of `rounds` batches from `seed` on `threads` workers.
  virtual SetupPhases build(std::uint64_t seed, std::uint64_t shards,
                            std::uint64_t rounds, int threads) = 0;
  /// The built experiment's run_streaming at error rate g. `trace`
  /// (nullable) collects the engines' counters and events.
  virtual RunResult run(double g, telemetry::Trace* trace,
                        const RoundHook& hook) const = 0;
  /// Fallible ops one first pass executes.
  virtual std::uint64_t ops() const = 0;
  /// Interleaved span differentials of the built workload's layers.
  virtual void layers(std::uint64_t seed, double budget_s, Metrics& m,
                      Spans& spans) const = 0;
  /// (g, seed)-deterministic fault count of a fixed plain-span prefix.
  virtual std::uint64_t faults_drawn(std::uint64_t seed) const = 0;

 protected:
  /// Noise-layer metrics shared by every workload.
  template <typename Kernel>
  void noise_layer(const Engines<Kernel>& e, std::uint64_t seed,
                   double t_plain_g, double t_plain_0, Metrics& m) const {
    put(m, "noise.ns_per_op_lane",
        t_plain_g * 1e9 /
            static_cast<double>(e.plain->size() * 64ULL * e.lane_words),
        "ns");
    put(m, "noise.fault_share", 1.0 - t_plain_0 / t_plain_g, "share");
    put(m, "noise.faults_per_trial",
        ratio(e.faults_drawn(config_.g, seed, kFaultBatches),
              kFaultBatches * 64ULL * e.lane_words),
        "1/trial");
  }

  static constexpr std::uint64_t kFaultBatches = 256;
  Config config_;
  std::uint64_t rounds_ = 0;  ///< batches per shard of the built run
};

/// The LogicalGateExperiment kernel, rebuilt from the compiled
/// module's public layout so the traced stream and the layer spans can
/// drive the workload outside the experiment class, which keeps its
/// kernel private. The traced run checks that it reproduces the
/// experiment's estimate bit for bit.
struct ToffoliKernel {
  const CompiledModule* module;
  const std::vector<std::vector<std::uint32_t>>* input_leaves;
  std::vector<std::uint64_t> lane_inputs;

  void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
    const unsigned W = state.lane_words();
    lane_inputs.resize(3ULL * W);
    for (std::size_t k = 0; k < 3; ++k) {
      for (unsigned w = 0; w < W; ++w) lane_inputs[k * W + w] = rng.next();
      for (const auto bit : (*input_leaves)[k]) {
        std::uint64_t* dst = state.words(bit);
        for (unsigned w = 0; w < W; ++w) dst[w] = lane_inputs[k * W + w];
      }
    }
  }

  bool classify(const PackedState& state, int lane, std::uint64_t) const {
    const unsigned W = state.lane_words();
    const unsigned wi = static_cast<unsigned>(lane) >> 6;
    const unsigned sh = static_cast<unsigned>(lane) & 63u;
    unsigned input = 0;
    for (std::size_t k = 0; k < 3; ++k)
      input |= static_cast<unsigned>((lane_inputs[k * W + wi] >> sh) & 1u)
               << k;
    const unsigned expected = gate_apply_local(GateKind::kToffoli, input);
    auto reader = [&](std::uint32_t bit) {
      return static_cast<int>(state.bit_lane(bit, lane));
    };
    for (std::size_t k = 0; k < 3; ++k) {
      if (decode_block(module->blocks[k], reader) !=
          static_cast<int>((expected >> k) & 1u))
        return true;
    }
    return false;
  }
};

class ToffoliWorkload final : public Workload {
 public:
  using Workload::Workload;

  SetupPhases build(std::uint64_t seed, std::uint64_t shards,
                    std::uint64_t rounds, int threads) override {
    rounds_ = rounds;
    LogicalGateExperimentConfig cfg;
    cfg.level = 2;
    cfg.gate = GateKind::kToffoli;
    cfg.noisy_init = true;
    cfg.trials = shards * rounds * config_.lanes();
    cfg.seed = seed;
    cfg.threads = threads;
    SetupPhases p;
    p.start = p.local_end = Clock::now();
    auto exp = std::make_unique<LogicalGateExperiment>(cfg);
    p.ft_end = Clock::now();
    std::vector<std::vector<std::uint32_t>> leaves;
    const CompiledModule& module = exp->module();
    for (std::uint32_t i = 0; i < 3; ++i)
      leaves.push_back(collect_data_leaves(BlockTree::canonical(
          cfg.level, i * static_cast<std::uint32_t>(module.blocks[i].span()))));
    exp_.swap(exp);
    leaves_.swap(leaves);
    return p;
  }

  RunResult run(double g, telemetry::Trace* trace,
                const RoundHook& hook) const override {
    const LogicalGateExperimentConfig& cfg = exp_->config();
    telemetry::StreamOptions opts = stream_options(config_, rounds_, hook);
    const auto t0 = Clock::now();
    if (trace == nullptr)
      return collect(exp_->run_streaming(g, opts), ops(), t0);
    // run_streaming takes no trace: drive the same stream through the
    // engine wrapper with the equivalent kernel.
    opts.mc.trials = cfg.trials;
    opts.mc.seed = cfg.seed;
    opts.mc.threads = cfg.threads;
    return collect(
        telemetry::run_streaming_mc(
            exp_->module().physical, NoiseModel::uniform(g), opts,
            [this](std::uint64_t) { return kernel(); }, trace),
        ops(), t0);
  }

  std::uint64_t ops() const override { return exp_->module().physical.size(); }

  void layers(std::uint64_t seed, double budget_s, Metrics& m,
              Spans& spans) const override {
    const Engines<ToffoliKernel> e = engines();
    const double g = config_.g;
    const std::vector<double> t = per_batch_medians(
        {{"noise.run_mc_span g", e.plain_span(g, seed)},
         {"noise.run_mc_span g=0", e.plain_span(0.0, seed)}},
        16, budget_s, spans);
    noise_layer(e, seed, t[0], t[1], m);
  }

  std::uint64_t faults_drawn(std::uint64_t seed) const override {
    return engines().faults_drawn(config_.g, seed, kFaultBatches);
  }

 private:
  ToffoliKernel kernel() const {
    return ToffoliKernel{&exp_->module(), &leaves_, {}};
  }
  Engines<ToffoliKernel> engines() const {
    Engines<ToffoliKernel> e;
    e.plain = &exp_->module().physical;
    e.kernel = [this] { return kernel(); };
    e.lane_words = config_.lane_words;
    return e;
  }

  std::unique_ptr<LogicalGateExperiment> exp_;
  std::vector<std::vector<std::uint32_t>> leaves_;
};

/// Shared by both machine workloads: the compiled program, its truth
/// table and the machine kernel.
class MachineWorkload : public Workload {
 public:
  explicit MachineWorkload(const Config& c)
      : Workload(c),
        logical_(scattered_logical()),
        truth_(machine_truth_table(logical_)) {}

  std::uint64_t ops() const override {
    return program().checked.circuit.size();
  }

  std::uint64_t faults_drawn(std::uint64_t seed) const override {
    return engines().faults_drawn(config_.g, seed, kFaultBatches);
  }

 protected:
  virtual const CheckedMachineProgram& program() const = 0;
  virtual const recover::SegmentPlan* plan() const { return nullptr; }

  Engines<MachineWorkloadKernel> engines() const {
    Engines<MachineWorkloadKernel> e;
    e.plain = &program().checked.circuit;
    e.checked = &program().checked;
    e.plan = plan();
    e.kernel = [this] { return make_machine_kernel(program(), truth_); };
    e.lane_words = config_.lane_words;
    return e;
  }

  /// Shared part of the machine layers: plain at g and g = 0, checked.
  /// Returns the checked engine's seconds per batch.
  template <typename Extra>
  std::vector<double> machine_layers(
      std::uint64_t seed, double budget_s, Metrics& m, Spans& spans,
      std::uint64_t chunk, Extra&& extra) const {
    const Engines<MachineWorkloadKernel> e = engines();
    const double g = config_.g;
    std::vector<std::pair<std::string, Variant>> variants = {
        {"noise.run_mc_span g", e.plain_span(g, seed)},
        {"noise.run_mc_span g=0", e.plain_span(0.0, seed)},
        {"detect.run_checked_mc_span", e.checked_span(g, seed)}};
    for (auto& v : extra(e)) variants.push_back(std::move(v));
    const std::vector<double> t =
        per_batch_medians(variants, chunk, budget_s, spans);
    noise_layer(e, seed, t[0], t[1], m);
    put(m, "detect.batch_us", t[2] * 1e6, "us");
    put(m, "detect.check_share", (t[2] - t[0]) / t[2], "share");
    return t;
  }

  Circuit logical_;
  std::vector<unsigned> truth_;
};

class Machine1dWorkload final : public MachineWorkload {
 public:
  using MachineWorkload::MachineWorkload;

  SetupPhases build(std::uint64_t seed, std::uint64_t shards,
                    std::uint64_t rounds, int threads) override {
    rounds_ = rounds;
    RecoveryExperiment::Config cfg;
    cfg.trials = shards * rounds * config_.lanes();
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.lane_words = config_.lane_words;
    SetupPhases p;
    p.start = Clock::now();
    CheckedMachineProgram program =
        CheckedMachine1d(logical_.width(), true, recovering_machine_options())
            .compile(logical_);
    p.local_end = Clock::now();
    auto exp =
        std::make_unique<RecoveryExperiment>(std::move(program), logical_, cfg);
    p.ft_end = Clock::now();
    exp_.swap(exp);
    return p;
  }

  /// recover::build_segment_plan alone (inside the experiment
  /// constructor on the setup path).
  double plan_seconds() const {
    const auto t0 = Clock::now();
    const recover::SegmentPlan plan =
        recover::build_segment_plan(exp_->program().checked);
    const auto t1 = Clock::now();
    REVFT_CHECK(plan.total_ops == exp_->plan().total_ops);
    return seconds_between(t0, t1);
  }

  RunResult run(double g, telemetry::Trace* trace,
                const RoundHook& hook) const override {
    const auto t0 = Clock::now();
    RunResult r = collect(
        exp_->run_streaming(g, recover::RetryPolicy::block_local(),
                            stream_options(config_, rounds_, hook), trace),
        ops(), t0);
    if (trace != nullptr)
      r.replay_passes =
          count_events(*trace, telemetry::EventKind::kSegmentReplay);
    return r;
  }

  void layers(std::uint64_t seed, double budget_s, Metrics& m,
              Spans& spans) const override {
    const double g = config_.g;
    recover::RetryPolicy no_restart = recover::RetryPolicy::block_local();
    no_restart.max_program_attempts = 0;
    const std::vector<double> t = machine_layers(
        seed, budget_s, m, spans, 4,
        [&](const Engines<MachineWorkloadKernel>& e) {
          return std::vector<std::pair<std::string, Variant>>{
              {"recover.run_recovering_mc_span no-retry",
               e.recovering_span(g, seed, recover::RetryPolicy::no_retry())},
              {"recover.run_recovering_mc_span block-local",
               e.recovering_span(g, seed, recover::RetryPolicy::block_local())},
              {"recover.run_recovering_mc_span block-local, no restarts",
               e.recovering_span(g, seed, no_restart)}};
        });
    const double checked = t[2], no_retry = t[3], block = t[4], no_rs = t[5];
    put(m, "recover.batch_us", block * 1e6, "us");
    put(m, "recover.walk_share", (no_retry - checked) / block, "share");
    put(m, "recover.retry_share", (block - no_retry) / block, "share");
    put(m, "recover.restart_share", (block - no_rs) / block, "share");
  }

 protected:
  const CheckedMachineProgram& program() const override {
    return exp_->program();
  }
  const recover::SegmentPlan* plan() const override { return &exp_->plan(); }

 private:
  std::unique_ptr<RecoveryExperiment> exp_;
};

class Machine2dWorkload final : public MachineWorkload {
 public:
  using MachineWorkload::MachineWorkload;

  SetupPhases build(std::uint64_t seed, std::uint64_t shards,
                    std::uint64_t rounds, int threads) override {
    rounds_ = rounds;
    CheckedMachineExperiment::Config cfg;
    cfg.trials = shards * rounds * config_.lanes();
    cfg.seed = seed;
    cfg.threads = threads;
    cfg.lane_words = config_.lane_words;
    SetupPhases p;
    p.start = Clock::now();
    CheckedMachineProgram program =
        CheckedMachine2d(logical_.width(), true).compile(logical_);
    p.local_end = Clock::now();
    auto exp = std::make_unique<CheckedMachineExperiment>(std::move(program),
                                                          logical_, cfg);
    p.ft_end = Clock::now();
    exp_.swap(exp);
    return p;
  }

  RunResult run(double g, telemetry::Trace* trace,
                const RoundHook& hook) const override {
    const auto t0 = Clock::now();
    return collect(
        exp_->run_streaming(g, stream_options(config_, rounds_, hook), trace),
        ops(), t0);
  }

  void layers(std::uint64_t seed, double budget_s, Metrics& m,
              Spans& spans) const override {
    machine_layers(seed, budget_s, m, spans, 16,
                   [](const Engines<MachineWorkloadKernel>&) {
                     return std::vector<std::pair<std::string, Variant>>{};
                   });
  }

 protected:
  const CheckedMachineProgram& program() const override {
    return exp_->program();
  }

 private:
  std::unique_ptr<CheckedMachineExperiment> exp_;
};

std::unique_ptr<Workload> make_workload(const std::string& name) {
  for (const Config& c : kConfigs) {
    if (name != c.name) continue;
    if (name == "toffoli_l2_plain") return std::make_unique<ToffoliWorkload>(c);
    if (name == "machine1d_blocklocal")
      return std::make_unique<Machine1dWorkload>(c);
    return std::make_unique<Machine2dWorkload>(c);
  }
  return nullptr;
}

// --- statistics of the estimate ---------------------------------------

/// Wilson interval at real-valued counts (rate p over n trials).
BernoulliEstimate::Interval wilson(double p, double n, double z) {
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half =
      z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {center - half, center + half};
}

/// Delivered outputs needed before the 95% Wilson interval around a
/// true rate p meets the target; infinity when it never does.
double outputs_to_target(double p, Target target, double value) {
  const auto met = [&](double n) {
    const auto w = wilson(p, n, 1.96);
    return target == Target::kRelHalfWidth ? (w.hi - w.lo) / 2.0 <= value * p
                                           : w.hi <= value;
  };
  double hi = 1.0;
  while (!met(hi)) {
    hi *= 2.0;
    if (hi > 1e18) return INFINITY;
  }
  double lo = hi / 2.0;
  for (int i = 0; i < 100 && hi - lo > 0.5; ++i) {
    const double mid = (lo + hi) / 2.0;
    (met(mid) ? hi : lo) = mid;
  }
  return std::ceil(hi);
}

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "check failed: %s\n", what.c_str());
    }
  }

  /// The reference rate lies inside the 5-sigma Wilson band of k/n.
  void rate_band(const std::string& what, std::uint64_t k, std::uint64_t n,
                 double ref) {
    const auto w = BernoulliEstimate{k, n}.wilson(5.0);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s: reference %.6g outside [%.6g, %.6g] (%llu/%llu)",
                  what.c_str(), ref, w.lo, w.hi,
                  static_cast<unsigned long long>(k),
                  static_cast<unsigned long long>(n));
    expect(n > 0 && ref >= w.lo && ref <= w.hi, buf);
  }

  /// The Bernoulli estimates of one tally against the workload's
  /// reference object (only the keys it names).
  void estimate_bands(const std::string& label, const Tally& t,
                      const json::Value& ref) {
    if (const json::Value* v = ref.find("silent_rate"))
      rate_band(label + " silent_rate", t.silent, t.accepted, v->as_double());
    if (const json::Value* v = ref.find("accept_rate"))
      rate_band(label + " accept_rate", t.accepted, t.trials, v->as_double());
    if (const json::Value* v = ref.find("detected_share"))
      rate_band(label + " detected_share", t.detected, t.trials,
                v->as_double());
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- the two modes ----------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string reference;
  std::string out = ".";
};

/// Cold builds before each fixed-budget run (the run uses the last one),
/// for the setup_s median.
constexpr int kBuildsPerRun = 8;
constexpr int kMinRuns = 3;

/// A fixed integer-mixing loop (SplitMix64 steps) that no change to the
/// library can speed up: its time tracks only the host core's speed.
[[gnu::noinline]] std::uint64_t calibration_loop(std::uint64_t n) {
  std::uint64_t x = 1, acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    acc ^= z ^ (z >> 31);
  }
  return acc;
}

/// Seconds the calibration loop takes on the reference host. End-to-end
/// times are reported in reference-host seconds: each measured time is
/// scaled by kReferenceCalibration / (the loop's time measured next to
/// it). On a shared host the core's speed swings by 20-40% over seconds
/// to minutes; the loop swings with it, so the scaled times keep only
/// what the code under test changes (README.md, run-to-run spread).
constexpr double kReferenceCalibration = 40e-6;

/// Median time of 40 calibration loops (about 1.5 ms in all), run on
/// `threads` threads at once, of the slowest thread: a 2-worker round
/// waits for its slower worker, so the slowest core is the one that
/// counts. One thread runs on the caller, like a 1-worker stream.
double calibration_seconds(int threads) {
  const auto one = [] {
    volatile std::uint64_t sink = 0;
    std::vector<double> t;
    for (int i = 0; i < 40; ++i) {
      const auto t0 = Clock::now();
      sink = sink + calibration_loop(20000);
      t.push_back(seconds_between(t0, Clock::now()));
    }
    return median(t);
  };
  if (threads == 1) return one();
  std::vector<double> slowest(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  for (std::size_t i = 0; i < slowest.size(); ++i)
    pool.emplace_back([&slowest, &one, i] { slowest[i] = one(); });
  for (std::thread& t : pool) t.join();
  return *std::max_element(slowest.begin(), slowest.end());
}

/// Determinism guard shared by both modes: a short prefix repeats
/// every count exactly, run twice on one worker and once on two, and
/// a fault-free pass delivers no failures and fires no check.
void guard(Workload& w, std::uint64_t seed, Checks& checks) {
  const Config& c = w.config();
  const std::uint64_t rounds = c.rounds / 16;
  const std::uint64_t s = child_seed(seed, 1u << 20);
  w.build(s, c.shards, rounds, 1);
  const RunResult a = w.run(c.g, nullptr, {});
  const RunResult b = w.run(c.g, nullptr, {});
  w.build(s, c.shards, rounds, 2);
  const RunResult two = w.run(c.g, nullptr, {});
  checks.expect(a.tally == b.tally, "counts repeat across repeated runs");
  checks.expect(a.tally == two.tally, "counts repeat on 1 and 2 workers");
  checks.expect(a.tally.trials == c.shards * rounds * c.lanes(),
                "prefix consumed its budget");
  checks.expect(w.faults_drawn(s) == w.faults_drawn(s),
                "faults drawn repeat for a fixed seed");
  const RunResult clean = w.run(0.0, nullptr, {});
  checks.expect(clean.tally.silent == 0 && clean.tally.detected == 0 &&
                    clean.tally.accepted == clean.tally.trials &&
                    clean.tally.rail_events == 0 &&
                    clean.tally.zero_check_events == 0,
                "g = 0 delivers every output correct with no check fired");
}

Metrics end_to_end(Workload& w, const Args& args, const json::Value& ref,
                   Checks& checks) {
  const Config& c = w.config();
  // Every time below is in reference-host seconds: scaled by the host
  // speed the calibration loop measured just before and after its run.
  std::vector<double> setup, walls, rounds, rep_opa, host_speed;
  Tally pool;
  const auto start = Clock::now();
  double cal_before = calibration_seconds(c.threads);
  for (std::uint64_t rep = 0;
       rep < kMinRuns || seconds_between(start, Clock::now()) < args.seconds;
       ++rep) {
    const std::uint64_t seed = child_seed(args.seed, rep);
    std::vector<double> builds;
    for (int i = 0; i < kBuildsPerRun; ++i)
      builds.push_back(w.build(seed, c.shards, c.rounds, c.threads).total());
    const RunResult r = w.run(c.g, nullptr, {});
    const double cal_after = calibration_seconds(c.threads);
    const double scale = 2.0 * kReferenceCalibration / (cal_before + cal_after);
    cal_before = cal_after;
    host_speed.push_back(scale);
    for (double b : builds) setup.push_back(b * scale);
    walls.push_back(r.wall_s * scale);
    for (double t : r.round_s) rounds.push_back(t * scale);
    rep_opa.push_back(ratio(r.tally.ops_total(), r.tally.accepted));
    checks.expect(r.tally.trials == c.trials(), "run consumed its budget");
    pool += r.tally;
  }
  // One band check per estimate and process: a band per fixed-budget
  // run would make dozens of 5-sigma checks per process, and some run
  // in a few thousand would fail by chance.
  checks.estimate_bands("pooled", pool, ref);
  const double opa = ratio(pool.ops_total(), pool.accepted);
  if (const json::Value* v = ref.find("ops_per_accept")) {
    RunningStat st;
    for (double x : rep_opa) st.add(x);
    checks.expect(std::abs(opa - v->as_double()) <=
                      5.0 * st.stderror() + 1e-9 * v->as_double(),
                  "pooled ops_per_accept within 5 sigma of the reference");
  }
  guard(w, args.seed, checks);

  const double trials_per_s =
      static_cast<double>(c.shards * c.lanes()) / median(rounds);
  const double accept = ratio(pool.accepted, pool.trials);
  const double outputs = outputs_to_target(ratio(pool.silent, pool.accepted),
                                           c.target, c.target_value);
  checks.expect(std::isfinite(outputs), "statistical target is reachable");

  Metrics m;
  put(m, "setup_s", median(setup), "s");
  // A fixed-budget run's wall time at its median round speed. The
  // measured run wall (printed below) carries the host's stalls: a
  // 2-worker round waits for whichever vCPU the host descheduled, and
  // that added 8-45% per process on the 2D workload.
  put(m, "wall_s", static_cast<double>(c.rounds) * median(rounds), "s");
  put(m, "trials_per_s", trials_per_s, "1/s");
  put(m, "accepted_per_s", trials_per_s * accept, "1/s");
  put(m, "s_to_target", outputs / accept / trials_per_s, "s");
  put(m, "ops_per_accept", opa, "ops");
  put(m, "peak_rss_mb", peak_rss_mb(), "MB");
  std::printf(
      "%s: %zu runs of %llu trials (median run wall %.4g s), %zu rounds, "
      "%zu builds; host speed vs reference: median %.3f, range %.3f-%.3f\n",
      c.name, walls.size(), static_cast<unsigned long long>(c.trials()),
      median(walls), rounds.size(), setup.size(), median(host_speed),
      *std::min_element(host_speed.begin(), host_speed.end()),
      *std::max_element(host_speed.begin(), host_speed.end()));
  std::printf(
      "  pooled: %llu trials, silent_rate %.6g, accept_rate %.6g, "
      "detected_share %.6g, ops_per_accept %.8g\n",
      static_cast<unsigned long long>(pool.trials),
      ratio(pool.silent, pool.accepted), accept,
      ratio(pool.detected, pool.trials), opa);
  return m;
}

// The per-layer metrics and their units, in BENCHMARK.json order. A
// metric whose layer is not on a workload's path keeps its 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"ft.compile_s", "s"},
    {"local.compile_s", "s"},
    {"recover.plan_s", "s"},
    {"noise.ns_per_op_lane", "ns"},
    {"noise.fault_share", "share"},
    {"noise.faults_per_trial", "1/trial"},
    {"detect.batch_us", "us"},
    {"detect.check_share", "share"},
    {"detect.detected_per_trial", "1/trial"},
    {"recover.walk_share", "share"},
    {"recover.retry_share", "share"},
    {"recover.restart_share", "share"},
    {"recover.batch_us", "us"},
    {"recover.local_retries_per_trial", "1/trial"},
    {"recover.restarts_per_trial", "1/trial"},
    {"recover.ops_local_share", "share"},
    {"recover.accept_rate", "share"},
    {"recover.replay_lanes_per_pass", "lanes"},
    {"telemetry.rounds", "count"},
    {"telemetry.round_p50_us", "us"},
    {"telemetry.round_p90_us", "us"},
    {"telemetry.pool_efficiency", "share"},
    {"telemetry.trace_overhead", "ratio"},
};

/// Median setup phases over repeated cold builds, one span per call.
void setup_layers(Workload& w, std::uint64_t seed, Metrics& m, Spans& spans) {
  const Config& c = w.config();
  auto* m1d = dynamic_cast<Machine1dWorkload*>(&w);
  std::vector<double> ft, local, plan;
  for (int i = 0; i < 31; ++i) {
    const SetupPhases p = w.build(seed, c.shards, c.rounds, c.threads);
    if (p.local() > 0.0)
      spans.add("local.CheckedMachine::compile", kSetupTrack, p.start,
                p.local_end);
    spans.add("ft.experiment construction", kSetupTrack, p.local_end, p.ft_end);
    ft.push_back(p.ft());
    local.push_back(p.local());
    if (m1d != nullptr) {
      const auto t0 = Clock::now();
      plan.push_back(m1d->plan_seconds());
      spans.add("recover.build_segment_plan", kSetupTrack, t0, Clock::now());
    }
  }
  put(m, "ft.compile_s", median(ft), "s");
  put(m, "local.compile_s", median(local), "s");
  if (!plan.empty()) put(m, "recover.plan_s", median(plan), "s");
}

/// Ring capacity for traced fixed-budget runs, from a short prefix's
/// event rate with a 2x margin (Trace::emitted counts dropped events
/// too, so a small probe ring suffices).
telemetry::TraceConfig ring_for(Workload& w, std::uint64_t seed) {
  const Config& c = w.config();
  w.build(seed, c.shards, c.rounds / 16, c.threads);
  telemetry::Trace probe(telemetry::TraceConfig{1024, false});
  w.run(c.g, &probe, {});
  const double per_batch = static_cast<double>(probe.emitted()) /
                           static_cast<double>(c.shards * (c.rounds / 16));
  return {static_cast<std::size_t>(2.0 * per_batch *
                                   static_cast<double>(c.rounds)) +
              1024,
          false};
}

/// The deterministic counts of one traced fixed-budget run.
void count_layers(const Workload& w, const RunResult& traced, Metrics& m) {
  const Tally& t = traced.tally;
  put(m, "detect.detected_per_trial", ratio(t.detected, t.trials), "1/trial");
  put(m, "recover.local_retries_per_trial", ratio(t.local_retries, t.trials),
      "1/trial");
  put(m, "recover.restarts_per_trial", ratio(t.restarts, t.trials), "1/trial");
  put(m, "recover.ops_local_share", ratio(t.ops_local, t.ops_total()), "share");
  if (dynamic_cast<const Machine1dWorkload*>(&w) != nullptr)
    put(m, "recover.accept_rate", ratio(t.accepted, t.trials), "share");
  put(m, "recover.replay_lanes_per_pass",
      ratio(t.local_retries, traced.replay_passes), "lanes");
  put(m, "telemetry.rounds", static_cast<double>(traced.round_s.size()),
      "count");
}

void write_artifacts(const Config& c, const Args& args, const Metrics& m,
                     const Spans& spans, const telemetry::Trace& trace) {
  std::filesystem::create_directories(args.out);
  const std::string base = args.out + "/" + c.name;
  std::ofstream(base + ".trace.json")
      << spans.chrome_json(std::string("perfbench ") + c.name).dump() << "\n";
  json::Value doc = json::Value::object();
  doc.set("workload", c.name);
  doc.set("seed", args.seed);
  json::Value metrics = json::Value::object();
  for (const auto& [name, vu] : m) metrics.set(name, vu.first);
  doc.set("metrics", std::move(metrics));
  doc.set("counters", trace.metrics().to_json());
  doc.set("events_emitted", trace.emitted());
  doc.set("events_dropped", trace.dropped());
  std::ofstream(base + ".layers.json") << doc.dump(2) << "\n";
}

Metrics per_layer(Workload& w, const Args& args, Checks& checks) {
  const Config& c = w.config();
  const std::uint64_t seed = child_seed(args.seed, 0);
  Spans spans;
  Metrics m;
  for (const auto& [name, unit] : kLayerMetrics) put(m, name, 0.0, unit);

  setup_layers(w, seed, m, spans);
  const telemetry::TraceConfig ring = ring_for(w, seed);

  // Untraced and traced runs of one fixed budget and seed, alternated:
  // the pairs give the trace overhead, and every traced run must
  // repeat the first one's counters and events exactly.
  w.build(seed, c.shards, c.rounds, c.threads);
  std::vector<double> plain_rounds, traced_rounds;
  RunResult first;
  std::unique_ptr<telemetry::Trace> first_trace;
  const auto start = Clock::now();
  for (int pair = 0; pair < 2 || seconds_between(start, Clock::now()) <
                                     0.35 * args.seconds;
       ++pair) {
    const RunResult plain = w.run(c.g, nullptr, {});
    auto trace = std::make_unique<telemetry::Trace>(ring);
    Clock::time_point last = Clock::now();
    const RunResult traced =
        w.run(c.g, trace.get(),
              [&](const telemetry::ConvergenceSnapshot&,
                  const telemetry::ConvergenceTrajectory&) {
                const auto now = Clock::now();
                spans.add("telemetry.round", kStreamTrack, last, now);
                last = now;
              });
    plain_rounds.insert(plain_rounds.end(), plain.round_s.begin(),
                        plain.round_s.end());
    traced_rounds.insert(traced_rounds.end(), traced.round_s.begin(),
                         traced.round_s.end());
    checks.expect(trace->dropped() == 0, "trace ring dropped no event");
    checks.expect(plain.tally == traced.tally,
                  "tracing leaves every count unchanged");
    if (first_trace == nullptr) {
      first = traced;
      first_trace = std::move(trace);
    } else {
      checks.expect(trace->deterministic_equal(*first_trace) &&
                        traced.tally == first.tally,
                    "traced counts and events repeat exactly");
    }
  }
  count_layers(w, first, m);
  put(m, "telemetry.round_p50_us", quantile(plain_rounds, 0.5) * 1e6, "us");
  put(m, "telemetry.round_p90_us", quantile(plain_rounds, 0.9) * 1e6, "us");
  put(m, "telemetry.trace_overhead",
      median(plain_rounds) / median(traced_rounds), "ratio");

  // Pool efficiency: the same shorter run on two workers against one.
  std::vector<double> one, two;
  const auto pool_start = Clock::now();
  for (int pair = 0; pair < 2 || seconds_between(pool_start, Clock::now()) <
                                     0.2 * args.seconds;
       ++pair) {
    w.build(seed, c.shards, c.rounds / 4, 1);
    const RunResult r1 = w.run(c.g, nullptr, {});
    w.build(seed, c.shards, c.rounds / 4, 2);
    const RunResult r2 = w.run(c.g, nullptr, {});
    one.insert(one.end(), r1.round_s.begin(), r1.round_s.end());
    two.insert(two.end(), r2.round_s.begin(), r2.round_s.end());
    checks.expect(r1.tally == r2.tally, "counts repeat on 1 and 2 workers");
  }
  put(m, "telemetry.pool_efficiency", median(one) / (2.0 * median(two)),
      "share");

  w.build(seed, c.shards, c.rounds, c.threads);
  w.layers(seed, 0.35 * args.seconds, m, spans);
  guard(w, args.seed, checks);
  write_artifacts(c, args, m, spans, *first_trace);
  return m;
}

bool parse_args(int argc, char** argv, Args& a) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  if (argc % 2 != 1 || !kv.count("--workload") || !kv.count("--reference"))
    return false;
  try {
    a.workload = kv["--workload"];
    if (kv.count("--seed")) a.seed = std::stoull(kv["--seed"]);
    if (kv.count("--seconds")) a.seconds = std::stod(kv["--seconds"]);
    if (kv.count("--trace")) a.trace = std::stoi(kv["--trace"]) != 0;
    if (kv.count("--out")) a.out = kv["--out"];
    a.reference = kv["--reference"];
  } catch (const std::exception&) {
    return false;
  }
  return a.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --reference FILE [--out DIR]\n");
    return 2;
  }
  std::unique_ptr<Workload> w = make_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  try {
    std::ifstream in(args.reference);
    REVFT_CHECK_MSG(in.good(), "cannot read the reference file");
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const json::ParseResult parsed = json::parse(text);
    REVFT_CHECK_MSG(parsed.ok, "reference file is not valid JSON");
    const json::Value* ref = parsed.value.find(args.workload);
    REVFT_CHECK_MSG(ref != nullptr, "no reference for this workload");

    Checks checks;
    const Metrics m = args.trace ? per_layer(*w, args, checks)
                                 : end_to_end(*w, args, *ref, checks);
    json::Value metrics = json::Value::object();
    for (const auto& [name, vu] : m) {
      std::printf("  %-34s %.6g %s\n", name.c_str(), vu.first,
                  vu.second.c_str());
      json::Value entry = json::Value::object();
      entry.set("value", vu.first);
      entry.set("unit", vu.second);
      metrics.set(name, std::move(entry));
    }
    json::Value result = json::Value::object();
    result.set("correct", checks.failed == 0);
    result.set("attempted", checks.attempted);
    result.set("failed", checks.failed);
    result.set("metrics", std::move(metrics));
    std::printf("%s\n", result.dump().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
