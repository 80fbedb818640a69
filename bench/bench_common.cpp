#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <utility>

#include "support/error.h"
#include "support/mathutil.h"
#include "support/provenance.h"

namespace revft::benchutil {

namespace {
/// `name` parsed whole (support/mathutil's parse_u64), or `fallback`
/// when unset. Bad input exits: a silently truncated REVFT_TRIALS=1e6
/// ran one trial per point and stamped "trials": 1.
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const auto parsed = parse_u64(value);
  if (!parsed) {
    std::fprintf(stderr,
                 "%s=\"%s\": expected an unsigned decimal or 0x-hex integer\n",
                 name, value);
    std::exit(2);
  }
  return *parsed;
}

/// Process-CPU nanoseconds now.
std::int64_t cpu_now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Member `key` of `obj`, which must not exist yet.
void put(json::Value& obj, const std::string& key, json::Value value) {
  REVFT_CHECK_MSG(obj.find(key) == nullptr, "duplicate JSON key " << key);
  obj.set(key, std::move(value));
}
}  // namespace

std::uint64_t trials_from_env(std::uint64_t fallback) {
  return env_u64("REVFT_TRIALS", fallback);
}

std::uint64_t seed_from_env() { return env_u64("REVFT_SEED", 0xD5A2005ULL); }

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s  (Boykin & Roychowdhury, DSN 2005)\n",
              paper_ref.c_str());
  std::printf("================================================================\n");
}

Timing time_interleaved(const std::vector<TimedBody>& variants, int reps,
                        int iters) {
  const std::size_t n = variants.size();
  Timing timing;
  timing.ns_per_unit.assign(n, 0.0);
  timing.ratio.assign(n, 1.0);
  timing.rep_ns.assign(n, {});
  for (const TimedBody& v : variants) v.body();  // untimed warm-up

  std::vector<std::vector<double>> ratios(n);
  std::vector<double> t(n);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t v = (static_cast<std::size_t>(rep) + k) % n;
      const std::int64_t start = cpu_now_ns();
      for (int i = 0; i < iters; ++i) variants[v].body();
      t[v] = static_cast<double>(cpu_now_ns() - start) /
             (static_cast<double>(iters) * variants[v].units);
    }
    for (std::size_t v = 0; v < n; ++v) {
      if (rep == 0 || t[v] < timing.ns_per_unit[v]) timing.ns_per_unit[v] = t[v];
      timing.rep_ns[v].push_back(t[v]);
      if (t[0] > 0.0) ratios[v].push_back(t[v] / t[0]);
    }
  }
  for (std::size_t v = 0; v < n; ++v)
    if (!ratios[v].empty()) timing.ratio[v] = median(ratios[v]);
  return timing;
}

Circuit scattered_workload() {
  Circuit logical(10);
  logical.maj(9, 4, 0)
      .toffoli(0, 7, 9)
      .majinv(4, 1, 8)
      .fredkin(2, 6, 9)
      .swap3(0, 5, 9);
  return logical;
}

const char* target_isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#else
  return "sse2";
#endif
}

JsonResultWriter::JsonResultWriter(std::string name) : name_(std::move(name)) {
  meta("git_sha", provenance::git_sha());
  meta("compiler", provenance::compiler_version());
}

JsonResultWriter::~JsonResultWriter() { write(); }

void JsonResultWriter::meta(const std::string& key, json::Value value) {
  put(meta_, key, std::move(value));
}

void JsonResultWriter::add(const std::string& section, const std::string& key,
                           json::Value value) {
  json::Value* slot = results_.find(section);
  if (slot == nullptr) slot = &results_.set(section, json::Value::object());
  put(*slot, key, std::move(value));
}

bool JsonResultWriter::write() {
  if (written_) return true;
  written_ = true;
  try {
    json::Value doc = json::Value::object();
    doc.set("bench", name_);
    doc.set("meta", meta_);
    doc.set("results", results_);
    const std::string path = provenance::write_artifact("BENCH", name_, doc);
    if (path.empty()) return false;  // emission disabled
    std::printf("\n[json] results written to %s\n", path.c_str());
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_common: %s\n", e.what());
    return false;
  }
}

void stamp_run_meta(JsonResultWriter& json, std::uint64_t trials,
                    std::uint64_t seed, unsigned lane_words) {
  json.meta("trials", trials);
  json.meta("seed", seed);
  json.meta("lane_words", lane_words);
  json.meta("target_isa", target_isa());
}

}  // namespace revft::benchutil
