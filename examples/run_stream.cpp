// examples/run_stream.cpp
//
// Live streaming Monte-Carlo runner: watch an estimate converge round
// by round, stop the moment the EarlyStopPolicy is satisfied, and
// leave the full observability trail behind — CONV_<name>.json (the
// trajectory telemetry_check validates) plus a Chrome-trace counter
// series Perfetto can graph.
//
// Usage:
//   ./run_stream [engine] [g] [trials] [target]
//     engine : plain | checked | recovering       (default plain)
//     g      : physical error rate                (default: plain 0.05,
//              checked/recovering 1e-3 — at 0.05 the 1D machine
//              accepts no recovering trial)
//     trials : trial budget                       (default 200000)
//     target : plain  — relative half-width target (default 0.2,
//              "know p_L to within 20%");
//              checked/recovering — certified upper bound on the
//              post-selected / delivered silent rate (default 0.02)
//
// The stop decision is taken only at merged round boundaries, so the
// printed trajectory AND the final estimate are bit-identical at any
// REVFT_THREADS — try it.
//
// Artifacts land in $REVFT_JSON_DIR ("." by default, "" disables):
// CONV_<engine>_stream.json and TRACE_<engine>_stream_conv.json.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "example_args.h"
#include "ft/experiments.h"
#include "ft/recover_experiment.h"
#include "local/checked_machine.h"
#include "recover/retry.h"
#include "support/provenance.h"
#include "telemetry/stream.h"

using namespace revft;

namespace {

// The checked/recovering workload: the checked_machine example's 5-bit
// program with deliberately scattered operands.
Circuit scattered5() {
  Circuit logical(5);
  logical.maj(4, 2, 0).toffoli(0, 3, 4).majinv(2, 1, 4).swap3(0, 2, 4);
  return logical;
}

void print_snapshot(const telemetry::ConvergenceSnapshot& snap) {
  std::printf("round %4llu  trials %9llu  rate %.4e  +/- %.2e\n",
              static_cast<unsigned long long>(snap.round),
              static_cast<unsigned long long>(snap.trials), snap.rate,
              snap.half_width);
  std::fflush(stdout);
}

/// The silent rate among accepted trials, or "no trial accepted" —
/// with none accepted there is no rate to report, not a rate of 0.
void print_error(const char* what, std::uint64_t silent,
                 std::uint64_t accepted) {
  if (accepted == 0) {
    std::printf("%s error: no trial accepted\n", what);
    return;
  }
  std::printf("%s error = %.4e  (%llu silent / %llu accepted)\n", what,
              static_cast<double>(silent) / static_cast<double>(accepted),
              static_cast<unsigned long long>(silent),
              static_cast<unsigned long long>(accepted));
}

void finish(const telemetry::ConvergenceTrajectory& traj) {
  std::printf("stop: %s after %llu rounds, %llu / %llu trials (%.1f%% of "
              "budget)\n",
              telemetry::stop_reason_name(traj.stop_reason),
              static_cast<unsigned long long>(traj.rounds()),
              static_cast<unsigned long long>(traj.trials_consumed()),
              static_cast<unsigned long long>(traj.key.trials),
              traj.key.trials == 0
                  ? 0.0
                  : 100.0 * static_cast<double>(traj.trials_consumed()) /
                        static_cast<double>(traj.key.trials));
  std::printf("wall: %.3f s over %zu rounds\n", traj.wall.total_seconds(),
              traj.wall.round_seconds.size());

  const std::string conv =
      provenance::write_artifact("CONV", traj.name, traj.to_json());
  if (!conv.empty()) {
    std::printf("wrote %s\n", conv.c_str());
    const std::string trace = provenance::write_artifact(
        "TRACE", traj.name + "_conv",
        telemetry::convergence_chrome_json(traj, traj.name));
    std::printf("wrote %s\n", trace.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string engine = argc > 1 ? argv[1] : "plain";
  const double g = argc > 2 ? std::strtod(argv[2], nullptr)
                            : (engine == "plain" ? 0.05 : 1e-3);
  const std::uint64_t trials = u64_arg(argc, argv, 3, "trials", 200000);
  const double target = argc > 4 ? std::strtod(argv[4], nullptr)
                                 : (engine == "plain" ? 0.2 : 0.02);

  telemetry::StreamOptions stream;
  stream.name = engine + "_stream";
  stream.mc.batches_per_shard = 64;  // fine snapshot cadence
  stream.on_snapshot = [](const telemetry::ConvergenceSnapshot& snap,
                          const telemetry::ConvergenceTrajectory&) {
    print_snapshot(snap);
  };

  if (engine == "plain") {
    // Pinpoint estimation: stop when p_L is known to within `target`
    // (relatively). The failure floor keeps a lucky zero-failure
    // prefix from stopping the run with a meaningless estimate.
    stream.stop.target_rel_half_width = target;
    stream.stop.min_trials = 1024;
    stream.stop.min_failures = 20;

    LogicalGateExperimentConfig config;
    config.level = 1;
    config.trials = trials;
    const LogicalGateExperiment exp(config);
    std::printf("plain engine: level-1 %s, g=%g, budget %llu trials, "
                "rel half-width target %g\n",
                "Toffoli", g, static_cast<unsigned long long>(trials), target);
    const auto result = exp.run_streaming(g, stream);
    std::printf("p_L = %.4e  (%llu failures / %llu trials)\n",
                result.estimate.rate(),
                static_cast<unsigned long long>(result.estimate.failures),
                static_cast<unsigned long long>(result.estimate.trials));
    finish(result.trajectory);
  } else if (engine == "checked") {
    // Certification: stop as soon as the Wilson upper bound on the
    // post-selected silent rate falls under `target` — the
    // sub-threshold use case (silent failures need multiple faults, so
    // the bound certifies fast at small g).
    stream.stop.target_upper_bound = target;
    stream.stop.min_trials = 4096;

    const Circuit logical = scattered5();
    CheckedMachineExperiment::Config config;
    config.trials = trials;
    const CheckedMachineExperiment exp(CheckedMachine1d(5).compile(logical),
                                       logical, config);
    std::printf("checked engine: 1D machine, g=%g, budget %llu trials, "
                "certify post-selected error < %g\n",
                g, static_cast<unsigned long long>(trials), target);
    const auto result = exp.run_streaming(g, stream);
    print_error("post-selected", result.estimate.silent_failures,
                result.estimate.accepted());
    std::printf("detected rate %.4f\n", result.estimate.detected_rate());
    finish(result.trajectory);
  } else if (engine == "recovering") {
    stream.stop.target_upper_bound = target;
    stream.stop.min_trials = 4096;

    const Circuit logical = scattered5();
    CheckedMachineProgram program =
        CheckedMachine1d(5, true, recovering_machine_options())
            .compile(logical);
    RecoveryExperiment::Config config;
    config.trials = trials;
    const RecoveryExperiment exp(std::move(program), logical, config);
    std::printf("recovering engine: 1D machine + block-local retry, g=%g, "
                "budget %llu trials, certify delivered error < %g\n",
                g, static_cast<unsigned long long>(trials), target);
    const auto result =
        exp.run_streaming(g, recover::RetryPolicy::block_local(), stream);
    print_error("delivered", result.estimate.silent_failures,
                result.estimate.accepted);
    std::printf("%llu local retries, %llu restarts\n",
                static_cast<unsigned long long>(result.estimate.local_retries),
                static_cast<unsigned long long>(
                    result.estimate.program_restarts));
    finish(result.trajectory);
  } else {
    std::fprintf(stderr, "unknown engine '%s' (want plain|checked|recovering)\n",
                 engine.c_str());
    return 1;
  }
  return 0;
}
