#include "entropy/empirical.h"

#include <vector>

#include "ft/ec_circuit.h"
#include "noise/parallel_mc.h"
#include "support/entropy_math.h"

namespace revft {

AncillaEntropyResult measure_ec_ancilla_entropy(double g, bool noisy_init,
                                                std::uint64_t trials,
                                                std::uint64_t seed) {
  const EcStage stage = make_fig2_ec(/*with_init=*/true);
  NoiseModel model = NoiseModel::uniform(g);
  if (!noisy_init) model.with_perfect_init();

  AncillaEntropyResult result;
  std::vector<std::uint64_t>& counts = result.counts;
  counts.assign(64, 0);  // joint over 6 discarded bits

  ParallelMcOptions opts;
  opts.trials = trials;
  opts.seed = seed;
  opts.threads = 1;  // classify writes the one shared histogram
  auto prepare = [&](PackedState& state, Xoshiro256& rng, std::uint64_t) {
    // Uniformly random logical value per lane, encoded as a clean
    // codeword on the data bits; ancillas stay zero.
    const std::uint64_t v = rng.next();
    for (const auto bit : stage.before.data) state.word(bit) = v;
  };
  auto classify = [&](const PackedState& state, int lane, std::uint64_t) {
    unsigned pattern = 0;
    for (int i = 0; i < 6; ++i)
      pattern |= static_cast<unsigned>(
                     state.bit_lane(stage.after.ancilla[static_cast<std::size_t>(i)],
                                    lane))
                 << i;
    ++counts[pattern];
    return false;  // nothing to count as "error" here
  };
  (void)run_parallel_mc(stage.circuit, model, opts,
                        per_shard_kernel(prepare, classify));

  result.trials = trials;
  result.noisy_ops = noisy_init ? stage.circuit.size()
                                : stage.circuit.histogram().total_reversible();
  result.entropy_plugin = entropy_plugin(counts);
  result.entropy_miller_madow = entropy_miller_madow(counts);
  return result;
}

}  // namespace revft
