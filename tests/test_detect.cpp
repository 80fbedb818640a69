// Tests for src/detect/: the parity predicate, the parity-rail
// transform's conserved invariant, the scalar online checker, the
// exhaustive single-fault detection census (including the acceptance
// proof for the parity-checked MAJ recovery cycle), and the packed
// checked Monte-Carlo engine's determinism contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "detect/checked_mc.h"
#include "detect/checker.h"
#include "detect/parity.h"
#include "detect/rail.h"
#include "detect/retry_model.h"
#include "ft/detect_experiment.h"
#include "ft/ec_circuit.h"
#include "local/checked_machine.h"
#include "noise/injection.h"
#include "rev/simulator.h"
#include "support/error.h"
#include "support/rng.h"

namespace revft {
namespace {

constexpr GateKind kAllKinds[] = {
    GateKind::kNot,     GateKind::kCnot,    GateKind::kSwap,
    GateKind::kToffoli, GateKind::kFredkin, GateKind::kSwap3,
    GateKind::kMaj,     GateKind::kMajInv,  GateKind::kInit3,
    GateKind::kF2g,     GateKind::kNft};

static_assert(static_cast<int>(std::size(kAllKinds)) == kNumGateKinds,
              "test table must cover every kind");

// --- parity predicate ------------------------------------------------

TEST(DetectParity, PredicateMatchesSemanticsForEveryKind) {
  for (GateKind kind : kAllKinds) {
    const int arity = gate_arity(kind);
    bool conserves = true;
    for (unsigned v = 0; v < (1u << arity); ++v) {
      const unsigned out = gate_apply_local(kind, v);
      if (detect::local_parity(out, arity) != detect::local_parity(v, arity))
        conserves = false;
    }
    EXPECT_EQ(detect::parity_preserving(kind), conserves) << gate_name(kind);
  }
}

// (The expected true/false table per kind lives in test_properties'
// GateParityConservationTable; per-value F2G/NFT semantics live in
// test_gate. This suite only checks predicate<->semantics agreement
// and the detect-specific composition facts below.)

// --- new gate kinds --------------------------------------------------

TEST(DetectGates, NftIsF2gThenFredkin) {
  Circuit composite(3);
  composite.f2g(0, 1, 2).fredkin(0, 1, 2);
  Circuit nft(3);
  nft.nft(0, 1, 2);
  EXPECT_TRUE(functionally_equal(composite, nft));
}

TEST(DetectGates, NewKindsAreSelfInverse) {
  for (GateKind kind : {GateKind::kF2g, GateKind::kNft}) {
    for (unsigned v = 0; v < 8; ++v)
      EXPECT_EQ(gate_apply_local(kind, gate_apply_local(kind, v)), v)
          << gate_name(kind);
    const Gate g{kind, {0, 1, 2}};
    EXPECT_EQ(g.inverse(), g);
  }
}

// --- the rail transform's conserved invariant ------------------------

/// Random circuit over ALL kinds (init3 included) for invariant tests.
Circuit random_circuit(Xoshiro256& rng, std::uint32_t width, int ops) {
  static_assert(kNumGateKinds == 11,
                "new gate kind: extend the switch below");
  Circuit c(width);
  for (int i = 0; i < ops; ++i) {
    const auto pick = [&] {
      return static_cast<std::uint32_t>(rng.next_below(width));
    };
    std::uint32_t a = pick(), b = pick(), d = pick();
    while (b == a) b = pick();
    while (d == a || d == b) d = pick();
    switch (rng.next_below(11)) {
      case 0: c.not_(a); break;
      case 1: c.cnot(a, b); break;
      case 2: c.swap(a, b); break;
      case 3: c.toffoli(a, b, d); break;
      case 4: c.fredkin(a, b, d); break;
      case 5: c.swap3(a, b, d); break;
      case 6: c.maj(a, b, d); break;
      case 7: c.majinv(a, b, d); break;
      case 8: c.f2g(a, b, d); break;
      case 9: c.nft(a, b, d); break;
      default: c.init3(a, b, d); break;
    }
  }
  return c;
}

// In a fault-free run the invariant I = rail ^ XOR(data) holds at
// every checkpoint, for every input, including dense checkpoints.
TEST(DetectRail, InvariantHoldsIdeallyOnRandomCircuits) {
  Xoshiro256 rng(0xde7ec7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t width = 3 + static_cast<std::uint32_t>(rng.next_below(4));
    const Circuit c = random_circuit(rng, width, 24);
    detect::ParityRailOptions opts;
    opts.check_every = 1;  // checkpoint after every op group
    const auto checked = detect::to_parity_rail(c, opts);
    for (unsigned input = 0; input < (1u << width); ++input) {
      const auto run = detect::checked_run(checked, StateVector(width, input));
      EXPECT_FALSE(run.detected) << "trial " << trial << " input " << input;
    }
  }
}

// The railed circuit computes the original function on the data rails.
TEST(DetectRail, DataSemanticsPreserved) {
  Xoshiro256 rng(0x5eed);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t width = 3 + static_cast<std::uint32_t>(rng.next_below(4));
    const Circuit c = random_circuit(rng, width, 24);
    const auto checked = detect::to_parity_rail(c);
    for (unsigned input = 0; input < (1u << width); ++input) {
      StateVector plain(width, input);
      plain.apply(c);
      const auto run = detect::checked_run(checked, StateVector(width, input));
      for (std::uint32_t bit = 0; bit < width; ++bit)
        EXPECT_EQ(run.state.bit(bit), plain.bit(bit))
            << "trial " << trial << " input " << input << " bit " << bit;
    }
  }
}

// The detection guarantee of the parity-preserving gate set
// (arXiv:1008.3340): for ops with no rail compensation, every
// odd-weight corruption is caught — the fault flips the conserved
// invariant and every later gate group preserves the flip.
TEST(DetectRail, OddWeightFaultsOnParityPreservingOpsAlwaysDetected) {
  Xoshiro256 rng(0x0dd);
  for (int trial = 0; trial < 10; ++trial) {
    Circuit c(4);
    for (int i = 0; i < 16; ++i) {
      std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(4));
      std::uint32_t b = (a + 1 + static_cast<std::uint32_t>(rng.next_below(3))) % 4;
      std::uint32_t d = 0;
      while (d == a || d == b) ++d;
      switch (rng.next_below(5)) {
        case 0: c.swap(a, b); break;
        case 1: c.fredkin(a, b, d); break;
        case 2: c.swap3(a, b, d); break;
        case 3: c.f2g(a, b, d); break;
        default: c.nft(a, b, d); break;
      }
    }
    const auto checked = detect::to_parity_rail(c);
    for (unsigned input = 0; input < 16; ++input) {
      const StateVector data(4, input);
      const auto wide = detect::widen_input(checked, data);
      // Forward pass for the correct local outputs.
      StateVector state = wide;
      for (std::size_t op = 0; op < checked.circuit.size(); ++op) {
        const Gate& g = checked.circuit.op(op);
        const int n = g.arity();
        unsigned local = 0;
        for (int k = 0; k < n; ++k)
          local |= static_cast<unsigned>(
                       state.bit(g.bits[static_cast<std::size_t>(k)]))
                   << k;
        const unsigned correct = gate_apply_local(g.kind, local);
        if (detect::parity_preserving(g.kind)) {
          for (unsigned v = 0; v < (1u << n); ++v) {
            if (detect::local_parity(v ^ correct, n) != 1u) continue;
            const auto run = detect::checked_run(checked, data, {{op, v}});
            EXPECT_TRUE(run.detected)
                << "op " << op << " value " << v << " input " << input;
          }
        }
        state.apply(g);
      }
    }
  }
}

// known_zero elision narrows the rail's guarantee to states reachable
// from the promise: a fault that dirties a promised-zero cell can have
// its invariant flip cancelled by a later elided compensation that
// reads the dirty cell — detection is then strictly WEAKER than the
// plain rail's, which is why elision must be paired with zero checks
// covering the promised cells (the checked machines do both; the
// census arbitrates). This pins the counterexample so the contract
// stays documented.
TEST(DetectRail, KnownZeroElisionNeedsCoveringZeroChecks) {
  Circuit c(3);
  c.swap(1, 2).cnot(1, 0);
  const StateVector input(3, 1);  // data bit 0 = 1; cells 1, 2 clean
  // The single fault: the swap dirties cell 1 (odd-weight corruption).
  const auto dirty_swap = [](const detect::CheckedCircuit& checked) {
    return std::vector<FaultSpec>{{checked.source_position[0], 1u}};
  };

  // Plain rail: caught at the final checkpoint.
  const auto plain = detect::to_parity_rail(c);
  EXPECT_TRUE(detect::checked_run(plain, input, dirty_swap(plain)).detected);

  // Elision without zero checks: the cnot's elided compensation
  // cancels the flip — silent, and bit 0 ends corrupted.
  detect::ParityRailOptions opts;
  opts.known_zero = {1, 2};
  const auto elided = detect::to_parity_rail(c, opts);
  const auto elided_run =
      detect::checked_run(elided, input, dirty_swap(elided));
  EXPECT_FALSE(elided_run.detected);
  EXPECT_EQ(elided_run.state.bit(0), 0);

  // A zero check covering the promised cells closes the hole.
  opts.zero_checks = {{0, {1, 2}}};
  const auto guarded = detect::to_parity_rail(c, opts);
  EXPECT_TRUE(
      detect::checked_run(guarded, input, dirty_swap(guarded)).detected);
}

// --- rail partitions -------------------------------------------------

// The default (empty) partition and an explicit one-group-over-all
// partition emit bit-for-bit identical circuits and bookkeeping — the
// refactor's compatibility contract: a single global rail is just the
// trivial partition.
TEST(DetectRailPartition, DefaultEqualsExplicitSingleGroup) {
  Xoshiro256 rng(0x9a27);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t width = 3 + static_cast<std::uint32_t>(rng.next_below(4));
    const Circuit c = random_circuit(rng, width, 24);
    detect::ParityRailOptions explicit_opts;
    explicit_opts.check_every = 2;
    explicit_opts.rail_partition.emplace_back();
    for (std::uint32_t b = 0; b < width; ++b)
      explicit_opts.rail_partition[0].push_back(b);
    detect::ParityRailOptions default_opts;
    default_opts.check_every = 2;
    const auto one = detect::to_parity_rail(c, default_opts);
    const auto two = detect::to_parity_rail(c, explicit_opts);
    ASSERT_EQ(one.circuit.size(), two.circuit.size()) << "trial " << trial;
    for (std::size_t i = 0; i < one.circuit.size(); ++i)
      EXPECT_EQ(one.circuit.op(i), two.circuit.op(i)) << "op " << i;
    EXPECT_EQ(one.checkpoints, two.checkpoints);
    EXPECT_EQ(one.rail_ops, two.rail_ops);
    EXPECT_EQ(one.compensated_ops, two.compensated_ops);
    ASSERT_EQ(one.rails.size(), 1u);
    ASSERT_EQ(two.rails.size(), 1u);
    EXPECT_EQ(one.rails[0].group, two.rails[0].group);
  }
}

/// A random partition of [0, width) into 1-3 nonempty groups.
std::vector<std::vector<std::uint32_t>> random_partition(Xoshiro256& rng,
                                                         std::uint32_t width) {
  const std::size_t n_groups = 1 + rng.next_below(3);
  std::vector<std::vector<std::uint32_t>> groups(n_groups);
  for (std::uint32_t b = 0; b < width; ++b)
    groups[rng.next_below(n_groups)].push_back(b);
  groups.erase(std::remove_if(groups.begin(), groups.end(),
                              [](const auto& g) { return g.empty(); }),
               groups.end());
  return groups;
}

// Under any partition, every rail invariant holds at every checkpoint
// of a fault-free run (no false alarms), the data semantics are
// preserved, and the checkpoint membership snapshots tile the data
// bits (SWAP/SWAP3 migrate membership, never lose or duplicate it).
TEST(DetectRailPartition, InvariantsHoldIdeallyOnRandomCircuits) {
  Xoshiro256 rng(0x2a17);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t width = 4 + static_cast<std::uint32_t>(rng.next_below(4));
    const Circuit c = random_circuit(rng, width, 30);
    detect::ParityRailOptions opts;
    opts.check_every = 1;
    opts.rail_partition = random_partition(rng, width);
    const auto checked = detect::to_parity_rail(c, opts);
    EXPECT_EQ(checked.rails.size(), opts.rail_partition.size());
    ASSERT_EQ(checked.checkpoint_spans.size(), checked.checkpoints.size());
    for (const auto& span : checked.checkpoint_spans) {
      std::vector<char> seen(width, 0);
      ASSERT_EQ(span.rail_first.size(), checked.rails.size() + 1);
      std::size_t covered = 0;
      for (std::size_t r = 0; r < checked.rails.size(); ++r)
        for (const std::uint32_t bit : span.group(r)) {
          ASSERT_LT(bit, width);
          EXPECT_EQ(seen[bit], 0) << "bit in two groups at a checkpoint";
          seen[bit] = 1;
          ++covered;
        }
      EXPECT_EQ(covered, width) << "full partition must stay full";
    }
    for (unsigned input = 0; input < (1u << width); ++input) {
      StateVector plain(width, input);
      plain.apply(c);
      const auto run = detect::checked_run(checked, StateVector(width, input));
      EXPECT_FALSE(run.detected) << "trial " << trial << " input " << input;
      for (std::uint32_t bit = 0; bit < width; ++bit)
        EXPECT_EQ(run.state.bit(bit), plain.bit(bit))
            << "trial " << trial << " input " << input << " bit " << bit;
    }
  }
}

TEST(DetectRailPartition, RejectsMalformedPartitions) {
  Circuit c(3);
  c.cnot(0, 1);
  detect::ParityRailOptions opts;
  opts.rail_partition = {{0, 1}, {1, 2}};  // overlap
  EXPECT_THROW(detect::to_parity_rail(c, opts), Error);
  opts.rail_partition = {{0}, {7}};  // out of range
  EXPECT_THROW(detect::to_parity_rail(c, opts), Error);
  opts.rail_partition = {{0, 1, 2}, {}};  // empty group
  EXPECT_THROW(detect::to_parity_rail(c, opts), Error);
}

TEST(DetectRailPartition, PartitionIntoBlocksCoversEveryBit) {
  const auto groups = detect::partition_into_blocks(27, 9);
  ASSERT_EQ(groups.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(groups[s].size(), 9u);
    for (std::uint32_t k = 0; k < 9; ++k)
      EXPECT_EQ(groups[s][k], 9 * s + k);
  }
  // Remainder cells land in one short trailing group (a machine's
  // residual routing-ancilla rail).
  const auto ragged = detect::partition_into_blocks(21, 9);
  ASSERT_EQ(ragged.size(), 3u);
  EXPECT_EQ(ragged[2].size(), 3u);
}

// The partition-refinement property on the MAJ-cycle census, per
// SCENARIO: every single-fault scenario the global rail detects is
// also detected under the finer per-majority-block partition (the XOR
// of the per-rail invariants is the global invariant), and the finer
// partition detects strictly more in total. Faults are compared at
// ORIGINAL op coordinates via source_position, so the two differently
// compensated circuits see the same corruption.
TEST(DetectRailPartition, RefinementDetectsSupersetOnMajCycle) {
  const EcStage stage = make_fig2_ec(/*with_init=*/true);
  detect::ParityRailOptions global_opts;
  global_opts.check_every = 1;
  detect::ParityRailOptions fine_opts;
  fine_opts.check_every = 1;
  fine_opts.rail_partition = detect::partition_into_blocks(9, 3);
  const auto global_rail = detect::to_parity_rail(stage.circuit, global_opts);
  const auto fine = detect::to_parity_rail(stage.circuit, fine_opts);

  std::uint64_t global_detected = 0, fine_detected = 0;
  for (int logical = 0; logical <= 1; ++logical) {
    StateVector input(9);
    for (const auto bit : stage.before.data)
      input.set_bit(bit, static_cast<std::uint8_t>(logical));
    for (std::size_t op = 0; op < stage.circuit.size(); ++op) {
      const unsigned values = 1u << stage.circuit.op(op).arity();
      for (unsigned v = 0; v < values; ++v) {
        const auto g_run = detect::checked_run(
            global_rail, input, {{global_rail.source_position[op], v}});
        const auto f_run = detect::checked_run(
            fine, input, {{fine.source_position[op], v}});
        if (g_run.detected) {
          ++global_detected;
          EXPECT_TRUE(f_run.detected)
              << "refinement lost a detection: op " << op << " value " << v
              << " logical " << logical;
        }
        if (f_run.detected) ++fine_detected;
      }
    }
  }
  EXPECT_GE(fine_detected, global_detected);
  EXPECT_GT(global_detected, 0u);
}

// The one-group default reproduces the PR 2 MAJ-cycle census counts
// bit-for-bit (the values bench_detect has emitted since PR 2), and
// the per-majority-block refinement is pinned exactly too: it stays
// fault-secure while detecting at least as much.
TEST(DetectRailPartition, MajCycleCensusCountsPinned) {
  const auto census = checked_maj_cycle_census();
  EXPECT_EQ(census.scenarios, 244u);
  EXPECT_EQ(census.benign_skipped, 52u);
  EXPECT_EQ(census.harmless, 96u);
  EXPECT_EQ(census.detected_harmless, 148u);
  EXPECT_EQ(census.detected_harmful, 0u);
  EXPECT_EQ(census.silent_harmful, 0u);

  const auto fine =
      checked_maj_cycle_census(detect::partition_into_blocks(9, 3));
  EXPECT_TRUE(fine.fault_secure());
  EXPECT_GE(fine.detected(), census.detected());
  EXPECT_EQ(fine.fault_sites, 32u);
  EXPECT_EQ(fine.scenarios, 280u);
  EXPECT_EQ(fine.benign_skipped, 64u);
  EXPECT_EQ(fine.harmless, 78u);
  EXPECT_EQ(fine.detected_harmless, 202u);
  EXPECT_EQ(fine.detected_harmful, 0u);
  EXPECT_EQ(fine.silent_harmful, 0u);
  EXPECT_EQ(fine.rail_detected, (std::vector<std::uint64_t>{76, 96, 84}));
}

// Retry-cost model (post-selection economics): geometric retries at
// acceptance rate a cost 1/a trials and ops/a checked ops per
// accepted result.
TEST(DetectRailPartition, RetryCostModel) {
  detect::DetectionEstimate est;
  est.trials = 1000;
  est.detected = 250;
  EXPECT_DOUBLE_EQ(est.acceptance_rate(), 0.75);
  EXPECT_DOUBLE_EQ(est.expected_trials_to_accept(), 1.0 / 0.75);
  EXPECT_DOUBLE_EQ(est.expected_ops_to_accept(300), 400.0);
  detect::DetectionEstimate none;
  none.trials = 10;
  none.detected = 10;
  EXPECT_TRUE(std::isinf(none.expected_trials_to_accept()));
  // Exact merge covers the per-rail counts too.
  detect::DetectionEstimate a, b;
  a.trials = 5;
  a.rail_detected = {1, 2};
  a.zero_check_detected = 3;
  b.trials = 7;
  b.rail_detected = {10, 20};
  b.zero_check_detected = 1;
  a += b;
  EXPECT_EQ(a.trials, 12u);
  EXPECT_EQ(a.rail_detected, (std::vector<std::uint64_t>{11, 22}));
  EXPECT_EQ(a.zero_check_detected, 4u);
}

// Per-rail detected counts through the packed sharded engine: present,
// consistent with the combined count, and bit-identical across thread
// counts (the determinism contract extended to the partition).
TEST(DetectRailPartition, PerRailCountsDeterministicAcrossThreads) {
  const Circuit round = DetectVsCorrectExperiment::scrambler_round();
  Circuit chain(3);
  for (int r = 0; r < 8; ++r) chain.append(round);
  detect::ParityRailOptions rail_opts;
  rail_opts.check_every = 3;
  rail_opts.rail_partition = {{0}, {1, 2}};
  const auto checked = detect::to_parity_rail(chain, rail_opts);
  ASSERT_EQ(checked.rails.size(), 2u);

  struct Kernel {
    std::array<std::uint64_t, 3> lane_inputs{};
    void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
      for (std::uint32_t k = 0; k < 3; ++k) {
        lane_inputs[k] = rng.next();
        state.word(k) = lane_inputs[k];
      }
    }
    bool classify(const PackedState&, int, std::uint64_t) const {
      return false;  // only the detection split matters here
    }
  };

  ParallelMcOptions opts;
  opts.trials = 50000;
  opts.seed = 0x7e57;
  opts.batches_per_shard = 4;
  detect::DetectionEstimate runs[3];
  const int threads[3] = {1, 3, 8};
  for (int t = 0; t < 3; ++t) {
    opts.threads = threads[t];
    runs[t] = detect::run_parallel_checked_mc(
        checked, NoiseModel::uniform(0.01), opts,
        [&](std::uint64_t) { return Kernel{}; });
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
  ASSERT_EQ(runs[0].rail_detected.size(), 2u);
  EXPECT_GT(runs[0].detected, 0u);
  // Each trial that fired some rail is counted in `detected`, so no
  // rail can exceed it, and together the rails (plus zero checks,
  // none here) must account for at least every detection.
  EXPECT_LE(runs[0].rail_detected[0], runs[0].detected);
  EXPECT_LE(runs[0].rail_detected[1], runs[0].detected);
  EXPECT_GE(runs[0].rail_detected[0] + runs[0].rail_detected[1],
            runs[0].detected);
  EXPECT_EQ(runs[0].zero_check_detected, 0u);
}

// --- skip_benign -----------------------------------------------------

TEST(DetectInjection, SkipBenignPrunesExactlyOnePerOp) {
  const Circuit c = DetectVsCorrectExperiment::scrambler_round();
  std::uint64_t all_values = 0;
  for (const Gate& g : c.ops()) all_values += 1ull << g.arity();
  for (unsigned input = 0; input < 8; ++input) {
    const StateVector sv(3, input);
    const auto full = enumerate_single_faults(c, sv, /*skip_benign=*/false);
    const auto pruned = enumerate_single_faults(c, sv, /*skip_benign=*/true);
    EXPECT_EQ(full.size(), all_values);
    EXPECT_EQ(full.size(), enumerate_single_faults(c).size());
    EXPECT_EQ(pruned.size(), all_values - c.size());
    // Every pruned fault really is non-benign: injecting it changes
    // the final state relative to the fault-free run.
    StateVector clean = sv;
    clean.apply(c);
    for (const FaultSpec& f : pruned) {
      const StateVector out = apply_with_faults(c, sv, {f});
      EXPECT_FALSE(out == clean)
          << "op " << f.op_index << " value " << f.corrupted_local;
    }
  }
}

// --- the acceptance proof: parity-checked MAJ recovery cycle ---------

// Every non-benign single fault in the checked MAJ cycle — including
// faults on the encoder and compensation gates the transform added —
// is either detected or corrected by the majority vote.
// (checked_maj_cycle_census is the one shared definition; bench_detect
// prints the same census.)
TEST(DetectCensus, CheckedMajCycleIsFaultSecure) {
  const auto census = checked_maj_cycle_census();
  EXPECT_GT(census.scenarios, 200u);
  EXPECT_GT(census.benign_skipped, 0u);
  EXPECT_GT(census.detected(), 0u);
  EXPECT_EQ(census.silent_harmful, 0u);
  EXPECT_TRUE(census.fault_secure());
}

// Negative control: an unencoded circuit is NOT fault-secure — some
// even-weight corruptions escape the parity check and flip outputs.
// This is what keeps the census meaningful (and what separates
// detection from correction).
TEST(DetectCensus, BareToffoliChainHasSilentFailures) {
  Circuit c(3);
  c.toffoli(0, 1, 2).cnot(0, 1).toffoli(1, 2, 0);
  const auto checked = detect::to_parity_rail(c);
  std::vector<StateVector> inputs;
  std::vector<unsigned> expected;
  for (unsigned v = 0; v < 8; ++v) {
    inputs.emplace_back(3, v);
    expected.push_back(static_cast<unsigned>(simulate(c, v)));
  }
  const auto census = detect::single_fault_detection_census(
      checked, inputs, [&](const StateVector& out, std::size_t input) {
        for (std::uint32_t k = 0; k < 3; ++k)
          if (out.bit(k) != ((expected[input] >> k) & 1u)) return true;
        return false;
      });
  EXPECT_GT(census.silent_harmful, 0u);
  EXPECT_GT(census.detected_harmful, 0u);
  EXPECT_FALSE(census.fault_secure());
}

// --- packed checked engine -------------------------------------------

// The packed ideal semantics of the new kinds match the scalar engine.
TEST(DetectPacked, IdealSemanticsMatchScalarOnRandomCircuits) {
  Xoshiro256 rng(0xabc);
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint32_t width = 3 + static_cast<std::uint32_t>(rng.next_below(4));
    const Circuit c = random_circuit(rng, width, 30);
    PackedState ps(width);
    std::vector<std::uint64_t> inputs(width);
    for (std::uint32_t b = 0; b < width; ++b) {
      inputs[b] = rng.next();
      ps.word(b) = inputs[b];
    }
    PackedSimulator::apply_ideal(ps, c);
    for (int lane = 0; lane < 64; ++lane) {
      StateVector sv(width);
      for (std::uint32_t b = 0; b < width; ++b)
        sv.set_bit(b, static_cast<std::uint8_t>((inputs[b] >> lane) & 1u));
      sv.apply(c);
      for (std::uint32_t b = 0; b < width; ++b)
        EXPECT_EQ(ps.bit_lane(b, lane), sv.bit(b))
            << "trial " << trial << " lane " << lane << " bit " << b;
    }
  }
}

// The packed rail evaluator both packed engines call agrees with the
// scalar detect::rail_invariant lane by lane, at every checkpoint of a
// routed multi-rail machine (membership migrated by SWAP/SWAP3) and at
// every lane width tier it is instantiated for.
template <unsigned W>
void expect_packed_rails_match_scalar(const detect::CheckedCircuit& checked) {
  Xoshiro256 rng(0x9a9 + W);
  PackedState ps(checked.circuit.width(), W);
  for (std::uint32_t b = 0; b < ps.width(); ++b)
    for (unsigned w = 0; w < W; ++w) ps.words(b)[w] = rng.next();
  std::vector<StateVector> lanes(ps.lanes(), StateVector(ps.width()));
  for (unsigned lane = 0; lane < ps.lanes(); ++lane)
    for (std::uint32_t b = 0; b < ps.width(); ++b)
      lanes[lane].set_bit(b, ps.bit_lane(b, static_cast<int>(lane)));
  ASSERT_EQ(checked.checkpoint_spans.size(), checked.checkpoints.size());
  for (const detect::CheckpointSpan& span : checked.checkpoint_spans) {
    for (std::size_t r = 0; r < checked.rails.size(); ++r) {
      const std::uint32_t rail_bit = checked.rails[r].rail_bit;
      std::uint64_t packed[W];
      detect::detail::rail_invariant_words<W>(ps, rail_bit, span.group(r),
                                              packed);
      for (unsigned lane = 0; lane < ps.lanes(); ++lane)
        ASSERT_EQ(static_cast<int>((packed[lane >> 6] >> (lane & 63)) & 1u),
                  detect::rail_invariant(lanes[lane], rail_bit, span.group(r)))
            << "W=" << W << " rail " << r << " lane " << lane;
    }
  }
}

TEST(DetectPacked, RailEvaluatorMatchesScalarInvariant) {
  Circuit logical(3);
  logical.toffoli(2, 1, 0);
  const auto checked = CheckedMachine1d(3).compile(logical).checked;
  ASSERT_GT(checked.rails.size(), 1u);
  expect_packed_rails_match_scalar<1>(checked);
  expect_packed_rails_match_scalar<4>(checked);
}

detect::DetectionEstimate run_scrambler_mc(double g, int threads,
                                           std::uint64_t trials) {
  const Circuit round = DetectVsCorrectExperiment::scrambler_round();
  Circuit chain(3);
  for (int r = 0; r < 8; ++r) chain.append(round);
  detect::ParityRailOptions rail_opts;
  rail_opts.check_every = 3;
  const auto checked = detect::to_parity_rail(chain, rail_opts);
  const std::array<unsigned, 8> truth = [&] {
    std::array<unsigned, 8> t{};
    for (unsigned v = 0; v < 8; ++v)
      t[v] = static_cast<unsigned>(simulate(chain, v));
    return t;
  }();

  struct Kernel {
    const std::array<unsigned, 8>* truth;
    std::array<std::uint64_t, 3> lane_inputs{};
    void prepare(PackedState& state, Xoshiro256& rng, std::uint64_t) {
      for (std::uint32_t k = 0; k < 3; ++k) {
        lane_inputs[k] = rng.next();
        state.word(k) = lane_inputs[k];
      }
    }
    bool classify(const PackedState& state, int lane, std::uint64_t) const {
      unsigned input = 0;
      for (int k = 0; k < 3; ++k)
        input |= static_cast<unsigned>(
                     (lane_inputs[static_cast<std::size_t>(k)] >> lane) & 1u)
                 << k;
      const unsigned expected = (*truth)[input];
      for (std::uint32_t k = 0; k < 3; ++k)
        if (state.bit_lane(k, lane) != ((expected >> k) & 1u)) return true;
      return false;
    }
  };

  ParallelMcOptions opts;
  opts.trials = trials;
  opts.seed = 0x7e57;
  opts.threads = threads;
  opts.batches_per_shard = 4;  // force several shards at small trial counts
  return detect::run_parallel_checked_mc(
      checked, NoiseModel::uniform(g), opts,
      [&](std::uint64_t) { return Kernel{&truth}; });
}

TEST(DetectPacked, NoNoiseMeansNoDetectionsAndNoFailures) {
  const auto est = run_scrambler_mc(0.0, 1, 10000);
  EXPECT_EQ(est.trials, 10000u);
  EXPECT_EQ(est.detected, 0u);
  EXPECT_EQ(est.silent_failures, 0u);
  EXPECT_EQ(est.detected_failures, 0u);
  EXPECT_EQ(est.accepted(), 10000u);
}

TEST(DetectPacked, NoisyRunProducesAllOutcomeClasses) {
  const auto est = run_scrambler_mc(0.02, 0, 40000);
  EXPECT_EQ(est.trials, 40000u);
  EXPECT_GT(est.detected, 0u);
  EXPECT_GT(est.detected_failures, 0u);
  EXPECT_GT(est.silent_failures, 0u);
  // Post-selection must help: discarding flagged trials leaves a
  // cleaner population than the raw failure rate.
  EXPECT_LT(est.post_selected_error_rate(), est.raw_failure_rate());
}

// The acceptance determinism contract: detected / silent / accepted
// counts are bit-identical at 1, 2 and 8 worker threads.
TEST(DetectPacked, CountsBitIdenticalAcrossThreadCounts) {
  const auto t1 = run_scrambler_mc(0.01, 1, 100000);
  const auto t2 = run_scrambler_mc(0.01, 2, 100000);
  const auto t8 = run_scrambler_mc(0.01, 8, 100000);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  // Partial final batch accounting: trials not divisible by 64.
  const auto p1 = run_scrambler_mc(0.01, 1, 1000);
  const auto p8 = run_scrambler_mc(0.01, 8, 1000);
  EXPECT_EQ(p1.trials, 1000u);
  EXPECT_EQ(p1, p8);
}

// --- detection vs correction experiment ------------------------------

TEST(DetectExperiment, BudgetsAreComparableAndArmsRun) {
  DetectVsCorrectConfig config;
  config.gate_budget = 1200;
  config.trials = 20000;
  config.threads = 2;
  const DetectVsCorrectExperiment exp(config);
  // Both arms land within one round of the budget.
  EXPECT_LE(exp.correction_ops(), config.gate_budget);
  EXPECT_GT(exp.detection_ops(), config.gate_budget / 2);
  EXPECT_LE(exp.detection_ops(), config.gate_budget + 4);
  EXPECT_GT(exp.detection_rounds(), exp.correction_rounds());

  const auto point = exp.run(0.01);
  EXPECT_EQ(point.correction.trials, config.trials);
  EXPECT_EQ(point.detection.trials, config.trials);
  EXPECT_GT(point.detection.detected, 0u);

  // Fault-free anchor: both arms are exact at g = 0.
  const auto clean = exp.run(0.0);
  EXPECT_EQ(clean.correction.failures, 0u);
  EXPECT_EQ(clean.detection.silent_failures, 0u);
  EXPECT_EQ(clean.detection.detected, 0u);
}

// --- per-rail detection-rate helper ----------------------------------

TEST(DetectRailPartition, RailDetectedRateHelper) {
  detect::DetectionEstimate est;
  est.trials = 2000;
  est.detected = 500;
  est.rail_detected = {100, 0, 400};
  EXPECT_DOUBLE_EQ(est.rail_detected_rate(0), 0.05);
  EXPECT_DOUBLE_EQ(est.rail_detected_rate(1), 0.0);
  EXPECT_DOUBLE_EQ(est.rail_detected_rate(2), 0.2);
  // Defensive: unknown rails and empty estimates read as zero.
  EXPECT_DOUBLE_EQ(est.rail_detected_rate(3), 0.0);
  EXPECT_DOUBLE_EQ(detect::DetectionEstimate{}.rail_detected_rate(0), 0.0);
}

// --- the shared retry-cost model (detect/retry_model.h) --------------

// One implementation prices retries for examples/multi_rail,
// bench_local_checked and bench_recover; pin its arithmetic here so
// the three consumers cannot drift.
TEST(DetectRetryModel, ModelMatchesTheGeometricArithmetic) {
  detect::DetectionEstimate est;
  est.trials = 1000;
  est.detected = 200;  // acceptance 0.8
  est.rail_detected = {150, 90};
  est.zero_check_detected = 60;  // rework = (150+90+60)/1000 = 0.3
  const auto model = detect::retry_cost_model(est, 400, 6);
  EXPECT_DOUBLE_EQ(model.acceptance, 0.8);
  EXPECT_DOUBLE_EQ(model.per_trial_rework, 0.3);
  EXPECT_DOUBLE_EQ(model.whole_program, 400.0 / 0.8);
  EXPECT_DOUBLE_EQ(model.block_local, 400.0 * (1.0 + 0.3 / 0.8 / 6.0));
  // Every trial aborting prices both protocols at infinity.
  detect::DetectionEstimate dead;
  dead.trials = 10;
  dead.detected = 10;
  const auto stuck = detect::retry_cost_model(dead, 400, 6);
  EXPECT_TRUE(std::isinf(stuck.whole_program));
  EXPECT_TRUE(std::isinf(stuck.block_local));
  EXPECT_THROW(detect::retry_cost_model(est, 400, 0), Error);
}

// --- checkpoint-membership migration vs a brute-force trace ----------

// The invariant the recover/ restore path depends on: at every
// checkpoint, checkpoint_spans[k].group(r) is exactly "the cells holding
// rail r's entry values now", i.e. membership follows the data through
// arbitrary chained SWAP/SWAP3 routing. Verify against an independent
// permutation trace: walk the EMITTED circuit, tracking for every cell
// which entry cell's value it currently holds, and recompute each
// group from the entry partition.
void expect_groups_match_permutation_trace(
    const detect::CheckedCircuit& checked) {
  std::vector<int> entry_rail_of(checked.data_width, -1);
  for (std::size_t r = 0; r < checked.rails.size(); ++r)
    for (const auto bit : checked.rails[r].group)
      entry_rail_of[bit] = static_cast<int>(r);

  // value_origin[c] = entry cell whose value cell c holds now.
  std::vector<std::uint32_t> value_origin(checked.circuit.width());
  for (std::uint32_t c = 0; c < checked.circuit.width(); ++c)
    value_origin[c] = c;

  std::size_t next_checkpoint = 0;
  for (std::size_t i = 0; i < checked.circuit.size(); ++i) {
    const Gate& g = checked.circuit.op(i);
    if (g.kind == GateKind::kSwap) {
      std::swap(value_origin[g.bits[0]], value_origin[g.bits[1]]);
    } else if (g.kind == GateKind::kSwap3) {
      // (a,b,c) -> (b,c,a): b's value lands on a, c's on b, a's on c.
      const std::uint32_t at_a = value_origin[g.bits[0]];
      value_origin[g.bits[0]] = value_origin[g.bits[1]];
      value_origin[g.bits[1]] = value_origin[g.bits[2]];
      value_origin[g.bits[2]] = at_a;
    }
    while (next_checkpoint < checked.checkpoints.size() &&
           checked.checkpoints[next_checkpoint] == i) {
      const auto& span = checked.checkpoint_spans[next_checkpoint];
      ASSERT_EQ(span.rail_first.size(), checked.rails.size() + 1);
      for (std::size_t r = 0; r < checked.rails.size(); ++r) {
        std::vector<std::uint32_t> expected;
        for (std::uint32_t c = 0; c < checked.data_width; ++c)
          if (value_origin[c] < checked.data_width &&
              entry_rail_of[value_origin[c]] == static_cast<int>(r))
            expected.push_back(c);
        const auto group = span.group(r);
        EXPECT_EQ(std::vector<std::uint32_t>(group.begin(), group.end()),
                  expected)
            << "checkpoint " << next_checkpoint << " rail " << r;
      }
      ++next_checkpoint;
    }
  }
  EXPECT_EQ(next_checkpoint, checked.checkpoints.size());
}

TEST(DetectRailPartition, MembershipMigratesWithChainedRoutingSwaps) {
  // Dense random SWAP/SWAP3 chains with a checkpoint after every op:
  // multi-hop moves, membership must track every hop.
  Xoshiro256 rng(0x5eed5a11ULL);
  Circuit routing(12);
  for (int i = 0; i < 200; ++i) {
    const std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(12));
    std::uint32_t b = static_cast<std::uint32_t>(rng.next_below(12));
    while (b == a) b = static_cast<std::uint32_t>(rng.next_below(12));
    if (rng.next_below(2) == 0) {
      routing.swap(a, b);
    } else {
      std::uint32_t c = static_cast<std::uint32_t>(rng.next_below(12));
      while (c == a || c == b) c = static_cast<std::uint32_t>(rng.next_below(12));
      routing.swap3(a, b, c);
    }
  }
  detect::ParityRailOptions opts;
  opts.check_every = 1;
  opts.rail_partition = detect::partition_into_blocks(12, 3);
  expect_groups_match_permutation_trace(detect::to_parity_rail(routing, opts));
}

TEST(DetectRailPartition, MembershipMigratesThroughMachineRouting) {
  // The real thing: a compiled 1D machine program (its routing fabric
  // is nothing but chained SWAP/SWAP3 block transpositions), per-block
  // rails, checkpoints at every recovery boundary.
  Circuit logical(4);
  logical.toffoli(3, 1, 0).maj(0, 2, 3);
  CheckedMachineOptions opts;
  opts.rail_check_every_boundary = true;
  const auto program = CheckedMachine1d(4, true, opts).compile(logical);
  ASSERT_GT(program.checked.checkpoints.size(), 1u);
  expect_groups_match_permutation_trace(program.checked);
}

}  // namespace
}  // namespace revft
