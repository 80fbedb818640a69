#include "verify/certify.h"

#include <algorithm>
#include <bit>

#include "detect/checked_mc.h"
#include "noise/packed_sim.h"
#include "support/error.h"

namespace revft::verify {

namespace {

/// Everything the per-scenario walks share, precomputed once from one
/// noiseless packed pass with input i in lane i: the clean operand
/// values around every op, the observable values and the exit values
/// (each a lane word over the inputs), the per-checkpoint cell→rail
/// maps, and the clean-fire suffix (what the observables at positions
/// >= p would report on an undamaged state — zero on any sane
/// configuration, but carried exactly so the certificate never assumes
/// it).
struct CleanContext {
  const detect::CheckedCircuit& checked;
  std::size_t num_inputs = 0;
  std::uint64_t all_mask = 0;

  /// Clean lane word of op i's k-th operand cell just before / just
  /// after the op executes.
  std::vector<std::array<std::uint64_t, 3>> clean_before_op;
  std::vector<std::array<std::uint64_t, 3>> clean_after_op;
  /// clean_zc[z][j] = clean values of zero check z's j-th bit.
  std::vector<std::vector<std::uint64_t>> clean_zc;
  /// clean_inv[k][r] = clean rail-r invariant at checkpoint k.
  std::vector<std::vector<std::uint64_t>> clean_inv;
  /// Exit value of every cell.
  std::vector<std::uint64_t> clean_exit;
  /// cell_rail[k][c] = rail whose invariant cell c feeds at checkpoint
  /// k (group member or the rail bit itself), or -1.
  std::vector<std::vector<std::int8_t>> cell_rail;
  /// First zero check / checkpoint with op_index >= p.
  std::vector<std::size_t> zc_start;
  std::vector<std::size_t> cp_start;
  /// OR of every clean observable fire at positions >= p; what a
  /// scenario whose deltas all cancelled at p still observes
  /// downstream.
  std::vector<std::uint64_t> clean_fire_suffix;

  CleanContext(const detect::CheckedCircuit& c,
               const std::vector<StateVector>& data_inputs)
      : checked(c) {
    detect::check_walk_index(checked, "certify_single_faults");
    const Circuit& circuit = checked.circuit;
    const std::size_t size = circuit.size();
    num_inputs = data_inputs.size();
    REVFT_CHECK_MSG(num_inputs >= 1 && num_inputs <= 64,
                    "certify: need 1..64 inputs, got " << num_inputs);
    all_mask = num_inputs == 64 ? ~0ull : (1ull << num_inputs) - 1;

    // Lanes past the last input carry whatever the gates make of zero;
    // every word read below is masked to the input lanes.
    PackedState state(circuit.width(), 1);
    for (std::size_t in = 0; in < num_inputs; ++in) {
      REVFT_CHECK_MSG(data_inputs[in].width() == checked.data_width,
                      "certify: input " << in << " has width "
                                        << data_inputs[in].width()
                                        << ", expected " << checked.data_width);
      for (std::uint32_t cell = 0; cell < checked.data_width; ++cell)
        if (data_inputs[in].bit(cell))
          state.set_bit_lane(cell, static_cast<int>(in), true);
    }
    const auto lanes = [&](std::uint32_t cell) {
      return state.word(cell) & all_mask;
    };

    clean_before_op.assign(size, {});
    clean_after_op.assign(size, {});
    clean_zc.resize(checked.zero_checks.size());
    for (std::size_t z = 0; z < checked.zero_checks.size(); ++z)
      clean_zc[z].assign(checked.zero_checks[z].bits.size(), 0);
    clean_inv.assign(checked.checkpoints.size(),
                     std::vector<std::uint64_t>(checked.rails.size(), 0));
    std::size_t zc = 0;
    std::size_t cp = 0;
    for (std::size_t i = 0; i < size; ++i) {
      const Gate& g = circuit.op(i);
      const auto n = static_cast<std::size_t>(g.arity());
      for (std::size_t k = 0; k < n; ++k)
        clean_before_op[i][k] = lanes(g.bits[k]);
      PackedSimulator::apply_ideal(state, g);
      for (std::size_t k = 0; k < n; ++k)
        clean_after_op[i][k] = lanes(g.bits[k]);
      for (; zc < checked.zero_checks.size() &&
             checked.zero_checks[zc].op_index == i;
           ++zc)
        for (std::size_t j = 0; j < clean_zc[zc].size(); ++j)
          clean_zc[zc][j] = lanes(checked.zero_checks[zc].bits[j]);
      for (; cp < checked.checkpoints.size() && checked.checkpoints[cp] == i;
           ++cp)
        for (std::size_t r = 0; r < checked.rails.size(); ++r) {
          detect::detail::rail_invariant_words<1>(
              state, checked.rails[r].rail_bit,
              checked.checkpoint_spans[cp].group(r), &clean_inv[cp][r]);
          clean_inv[cp][r] &= all_mask;
        }
    }
    clean_exit.resize(circuit.width());
    for (std::uint32_t cell = 0; cell < circuit.width(); ++cell)
      clean_exit[cell] = lanes(cell);

    cell_rail.assign(checked.checkpoints.size(),
                     std::vector<std::int8_t>(circuit.width(), -1));
    REVFT_CHECK_MSG(checked.rails.size() <= 127,
                    "certify: more than 127 rails");
    for (std::size_t k = 0; k < checked.checkpoints.size(); ++k)
      for (std::size_t r = 0; r < checked.rails.size(); ++r) {
        cell_rail[k][checked.rails[r].rail_bit] = static_cast<std::int8_t>(r);
        for (const std::uint32_t bit : checked.checkpoint_spans[k].group(r))
          cell_rail[k][bit] = static_cast<std::int8_t>(r);
      }

    zc_start.assign(size + 1, checked.zero_checks.size());
    cp_start.assign(size + 1, checked.checkpoints.size());
    for (std::size_t p = size; p-- > 0;) {
      zc_start[p] = zc_start[p + 1];
      while (zc_start[p] > 0 &&
             checked.zero_checks[zc_start[p] - 1].op_index >= p)
        --zc_start[p];
      cp_start[p] = cp_start[p + 1];
      while (cp_start[p] > 0 && checked.checkpoints[cp_start[p] - 1] >= p)
        --cp_start[p];
    }

    clean_fire_suffix.assign(size + 1, 0);
    for (std::size_t p = size; p-- > 0;) {
      std::uint64_t fire = clean_fire_suffix[p + 1];
      for (std::size_t z = zc_start[p]; z < zc_start[p + 1]; ++z)
        for (const std::uint64_t m : clean_zc[z]) fire |= m;
      for (std::size_t k = cp_start[p]; k < cp_start[p + 1]; ++k)
        for (const std::uint64_t m : clean_inv[k]) fire |= m;
      clean_fire_suffix[p] = fire;
    }
  }
};

/// Scratch state of one (op, value) delta-cone walk, reused across
/// scenarios. Each dirty cell carries its delta — the XOR between the
/// faulted and the clean run — packed one bit per input, so a walk
/// step updates every input lane with a handful of word ops. A delta
/// that cancels on every lane (the recovery MAJ absorbing single-cell
/// damage) retires its cell exactly.
struct DeltaWalk {
  std::vector<std::uint64_t> dvals;  ///< per-input delta, valid if dirty
  std::vector<std::uint8_t> is_dirty;
  std::vector<std::uint32_t> dirty_list;
  std::vector<std::uint64_t> rail_acc;  ///< per-rail delta at a checkpoint

  explicit DeltaWalk(std::uint32_t width, std::size_t rails)
      : dvals(width, 0), is_dirty(width, 0), rail_acc(rails, 0) {}

  void reset() {
    for (const std::uint32_t c : dirty_list) {
      is_dirty[c] = 0;
      dvals[c] = 0;
    }
    dirty_list.clear();
  }

  /// Install (or retire) a cell's delta.
  void set_delta(std::uint32_t cell, std::uint64_t vals) {
    if (vals == 0) {
      if (is_dirty[cell]) {
        is_dirty[cell] = 0;
        dvals[cell] = 0;
        dirty_list.erase(
            std::find(dirty_list.begin(), dirty_list.end(), cell));
      }
      return;
    }
    if (!is_dirty[cell]) {
      is_dirty[cell] = 1;
      dirty_list.push_back(cell);
    }
    dvals[cell] = vals;
  }
};

/// Fold the observables sitting right after op position p into the
/// detected mask, given the current deltas.
void observe_at(const CleanContext& ctx, DeltaWalk& walk, std::size_t p,
                std::uint64_t& detected) {
  const auto& checked = ctx.checked;
  for (std::size_t z = ctx.zc_start[p]; z < ctx.zc_start[p + 1]; ++z) {
    const auto& bits = checked.zero_checks[z].bits;
    for (std::size_t j = 0; j < bits.size(); ++j) {
      std::uint64_t fire = ctx.clean_zc[z][j];
      if (walk.is_dirty[bits[j]]) fire ^= walk.dvals[bits[j]];
      detected |= fire;
    }
  }
  for (std::size_t k = ctx.cp_start[p]; k < ctx.cp_start[p + 1]; ++k) {
    std::fill(walk.rail_acc.begin(), walk.rail_acc.end(), 0);
    for (const std::uint32_t c : walk.dirty_list) {
      const std::int8_t r = ctx.cell_rail[k][c];
      if (r >= 0) walk.rail_acc[static_cast<std::size_t>(r)] ^= walk.dvals[c];
    }
    for (std::size_t r = 0; r < checked.rails.size(); ++r)
      detected |= ctx.clean_inv[k][r] ^ walk.rail_acc[r];
  }
}

/// Evaluate output bit `out` of `kind` on packed operand lanes via the
/// gate's ANF: XOR over monomials of the AND of the participating
/// inputs. Exact on every lane at once; every primitive kind has
/// degree <= 2, so a monomial costs at most one AND.
std::uint64_t anf_eval_packed(GateKind kind, int out,
                              const std::array<std::uint64_t, 3>& in,
                              std::uint64_t all_mask, int arity) {
  const unsigned anf = gate_output_anf(kind, out);
  std::uint64_t acc = 0;
  for (unsigned m = 0; m < (1u << arity); ++m) {
    if (!((anf >> m) & 1u)) continue;
    std::uint64_t term = all_mask;  // the constant-1 monomial
    for (int j = 0; j < arity; ++j)
      if ((m >> j) & 1u) term &= in[static_cast<std::size_t>(j)];
    acc ^= term;
  }
  return acc;
}

}  // namespace

FaultSecurityCertificate certify_single_faults(
    const detect::CheckedCircuit& checked,
    const std::vector<StateVector>& data_inputs,
    const std::vector<std::array<std::uint32_t, 3>>& codewords) {
  const CleanContext ctx(checked, data_inputs);
  const Circuit& circuit = checked.circuit;
  const std::size_t size = circuit.size();

  // Clean codeword majorities (the "expected" the wrongness judgment
  // compares against — certify_machine_program asserts they match the
  // logical semantics).
  std::vector<std::uint64_t> clean_maj(codewords.size(), 0);
  for (std::size_t w = 0; w < codewords.size(); ++w) {
    const std::uint64_t a = ctx.clean_exit[codewords[w][0]];
    const std::uint64_t b = ctx.clean_exit[codewords[w][1]];
    const std::uint64_t c = ctx.clean_exit[codewords[w][2]];
    clean_maj[w] = (a & b) | (a & c) | (b & c);
  }

  FaultSecurityCertificate cert;
  detect::DetectionCensus& counts = cert.counts;
  counts.fault_sites = count_fault_sites(circuit).sites;

  DeltaWalk walk(circuit.width(), checked.rails.size());
  const std::size_t num_inputs = ctx.num_inputs;

  for (std::size_t i = 0; i < size; ++i) {
    const Gate& g = circuit.op(i);
    const int n = g.arity();
    const unsigned values = 1u << n;
    for (unsigned v = 0; v < values; ++v) {
      walk.reset();
      // Seed the cone: operand k's faulted value is the constant bit
      // v_k on every lane, so its delta is that constant XOR the clean
      // post-op value. `nb` collects the non-benign lanes: the fault
      // is benign where no seed is set (v is the clean output there).
      std::uint64_t nb = 0;
      for (int k = 0; k < n; ++k) {
        const std::size_t sk = static_cast<std::size_t>(k);
        const std::uint64_t faulted =
            ((v >> k) & 1u) ? ctx.all_mask : 0ull;
        const std::uint64_t delta = faulted ^ ctx.clean_after_op[i][sk];
        nb |= delta;
        walk.set_delta(g.bits[sk], delta);
      }
      std::uint64_t detected = 0;
      std::uint64_t wrong = 0;
      if (walk.dirty_list.empty()) {
        detected |= ctx.clean_fire_suffix[i];
      } else {
        observe_at(ctx, walk, i, detected);
        for (std::size_t j = i + 1; j < size; ++j) {
          const Gate& gj = circuit.op(j);
          const int nj = gj.arity();
          bool touches_dirty = false;
          for (int k = 0; k < nj; ++k)
            if (walk.is_dirty[gj.bits[static_cast<std::size_t>(k)]])
              touches_dirty = true;
          if (touches_dirty) {
            // Faulted operands = clean values XOR deltas; the new
            // deltas are the faulted outputs XOR the clean outputs.
            // Exact cancellation here is the whole game: a single
            // damaged cell entering a recovery MAJ leaves the majority
            // output with a ZERO delta on every lane.
            std::array<std::uint64_t, 3> fin{};
            for (int k = 0; k < nj; ++k) {
              const std::size_t sk = static_cast<std::size_t>(k);
              const std::uint32_t cell = gj.bits[sk];
              fin[sk] = ctx.clean_before_op[j][sk] ^
                        (walk.is_dirty[cell] ? walk.dvals[cell] : 0ull);
            }
            for (int k = 0; k < nj; ++k) {
              const std::size_t sk = static_cast<std::size_t>(k);
              const std::uint64_t fout =
                  anf_eval_packed(gj.kind, k, fin, ctx.all_mask, nj);
              walk.set_delta(gj.bits[sk],
                             fout ^ ctx.clean_after_op[j][sk]);
            }
            if (walk.dirty_list.empty()) {
              // The construction absorbed the damage entirely; only
              // the clean observables remain downstream.
              detected |= ctx.clean_fire_suffix[j];
              break;
            }
          }
          observe_at(ctx, walk, j, detected);
        }
        // Wrongness: any codeword whose faulted majority decodes away
        // from the clean one.
        for (std::size_t w = 0; w < codewords.size(); ++w) {
          std::uint64_t fa = ctx.clean_exit[codewords[w][0]];
          std::uint64_t fb = ctx.clean_exit[codewords[w][1]];
          std::uint64_t fc = ctx.clean_exit[codewords[w][2]];
          if (walk.is_dirty[codewords[w][0]])
            fa ^= walk.dvals[codewords[w][0]];
          if (walk.is_dirty[codewords[w][1]])
            fb ^= walk.dvals[codewords[w][1]];
          if (walk.is_dirty[codewords[w][2]])
            fc ^= walk.dvals[codewords[w][2]];
          wrong |= ((fa & fb) | (fa & fc) | (fb & fc)) ^ clean_maj[w];
        }
      }
      const std::uint64_t benign = ctx.all_mask & ~nb;
      counts.benign_skipped +=
          static_cast<std::uint64_t>(std::popcount(benign));
      counts.scenarios += static_cast<std::uint64_t>(std::popcount(nb));
      counts.detected_harmful +=
          static_cast<std::uint64_t>(std::popcount(nb & detected & wrong));
      counts.detected_harmless +=
          static_cast<std::uint64_t>(std::popcount(nb & detected & ~wrong));
      counts.harmless +=
          static_cast<std::uint64_t>(std::popcount(nb & ~detected & ~wrong));
      const std::uint64_t silent = nb & ~detected & wrong;
      counts.silent_harmful +=
          static_cast<std::uint64_t>(std::popcount(silent));
      for (std::size_t in = 0; in < num_inputs; ++in)
        if ((silent >> in) & 1ull) {
          if (cert.insecure_examples.size() <
              FaultSecurityCertificate::kMaxInsecureExamples)
            cert.insecure_examples.push_back({{i, v}, in});
        }
    }
  }
  return cert;
}

FaultSecurityCertificate certify_machine_program(
    const CheckedMachineProgram& program, const Circuit& logical) {
  REVFT_CHECK_MSG(program.logical_bits == logical.width(),
                  "certify_machine_program: logical width mismatch");
  REVFT_CHECK_MSG(program.logical_bits <= 6,
                  "certify_machine_program: logical_bits "
                      << program.logical_bits << " > 6 (need <= 64 inputs)");
  const std::uint64_t num_inputs = 1ull << program.logical_bits;
  std::vector<StateVector> data_inputs;
  std::vector<FaultScenario> clean_runs;
  for (std::uint64_t x = 0; x < num_inputs; ++x) {
    data_inputs.push_back(machine_data_input(program, x));
    clean_runs.push_back({data_inputs.back(), {}});
  }

  // The certifier judges "wrong" against the CLEAN majority; assert
  // once that the clean program really computes `logical`, so that
  // judgment coincides with the census' is_error.
  std::size_t first_wrong = num_inputs;
  const detect::DetectionEstimate clean = detect::run_scripted_checked(
      program.checked, clean_runs, 1,
      [&](const StateVector& state, std::size_t x) {
        const bool wrong =
            machine_decode(program, state) != simulate(logical, x);
        if (wrong) first_wrong = std::min(first_wrong, x);
        return wrong;
      });
  REVFT_CHECK_MSG(clean.detected == 0,
                  "certify_machine_program: clean run raised an alarm");
  REVFT_CHECK_MSG(first_wrong == num_inputs,
                  "certify_machine_program: clean program disagrees with "
                  "the logical circuit on input "
                      << first_wrong);

  return certify_single_faults(
      program.checked, data_inputs,
      {program.output_cells.begin(), program.output_cells.end()});
}

}  // namespace revft::verify
