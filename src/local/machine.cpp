#include "local/machine.h"

#include "local/lattice.h"
#include "local/router.h"
#include "local/schedule.h"
#include "local/scheme1d.h"
#include "local/scheme2d.h"
#include "support/error.h"

namespace revft {

namespace {

/// One recovery stage on a block (block-relative, width 9).
struct Stage {
  Circuit circuit;
  std::array<std::uint32_t, 3> data_after;
  std::array<std::uint32_t, 6> clean_after;
};

template <typename Ec>
Stage stage_of(Ec ec) {
  return {std::move(ec.circuit), ec.data_after, ec.clean_after};
}

/// Everything layout-specific, block-relative (see machine.h).
struct Geometry {
  Circuit transposition{18};  ///< exchanges the blocks in cells [0, 18)
  std::uint64_t transposition_swaps = 0;  ///< adjacent cell swaps in it
  std::vector<Stage> after_not;    ///< stages after a transversal NOT
  std::vector<Stage> after_cycle;  ///< per-operand-block post-cycle stages

  /// The block at rest: where the last NOT stage leaves it.
  const Stage& rest() const { return after_not.back(); }
};

/// Route `window` items so its two halves trade places, with each
/// adjacent swap's positions mapped through `cell`.
template <typename CellOf>
void append_exchange(Geometry& geo, std::uint32_t window, CellOf cell) {
  std::vector<std::uint32_t> current(window), target(window);
  for (std::uint32_t i = 0; i < window; ++i) {
    current[i] = i;
    target[i] = (i + window / 2) % window;
  }
  std::vector<SwapOp> swaps;
  for (const SwapOp& sw : route_line(current, target))
    swaps.push_back({cell(sw.a), cell(sw.b)});
  for (const Gate& g : pack_swap3(swaps)) geo.transposition.push(g);
  geo.transposition_swaps += swaps.size();
}

Geometry make_geometry(BlockLayout layout, bool with_init) {
  Geometry geo;
  if (layout == BlockLayout::k1d) {
    // The 18-cell window of two line blocks: 81 swaps, packed.
    append_exchange(geo, 18, [](std::uint32_t i) { return i; });
    geo.after_not.push_back(stage_of(make_ec_1d(with_init)));
    return geo;
  }
  // Two stacked 3x3 blocks: each column's 6-cell window (9 swaps per
  // column), packed column by column.
  for (std::uint32_t c = 0; c < 3; ++c)
    append_exchange(geo, 6, [c](std::uint32_t r) { return grid_bit(r, c, 3); });
  // NOT acts on the row-oriented codeword; row -> column -> row keeps
  // the orientation. The cycle leaves each block column-oriented.
  geo.after_not.push_back(stage_of(make_ec_2d(Orientation2d::kRow, with_init)));
  geo.after_not.push_back(
      stage_of(make_ec_2d(Orientation2d::kColumn, with_init)));
  geo.after_cycle.push_back(
      stage_of(make_ec_2d(Orientation2d::kColumn, with_init)));
  return geo;
}

/// Working state of the compiler: which logical bit sits in each block
/// slot, plus the emitted circuit and counters.
class Compiler {
 public:
  Compiler(BlockLayout layout, std::uint32_t logical_bits, bool with_init,
           MachineProgram& program)
      : layout_(layout),
        bits_(logical_bits),
        with_init_(with_init),
        geo_(make_geometry(layout, with_init)),
        program_(program) {
    program_.rest_clean = geo_.rest().clean_after;
    for (std::uint32_t i = 0; i < bits_; ++i) {
      slot_of_.push_back(i);
      logical_at_.push_back(i);
      program_.entry_cells.push_back(data_cells(i));
    }
  }

  void emit(const Gate& g) {
    switch (g.kind) {
      case GateKind::kNot:
        emit_not(g.bits[0]);
        return;
      case GateKind::kInit3:
        emit_init(g);
        return;
      default:
        REVFT_CHECK_MSG(g.arity() == 3 && gate_is_reversible(g.kind),
                        "Machine: unsupported logical op "
                            << gate_name(g.kind));
        emit_gate3(g);
        return;
    }
  }

  void finish() {
    program_.slot_of_logical = slot_of_;
    for (std::uint32_t i = 0; i < bits_; ++i)
      program_.data_cells.push_back(data_cells(slot_of_[i]));
  }

 private:
  std::array<std::uint32_t, 3> data_cells(std::uint32_t slot) const {
    const auto& data = geo_.rest().data_after;
    return {9 * slot + data[0], 9 * slot + data[1], 9 * slot + data[2]};
  }

  /// Append a recovery stage on the block at `base` and record its
  /// boundary, which starts at `first_op`.
  void emit_stage(const Stage& stage, std::uint32_t base,
                  std::size_t first_op) {
    program_.physical.append_shifted(stage.circuit, base);
    program_.recovery_boundaries.push_back(make_boundary(
        program_.physical.size() - 1, stage.clean_after, base, first_op));
    ++program_.recovery_stages;
  }

  /// Exchange the blocks in slots s and s+1.
  void transpose_blocks(std::uint32_t s) {
    REVFT_CHECK_MSG(s + 1 < bits_, "transpose_blocks: slot out of range");
    const std::size_t span_first = program_.physical.size();
    program_.physical.append_shifted(geo_.transposition, 9 * s);
    program_.routing_spans.push_back({span_first, program_.physical.size() - 1});
    program_.routing_cell_swaps += geo_.transposition_swaps;
    ++program_.block_transpositions;
    std::swap(logical_at_[s], logical_at_[s + 1]);
    slot_of_[logical_at_[s]] = s;
    slot_of_[logical_at_[s + 1]] = s + 1;
  }

  template <typename Cycle>
  void append_cycle(const Cycle& cycle, std::uint32_t base) {
    const std::size_t op_offset = program_.physical.size();
    program_.physical.append_shifted(cycle.circuit, base);
    for (const RecoveryBoundary& boundary : cycle.recovery_boundaries)
      program_.recovery_boundaries.push_back(boundary.shifted(op_offset, base));
  }

  void emit_gate3(const Gate& g) {
    const std::uint32_t p = g.bits[0], q = g.bits[1], r = g.bits[2];
    // Gather the operand blocks consecutive in order (p, q, r); the
    // block-level schedule (inversion-count optimal) executes as
    // block transpositions.
    const auto target = gather_triple_target(logical_at_, p, q, r);
    for (const SwapOp& s : route_line(logical_at_, target))
      transpose_blocks(s.a);
    REVFT_CHECK(slot_of_[p] + 1 == slot_of_[q] && slot_of_[q] + 1 == slot_of_[r]);

    const std::uint32_t base = 9 * slot_of_[p];
    if (layout_ == BlockLayout::k1d)
      append_cycle(make_cycle_1d(g.kind, with_init_), base);
    else
      append_cycle(make_cycle_2d(g.kind, with_init_), base);
    ++program_.gate_cycles;
    program_.recovery_stages += 3;
    for (const Stage& stage : geo_.after_cycle)
      for (std::uint32_t l : {p, q, r})
        emit_stage(stage, 9 * slot_of_[l], program_.physical.size());
  }

  void emit_not(std::uint32_t l) {
    const std::uint32_t base = 9 * slot_of_[l];
    // Transversal NOT on the codeword; the first stage's boundary
    // interval covers it.
    std::size_t first_op = program_.physical.size();
    for (const std::uint32_t offset : geo_.rest().data_after)
      program_.physical.not_(base + offset);
    for (const Stage& stage : geo_.after_not) {
      emit_stage(stage, base, first_op);
      first_op = program_.physical.size();
    }
  }

  void emit_init(const Gate& g) {
    for (int k = 0; k < 3; ++k) {
      const std::uint32_t base = 9 * slot_of_[g.bits[static_cast<std::size_t>(k)]];
      const std::size_t stage_first = program_.physical.size();
      // Reset the block as three local triples (1D line thirds, 2D rows).
      for (std::uint32_t t = 0; t < 9; t += 3)
        program_.physical.init3(base + t, base + t + 1, base + t + 2);
      // A freshly initialized block is all-zero — a boundary too.
      const std::uint32_t all_cells[9] = {0, 1, 2, 3, 4, 5, 6, 7, 8};
      program_.recovery_boundaries.push_back(make_boundary(
          program_.physical.size() - 1, all_cells, base, stage_first));
    }
  }

  BlockLayout layout_;
  std::uint32_t bits_;
  bool with_init_;
  Geometry geo_;
  MachineProgram& program_;
  std::vector<std::uint32_t> slot_of_;    // logical -> slot
  std::vector<std::uint32_t> logical_at_; // slot -> logical
};

}  // namespace

Machine::Machine(BlockLayout layout, std::uint32_t logical_bits,
                 bool with_init)
    : layout_(layout), logical_bits_(logical_bits), with_init_(with_init) {
  REVFT_CHECK_MSG(logical_bits >= 3, "Machine: need at least 3 logical bits");
}

MachineProgram Machine::compile(const Circuit& logical) const {
  REVFT_CHECK_MSG(logical.width() == logical_bits_,
                  "Machine::compile: circuit width " << logical.width()
                                                     << " != machine size "
                                                     << logical_bits_);
  MachineProgram program;
  program.physical = Circuit(cells());
  Compiler compiler(layout_, logical_bits_, with_init_, program);
  for (const Gate& g : logical.ops()) compiler.emit(g);
  compiler.finish();
  schedule_program(program);
  return program;
}

}  // namespace revft
