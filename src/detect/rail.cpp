#include "detect/rail.h"

#include <algorithm>
#include <array>
#include <sstream>

#include "detect/parity.h"
#include "support/error.h"

namespace revft::detect {

namespace {

/// Emits rail-compensation gates, fusing them: every compensation is
/// an "XOR f(controls) into rail" involution, so two identical ones
/// cancel as long as no intervening op wrote a control (enforced by
/// flushing on touch) and no checkpoint read the rail in between
/// (enforced by flushing at checkpoints) — a MAJ ... MAJ⁻¹ span needs
/// no rail traffic at all. Fusing removes fault locations, which
/// slightly reshapes WHAT is detectable; the census is the arbiter.
/// Emitted gates are attributed to their rail (the target operand) for
/// the per-rail accounting.
class CompensationEmitter {
 public:
  CompensationEmitter(Circuit& out, std::uint32_t data_width,
                      std::uint64_t& rail_ops,
                      std::vector<std::uint64_t>& per_rail_ops)
      : out_(out),
        data_width_(data_width),
        rail_ops_(rail_ops),
        per_rail_ops_(per_rail_ops) {}

  /// Number of add() calls so far (fusion cancellations included) —
  /// the transform's "this op needed compensation" signal.
  std::uint64_t adds() const noexcept { return adds_; }

  /// Queue one compensation gate. `controls` is how many leading
  /// operands are reads; the last operand is the rail.
  void add(const Gate& comp) {
    ++adds_;
    const auto match = std::find(pending_.begin(), pending_.end(), comp);
    if (match != pending_.end())
      pending_.erase(match);  // involution pair: identity on the rail
    else
      pending_.push_back(comp);
  }

  /// Emit, in queue order, every pending compensation whose controls
  /// gate `g` is about to write. Must run before `g` itself.
  void flush_touching(const Gate& g) {
    for (std::size_t i = 0; i < pending_.size();) {
      if (reads_bit_of(pending_[i], g)) {
        emit(pending_[i]);
        pending_.erase(pending_.begin() +
                       static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }

  /// Emit everything still pending (checkpoints and circuit end).
  void flush_all() {
    for (const Gate& comp : pending_) emit(comp);
    pending_.clear();
  }

 private:
  static bool reads_bit_of(const Gate& comp, const Gate& g) {
    // A compensation gate's reads are every operand but its target
    // (the rail), which original gates never touch.
    const int controls = comp.arity() - 1;
    for (int k = 0; k < controls; ++k)
      if (g.touches(comp.bits[static_cast<std::size_t>(k)])) return true;
    return false;
  }

  void emit(const Gate& comp) {
    out_.push(comp);
    ++rail_ops_;
    const std::uint32_t target =
        comp.bits[static_cast<std::size_t>(comp.arity() - 1)];
    ++per_rail_ops_[target - data_width_];
  }

  Circuit& out_;
  std::uint32_t data_width_;
  std::uint64_t& rail_ops_;
  std::vector<std::uint64_t>& per_rail_ops_;
  std::uint64_t adds_ = 0;
  std::vector<Gate> pending_;
};

/// Exact known-zero dataflow: which bits are provably zero in every
/// fault-free run, given the entry promise. The transfer is generic
/// over the local truth table — enumerate every local input whose
/// known-zero operands are 0, and keep an output bit's flag only when
/// it is 0 in all of them. Swaps therefore carry flags with the moving
/// values, init3 creates them, and XOR-ish gates meet them, with no
/// per-kind casework to fall out of date.
class KnownZero {
 public:
  KnownZero(std::uint32_t width, const std::vector<std::uint32_t>& bits)
      : zero_(width, 0) {
    for (const std::uint32_t b : bits) {
      REVFT_CHECK_MSG(b < width, "known_zero bit " << b << " out of range");
      zero_[b] = 1;
    }
  }

  bool is_zero(std::uint32_t bit) const { return zero_[bit] != 0; }

  /// Re-arm flags at a zero check: the checker asserted these cells
  /// clean, and any state violating that is already flagged.
  void assert_zero(const std::vector<std::uint32_t>& bits) {
    for (const std::uint32_t b : bits) zero_[b] = 1;
  }

  void apply(const Gate& g) {
    const int n = g.arity();
    unsigned free_mask = 0;
    for (int k = 0; k < n; ++k)
      if (!zero_[g.bits[static_cast<std::size_t>(k)]])
        free_mask |= 1u << k;
    unsigned zero_out = (1u << n) - 1;
    unsigned s = free_mask;
    do {
      zero_out &= ~gate_apply_local(g.kind, s);
      s = (s - 1) & free_mask;
    } while (s != free_mask);
    for (int k = 0; k < n; ++k)
      zero_[g.bits[static_cast<std::size_t>(k)]] =
          static_cast<char>((zero_out >> k) & 1u);
  }

 private:
  std::vector<char> zero_;
};

/// Compensation for gates whose parity delta must be read off the
/// *input* values (queued before the gate; flush-on-touch emits it
/// ahead of the gate itself). Compensations whose delta is provably
/// zero on the reachable states (per the known-zero flags) are elided.
/// This is the single-rail casework, used whenever ALL of a gate's
/// operands belong to one rail's group (always, under the default
/// partition) — it picks the cheapest reading (pre or post values) per
/// kind and so pairs with the fuser's MAJ ... MAJ⁻¹ cancellation.
void pre_compensation(CompensationEmitter& comp, const Gate& g,
                      std::uint32_t rail, const KnownZero& zero) {
  switch (g.kind) {
    case GateKind::kMajInv:
      // MAJ⁻¹ is Toffoli(b,c -> a) then CNOT(a -> b), CNOT(a -> c);
      // only the Toffoli moves total parity, by b & c of the inputs.
      if (!zero.is_zero(g.bits[1]) && !zero.is_zero(g.bits[2]))
        comp.add(make_toffoli(g.bits[1], g.bits[2], rail));
      return;
    case GateKind::kInit3:
      // The reset discards a ^ b ^ c of parity; fold the old values
      // into the rail before they vanish (skipping provably-clean
      // cells).
      for (int k = 0; k < 3; ++k)
        if (!zero.is_zero(g.bits[static_cast<std::size_t>(k)]))
          comp.add(make_cnot(g.bits[static_cast<std::size_t>(k)], rail));
      return;
    default:
      return;
  }
}

/// Compensation for gates whose parity delta is a function of values
/// still present after the gate. `zero` holds the flags BEFORE the
/// gate; the conditions below are expressed in before-values.
void post_compensation(CompensationEmitter& comp, const Gate& g,
                       std::uint32_t rail, const KnownZero& zero) {
  switch (g.kind) {
    case GateKind::kNot:
      comp.add(make_not(rail));
      return;
    case GateKind::kCnot:
      if (!zero.is_zero(g.bits[0])) comp.add(make_cnot(g.bits[0], rail));
      return;
    case GateKind::kToffoli:
      if (!zero.is_zero(g.bits[0]) && !zero.is_zero(g.bits[1]))
        comp.add(make_toffoli(g.bits[0], g.bits[1], rail));
      return;
    case GateKind::kMaj:
      // MAJ is CNOT(a -> b), CNOT(a -> c) (two cancelling deltas) then
      // Toffoli(b,c -> a) on the new values b^a, c^a — which the b and
      // c rails still hold after the gate. The delta vanishes when
      // either is provably zero, i.e. when a and b (or a and c) are.
      if (!(zero.is_zero(g.bits[0]) && zero.is_zero(g.bits[1])) &&
          !(zero.is_zero(g.bits[0]) && zero.is_zero(g.bits[2])))
        comp.add(make_toffoli(g.bits[1], g.bits[2], rail));
      return;
    default:
      return;
  }
}

/// Exact per-rail compensation for gates whose operands straddle
/// groups (or touch unwatched bits): the parity delta of the rail's
/// operand subset, as a Boolean function of the gate's INPUT values,
/// reduced to its algebraic normal form over the not-known-zero
/// variables and emitted as NOT / CNOT / Toffoli terms onto the rail
/// (queued before the gate so the reads see pre-gate values). Every
/// primitive kind has component functions of degree <= 2, so subset
/// deltas never need a cubic term — checked, so a future gate kind
/// cannot silently break the rails.
void subset_compensation(CompensationEmitter& comp, const Gate& g,
                         std::uint32_t rail, unsigned subset,
                         const KnownZero& zero) {
  const int n = g.arity();
  unsigned free_mask = 0;
  for (int k = 0; k < n; ++k)
    if (!zero.is_zero(g.bits[static_cast<std::size_t>(k)]))
      free_mask |= 1u << k;

  // The delta's ANF, assembled from the per-output ANFs the gate table
  // exports (rev/gate_output_anf): parity-after is the XOR of the
  // subset's output ANFs, parity-before contributes one singleton
  // monomial per subset member. Fixing the known-zero inputs to 0
  // deletes every monomial that mentions them — the coefficients of
  // the surviving monomials are unchanged.
  unsigned anf = 0;
  for (int k = 0; k < n; ++k)
    if ((subset >> k) & 1u) anf ^= gate_output_anf(g.kind, k) ^ (1u << (1u << k));
  // (XOR of the singleton monomial masks: bit (1<<k) indexes x_k.)
  // Emit NOT/CNOT/Toffoli terms in descending-subset order — the order
  // the fuser's involution matching was pinned against.
  unsigned m = free_mask;
  for (;;) {
    const unsigned coeff = (anf >> m) & 1u;
    if (coeff) {
      std::uint32_t operand[3];
      int terms = 0;
      for (int k = 0; k < n; ++k)
        if ((m >> k) & 1u) operand[terms++] = g.bits[static_cast<std::size_t>(k)];
      switch (terms) {
        case 0:
          comp.add(make_not(rail));
          break;
        case 1:
          comp.add(make_cnot(operand[0], rail));
          break;
        case 2:
          comp.add(make_toffoli(operand[0], operand[1], rail));
          break;
        default:
          REVFT_CHECK_MSG(false, "subset_compensation: gate kind "
                                     << gate_name(g.kind)
                                     << " needs a cubic rail term");
      }
    }
    if (m == 0) break;
    m = (m - 1) & free_mask;
  }
}

}  // namespace

bool migrate_membership(const Gate& g, std::span<int> rail_of) {
  if (g.kind != GateKind::kSwap && g.kind != GateKind::kSwap3) return true;
  for (int k = 0; k < g.arity(); ++k)
    if (g.bits[static_cast<std::size_t>(k)] >= rail_of.size()) return false;
  if (g.kind == GateKind::kSwap) {
    std::swap(rail_of[g.bits[0]], rail_of[g.bits[1]]);
  } else {
    const int at_a = rail_of[g.bits[0]];
    rail_of[g.bits[0]] = rail_of[g.bits[1]];
    rail_of[g.bits[1]] = rail_of[g.bits[2]];
    rail_of[g.bits[2]] = at_a;
  }
  return true;
}

namespace {

/// add_zero_check without the re-index (to_parity_rail indexes once,
/// at the end).
void push_zero_check(CheckedCircuit& checked, std::size_t source_op,
                     std::vector<std::uint32_t> bits) {
  REVFT_CHECK_MSG(source_op < checked.source_position.size(),
                  "add_zero_check: source op " << source_op << " out of range");
  REVFT_CHECK_MSG(!bits.empty(), "add_zero_check: no bits");
  for (const std::uint32_t b : bits)
    REVFT_CHECK_MSG(b < checked.data_width,
                    "add_zero_check: bit " << b << " is not a data rail");
  const std::size_t pos = checked.source_position[source_op];
  REVFT_CHECK_MSG(
      checked.zero_checks.empty() || checked.zero_checks.back().op_index <= pos,
      "add_zero_check: checks must be registered in source order");
  checked.zero_checks.push_back({pos, std::move(bits)});
}

}  // namespace

CheckedCircuit to_parity_rail(const Circuit& circuit,
                              const ParityRailOptions& opts) {
  REVFT_CHECK_MSG(circuit.width() >= 1, "to_parity_rail: empty circuit");

  CheckedCircuit checked;
  checked.data_width = circuit.width();

  // Resolve the partition: explicit groups, or the classic single
  // group over every data bit. rail_of[bit] = rail index or -1.
  std::vector<int> rail_of(circuit.width(), -1);
  if (opts.rail_partition.empty()) {
    RailInfo rail;
    rail.rail_bit = checked.data_width;
    rail.group.reserve(circuit.width());
    for (std::uint32_t d = 0; d < circuit.width(); ++d) rail.group.push_back(d);
    checked.rails.push_back(std::move(rail));
    std::fill(rail_of.begin(), rail_of.end(), 0);
  } else {
    for (const auto& group : opts.rail_partition) {
      REVFT_CHECK_MSG(!group.empty(), "to_parity_rail: empty rail group");
      RailInfo rail;
      rail.rail_bit = checked.data_width +
                      static_cast<std::uint32_t>(checked.rails.size());
      rail.group = group;
      std::sort(rail.group.begin(), rail.group.end());
      for (const std::uint32_t bit : rail.group) {
        REVFT_CHECK_MSG(bit < circuit.width(),
                        "to_parity_rail: rail group bit " << bit
                                                          << " out of range");
        REVFT_CHECK_MSG(rail_of[bit] < 0, "to_parity_rail: bit "
                                              << bit
                                              << " in two rail groups");
        rail_of[bit] = static_cast<int>(checked.rails.size());
      }
      checked.rails.push_back(std::move(rail));
    }
  }
  const std::uint32_t n_rails = static_cast<std::uint32_t>(checked.rails.size());
  std::vector<std::uint64_t> per_rail_ops(n_rails, 0);

  // The merged checkpoint schedule — periodic plus explicit positions,
  // minus the last op (folded into the unconditional final checkpoint).
  std::vector<char> checkpoint_here(circuit.size(), 0);
  if (opts.check_every > 0)
    for (std::size_t i = opts.check_every - 1; i < circuit.size();
         i += opts.check_every)
      checkpoint_here[i] = 1;
  for (const std::size_t i : opts.checkpoint_after) {
    REVFT_CHECK_MSG(i < circuit.size(),
                    "to_parity_rail: checkpoint_after " << i << " out of range");
    checkpoint_here[i] = 1;
  }
  if (!circuit.empty()) checkpoint_here[circuit.size() - 1] = 0;
  Circuit out(circuit.width() + n_rails);
  CompensationEmitter comp(out, checked.data_width, checked.rail_ops,
                           per_rail_ops);

  auto checkpoint = [&] {
    comp.flush_all();  // the invariants must be current where checked
    if (!out.empty()) checked.checkpoints.push_back(out.size() - 1);
  };

  // Encoders: load each rail with the XOR of its group's input data
  // (cells promised zero contribute nothing and are skipped).
  KnownZero zero(circuit.width(), opts.known_zero);
  for (std::size_t r = 0; r < checked.rails.size(); ++r) {
    for (const std::uint32_t d : checked.rails[r].group) {
      if (zero.is_zero(d)) continue;
      out.cnot(d, checked.rails[r].rail_bit);
      ++checked.rail_ops;
      ++per_rail_ops[r];
    }
  }

  std::size_t next_zero_check = 0;
  checked.source_position.reserve(circuit.size());
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.op(i);
    const std::uint64_t adds_before = comp.adds();
    const int n = g.arity();
    if (g.kind == GateKind::kSwap || g.kind == GateKind::kSwap3) {
      // Unconditional permutation: the values move, their membership
      // moves with them — every rail's invariant is conserved with no
      // compensation at any partition granularity. Pending comps that
      // read a moved cell still flush first (the values they were
      // queued against are about to relocate).
      comp.flush_touching(g);
      out.push(g);
      checked.source_position.push_back(out.size() - 1);
      migrate_membership(g, rail_of);  // the input holds data bits only
    } else {
      // Which rails can this gate's action touch, and does it stay
      // inside one group? Inside one group the subset is the full
      // operand set, so the hand-tuned single-rail casework applies
      // (post-value readings, MAJ/MAJ⁻¹ fusion); across groups each
      // affected rail gets the exact subset delta. All-unwatched
      // operands need no rail at all.
      int single_rail = rail_of[g.bits[0]];
      bool one_group = true;
      for (int k = 1; k < n; ++k)
        if (rail_of[g.bits[static_cast<std::size_t>(k)]] != single_rail)
          one_group = false;
      if (one_group && single_rail >= 0) {
        const std::uint32_t rail_bit =
            checked.rails[static_cast<std::size_t>(single_rail)].rail_bit;
        pre_compensation(comp, g, rail_bit, zero);
        comp.flush_touching(g);
        out.push(g);
        checked.source_position.push_back(out.size() - 1);
        post_compensation(comp, g, rail_bit, zero);
      } else {
        if (!one_group) {
          for (std::uint32_t r = 0; r < n_rails; ++r) {
            unsigned subset = 0;
            for (int k = 0; k < n; ++k)
              if (rail_of[g.bits[static_cast<std::size_t>(k)]] ==
                  static_cast<int>(r))
                subset |= 1u << k;
            if (subset)
              subset_compensation(comp, g, checked.rails[r].rail_bit, subset,
                                  zero);
          }
        }
        comp.flush_touching(g);
        out.push(g);
        checked.source_position.push_back(out.size() - 1);
      }
    }
    if (comp.adds() != adds_before) ++checked.compensated_ops;
    zero.apply(g);
    while (next_zero_check < opts.zero_checks.size() &&
           opts.zero_checks[next_zero_check].op_index == i) {
      const ZeroCheck& check = opts.zero_checks[next_zero_check];
      push_zero_check(checked, i, check.bits);
      zero.assert_zero(check.bits);
      ++next_zero_check;
    }
    if (checkpoint_here[i]) checkpoint();
  }
  checkpoint();  // final checkpoint, always present
  REVFT_CHECK_MSG(next_zero_check == opts.zero_checks.size(),
                  "to_parity_rail: zero_checks must be sorted by op_index "
                  "with every index < circuit.size()");

  for (std::uint32_t r = 0; r < n_rails; ++r)
    checked.rails[r].rail_ops = per_rail_ops[r];
  checked.circuit = std::move(out);
  index_walk(checked);
  return checked;
}

std::vector<std::uint32_t> known_zero_outside(
    std::uint32_t width, const std::vector<std::uint32_t>& data_bits) {
  std::vector<char> is_data(width, 0);
  for (const std::uint32_t bit : data_bits) {
    REVFT_CHECK_MSG(bit < width, "known_zero_outside: bit out of range");
    is_data[bit] = 1;
  }
  std::vector<std::uint32_t> zero;
  for (std::uint32_t bit = 0; bit < width; ++bit)
    if (!is_data[bit]) zero.push_back(bit);
  return zero;
}

std::vector<std::vector<std::uint32_t>> partition_into_blocks(
    std::uint32_t width, std::uint32_t block_size) {
  REVFT_CHECK_MSG(block_size >= 1, "partition_into_blocks: empty blocks");
  REVFT_CHECK_MSG(width >= 1, "partition_into_blocks: empty width");
  std::vector<std::vector<std::uint32_t>> groups;
  for (std::uint32_t base = 0; base < width; base += block_size) {
    std::vector<std::uint32_t> group;
    for (std::uint32_t bit = base; bit < width && bit < base + block_size;
         ++bit)
      group.push_back(bit);
    groups.push_back(std::move(group));
  }
  return groups;
}

void add_zero_check(CheckedCircuit& checked, std::size_t source_op,
                    std::vector<std::uint32_t> bits) {
  push_zero_check(checked, source_op, std::move(bits));
  index_walk(checked);
}

namespace {

// Out of line, so the error path costs index_walk's op loop nothing.
[[noreturn, gnu::cold]] void throw_moves_rail_bit(std::size_t i,
                                                  const Gate& g) {
  std::ostringstream msg;
  msg << "index_walk: op " << i << ' ' << g
      << " moves a rail bit (rail bits are static; only data bits migrate)";
  throw Error(msg.str());
}

/// rail_at[s]: the rail whose entry group holds data slot s, or -1
/// (unwatched). Checks that each rail bit lies past the data bits and
/// that the groups are disjoint data bits.
std::vector<int> rail_of_slot(const CheckedCircuit& checked) {
  const std::uint32_t n_data = checked.data_width;
  const std::uint32_t width = checked.circuit.width();
  REVFT_CHECK_MSG(n_data <= width, "index_walk: data_width "
                                       << n_data << " exceeds the width");
  std::vector<int> rail_at(n_data, -1);
  for (std::size_t r = 0; r < checked.rails.size(); ++r) {
    const std::uint32_t rail_bit = checked.rails[r].rail_bit;
    REVFT_CHECK_MSG(rail_bit >= n_data && rail_bit < width,
                    "index_walk: rail " << r << " bit " << rail_bit
                                        << " is not a rail bit");
    for (const std::uint32_t s : checked.rails[r].group) {
      REVFT_CHECK_MSG(s < n_data && rail_at[s] < 0,
                      "index_walk: rail " << r << " group bit " << s
                                          << " is not a data bit of its own");
      rail_at[s] = static_cast<int>(r);
    }
  }
  return rail_at;
}

/// One checkpoint's span: data cell d belongs to the rail whose entry
/// group holds slot[d]; rail-major, each group ascending by cell.
/// rail_first is the CSR offsets (the group sizes never change).
void fill_span(CheckpointSpan& span,
               const std::vector<std::uint32_t>& rail_first,
               const std::vector<int>& rail_at,
               const std::vector<std::uint32_t>& slot,
               std::vector<std::uint32_t>& next) {
  span.rail_first = rail_first;
  span.bits.resize(rail_first.back());
  std::copy(rail_first.begin(), rail_first.end() - 1, next.begin());
  for (std::uint32_t d = 0; d < rail_at.size(); ++d)
    if (const int r = rail_at[slot[d]]; r >= 0)
      span.bits[next[static_cast<std::size_t>(r)]++] = d;
}

}  // namespace

void index_walk(CheckedCircuit& checked) {
  const Circuit& c = checked.circuit;
  const std::uint32_t n_data = checked.data_width;
  const std::size_t rails = checked.rails.size();
  // Routing only renames slots, so slot s < n_data holds data cell s's
  // entry value for the whole walk: each rail is one fixed slot set,
  // and each checkpoint's span reads it back through the renaming in
  // force there.
  const std::vector<int> rail_at = rail_of_slot(checked);
  std::vector<std::uint32_t> rail_first(rails + 1, 0);
  for (std::size_t r = 0; r < rails; ++r)
    rail_first[r + 1] =
        rail_first[r] +
        static_cast<std::uint32_t>(checked.rails[r].group.size());
  // Re-indexing (add_zero_check) refills the spans in place.
  std::vector<CheckpointSpan> spans = std::move(checked.checkpoint_spans);
  spans.resize(checked.checkpoints.size());
  std::vector<std::uint32_t> next(rails);
  WalkIndex x;
  x.kinds = KindIndex(c);
  // slot[cell]: the slot holding the cell after the ops so far.
  std::vector<std::uint32_t> slot(c.width());
  for (std::uint32_t i = 0; i < c.width(); ++i) slot[i] = i;
  std::size_t zi = 0, ci = 0;
  x.slot_ops.reserve(c.size());
  x.data_ops.reserve(c.size());
  x.data_ops_before.reserve(c.size() + 1);
  x.data_ops_before.push_back(0);
  x.zero_start.push_back(0);
  // Each kind's arity, looked up without a call per op.
  std::array<std::uint8_t, kNumGateKinds> arity_of{};
  for (int k = 0; k < kNumGateKinds; ++k)
    arity_of[static_cast<std::size_t>(k)] =
        static_cast<std::uint8_t>(gate_arity(static_cast<GateKind>(k)));
  // The check lists as locals: the pushes below could alias them.
  const ZeroCheck* const zcs = checked.zero_checks.data();
  const std::size_t* const cps = checked.checkpoints.data();
  const std::size_t n_zc = checked.zero_checks.size();
  const std::size_t n_cp = checked.checkpoints.size();
  const std::vector<Gate>& ops = c.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto& b = ops[i].bits;
    const bool routing =
        ops[i].kind == GateKind::kSwap || ops[i].kind == GateKind::kSwap3;
    if (ops[i].kind == GateKind::kSwap) {
      if (std::max(b[0], b[1]) >= n_data) throw_moves_rail_bit(i, ops[i]);
      std::swap(slot[b[0]], slot[b[1]]);
    } else if (ops[i].kind == GateKind::kSwap3) {
      if (std::max({b[0], b[1], b[2]}) >= n_data)
        throw_moves_rail_bit(i, ops[i]);
      // Left rotation: cell a takes cell b's value, b takes c's, c a's.
      const std::uint32_t first = slot[b[0]];
      slot[b[0]] = slot[b[1]];
      slot[b[1]] = slot[b[2]];
      slot[b[2]] = first;
    }
    Gate g = ops[i];
    const std::size_t arity = arity_of[static_cast<std::size_t>(g.kind)];
    for (std::size_t k = 0; k < arity; ++k) g.bits[k] = slot[b[k]];
    x.slot_ops.push_back(g);
    if (!routing) x.data_ops.push_back(g);
    x.data_ops_before.push_back(static_cast<std::uint32_t>(x.data_ops.size()));
    for (; zi < n_zc && zcs[zi].op_index == i; ++zi) {
      for (const std::uint32_t cell : zcs[zi].bits)
        x.zero_bits.push_back(slot[cell]);
      x.zero_start.push_back(static_cast<std::uint32_t>(x.zero_bits.size()));
    }
    for (; ci < n_cp && cps[ci] == i; ++ci)
      fill_span(spans[ci], rail_first, rail_at, slot, next);
  }
  REVFT_CHECK_MSG(zi == n_zc && ci == n_cp,
                  "index_walk: checks must be sorted, each after an op of "
                  "the circuit");
  std::vector<char> seen(c.width(), 0);
  x.cycle_start.push_back(0);
  for (std::uint32_t start = 0; start < c.width(); ++start) {
    if (seen[start] != 0 || slot[start] == start) continue;
    for (std::uint32_t cell = start; seen[cell] == 0; cell = slot[cell]) {
      seen[cell] = 1;
      x.cycles.push_back(cell);
    }
    x.cycle_start.push_back(static_cast<std::uint32_t>(x.cycles.size()));
  }
  checked.walk = std::move(x);
  checked.checkpoint_spans = std::move(spans);
}

void check_walk_index(const CheckedCircuit& checked, const char* caller) {
  const WalkIndex& x = checked.walk;
  REVFT_CHECK_MSG(
      x.slot_ops.size() == checked.circuit.size() &&
          x.zero_start.size() == checked.zero_checks.size() + 1 &&
          checked.checkpoint_spans.size() == checked.checkpoints.size(),
      caller << ": the walk index does not match the circuit "
                "(detect::index_walk builds it)");
}

StateVector widen_input(const CheckedCircuit& checked,
                        const StateVector& data_input) {
  REVFT_CHECK_MSG(data_input.width() == checked.data_width,
                  "widen_input: expected width " << checked.data_width);
  StateVector wide(checked.circuit.width());
  for (std::uint32_t i = 0; i < checked.data_width; ++i)
    wide.set_bit(i, data_input.bit(i));
  return wide;
}

}  // namespace revft::detect
