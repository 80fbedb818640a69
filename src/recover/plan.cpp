#include "recover/plan.h"

#include <algorithm>

#include "support/error.h"

namespace revft::recover {

namespace {

/// Tiny union-find over the per-segment node universe: one node per
/// rail plus one residual node for unwatched-cell activity.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<int>(i);
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      parent_[static_cast<std::size_t>(x)] =
          parent_[static_cast<std::size_t>(
              parent_[static_cast<std::size_t>(x)])];
      x = parent_[static_cast<std::size_t>(x)];
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    // Deterministic representative: the smaller node index wins, so
    // component numbering is a pure function of the circuit.
    if (b < a) std::swap(a, b);
    parent_[static_cast<std::size_t>(b)] = a;
  }

 private:
  std::vector<int> parent_;
};

/// Operand indices a gate may WRITE (conservative: everything, except
/// the kinds whose targets are explicit). Reads never change a value,
/// so a zero check separated from the next check position only by
/// reads of its cells can be evaluated there instead — see
/// merge_boundaries below.
unsigned writes_mask(const Gate& g) {
  switch (g.kind) {
    case GateKind::kNot:
      return 0b001u;
    case GateKind::kCnot:
      return 0b010u;
    case GateKind::kToffoli:
      return 0b100u;
    default:
      return (1u << g.arity()) - 1u;
  }
}

bool may_write(const Gate& g, const std::vector<char>& watched) {
  const unsigned mask = writes_mask(g);
  for (int k = 0; k < g.arity(); ++k)
    if (((mask >> k) & 1u) != 0 &&
        watched[g.bits[static_cast<std::size_t>(k)]] != 0)
      return true;
  return false;
}

/// Decide which check positions delimit segments. Every rail
/// checkpoint delimits. A zero-check-only position is MERGED into the
/// next delimiting position when no op in between may write its cells
/// (the transform flushes pending rail compensation between a
/// boundary's zero check and its checkpoint — those gates only write
/// rail bits, so the machines' two-phase boundaries collapse into one
/// segment). The merge matters for recovery latency: evaluated in the
/// same segment as the rail checkpoint, a violation is caught while
/// the snapshot that can fix it still exists; split, the rail fires
/// one (tiny) segment late and every local replay would fall back to a
/// whole-program restart. On fault-free runs the deferred check reads
/// the same values, as no op in between writes its cells. A FAULTED op
/// in between overwrites every operand, read-only ones included
/// (writes_mask skips those), so under a single fault deferral can only
/// add detections; a second fault can also clean a dirtied cell.
/// ScriptedRepair.DeferredZeroChecksOnlyAddDetections pins the gap.
std::vector<char> merge_boundaries(const detect::CheckedCircuit& checked) {
  const Circuit& circuit = checked.circuit;
  std::vector<char> delimits(circuit.size(), 0);
  for (const std::size_t pos : checked.checkpoints) delimits[pos] = 1;
  // Walk zero-check positions in descending order so each one sees the
  // final delimiter status of everything after it.
  std::vector<char> watched(circuit.width(), 0);
  for (std::size_t z = checked.zero_checks.size(); z-- > 0;) {
    const std::size_t p = checked.zero_checks[z].op_index;
    if (delimits[p] != 0) continue;
    while (z > 0 && checked.zero_checks[z - 1].op_index == p) --z;
    std::fill(watched.begin(), watched.end(), 0);
    for (std::size_t k = z; k < checked.zero_checks.size() &&
                            checked.zero_checks[k].op_index == p;
         ++k)
      for (const std::uint32_t bit : checked.zero_checks[k].bits)
        watched[bit] = 1;
    bool deferrable = true;
    for (std::size_t i = p + 1; i < circuit.size(); ++i) {
      if (may_write(circuit.op(i), watched)) {
        deferrable = false;
        break;
      }
      if (delimits[i] != 0) break;  // reached the next segment end
    }
    if (!deferrable) delimits[p] = 1;
  }
  return delimits;
}

/// The slot-space view of `comp` (plan.h): its data ops, kind index
/// and footprint slots, off the walk index. `marked` (one entry per
/// slot, all clear) and `slots` are scratch; `marked` is left clear.
void index_component(const detect::CheckedCircuit& checked,
                     const Segment& seg, std::uint32_t c,
                     ReplayComponent& comp, std::vector<char>& marked,
                     std::vector<std::uint32_t>& slots) {
  const detect::WalkIndex& x = checked.walk;
  slots.clear();
  const auto add = [&](std::uint32_t slot) {
    if (marked[slot] != 0) return;
    marked[slot] = 1;
    slots.push_back(slot);
  };
  comp.data_ops.reserve(comp.ops.size());
  for (const std::size_t op : comp.ops) {
    const Gate& g = x.slot_ops[op];
    if (g.kind != GateKind::kSwap && g.kind != GateKind::kSwap3)
      comp.data_ops.push_back(x.data_ops_before[op]);
    for (int k = 0; k < g.arity(); ++k)
      add(g.bits[static_cast<std::size_t>(k)]);
  }
  comp.kinds = KindIndex(checked.circuit, comp.ops);
  for (const std::uint32_t r : comp.rails) {
    for (const std::uint32_t slot : checked.rails[r].group) add(slot);
    add(checked.rails[r].rail_bit);
  }
  for (std::size_t k = 0; k < seg.zero_checks.size(); ++k) {
    if (seg.component_of_zero_check[k] != c) continue;
    const std::size_t z = seg.zero_checks[k];
    for (std::uint32_t i = x.zero_start[z]; i < x.zero_start[z + 1]; ++i)
      add(x.zero_bits[i]);
  }
  for (const std::uint32_t slot : slots) marked[slot] = 0;
  comp.slots.assign(slots.begin(), slots.end());
}

}  // namespace

double SegmentPlan::mean_max_replay_share() const {
  if (segments.empty()) return 0.0;
  double sum = 0.0;
  for (const Segment& seg : segments) {
    // A checkpoint-only segment (adjacent boundaries) replays nothing —
    // its share is 0, not 0/0.
    if (seg.op_count() == 0) continue;
    std::size_t worst = 0;
    for (const ReplayComponent& comp : seg.components)
      worst = std::max(worst, comp.ops.size());
    sum += static_cast<double>(worst) / static_cast<double>(seg.op_count());
  }
  return sum / static_cast<double>(segments.size());
}

double SegmentPlan::worst_replay_share() const {
  double worst = 0.0;
  for (const Segment& seg : segments) {
    if (seg.op_count() == 0) continue;
    std::size_t ops = 0;
    for (const ReplayComponent& comp : seg.components)
      ops = std::max(ops, comp.ops.size());
    worst = std::max(worst,
                     static_cast<double>(ops) /
                         static_cast<double>(seg.op_count()));
  }
  return worst;
}

namespace detail {

void check_zero_fold(const Circuit& c, const detect::ZeroCheck& zc,
                     std::size_t boundary) {
  std::vector<char> checked_cell(c.width(), 0);
  for (const std::uint32_t bit : zc.bits) checked_cell[bit] = 1;
  for (std::size_t i = zc.op_index + 1; i <= boundary; ++i) {
    const Gate& g = c.op(i);
    if (g.kind != GateKind::kSwap && g.kind != GateKind::kSwap3) continue;
    for (int k = 0; k < g.arity(); ++k)
      REVFT_CHECK_MSG(checked_cell[g.bits[static_cast<std::size_t>(k)]] == 0,
                      "build_segment_plan: op "
                          << i << ' ' << g << " moves a cell of the zero check "
                          << "after op " << zc.op_index
                          << " before its boundary at op " << boundary);
  }
}

}  // namespace detail

SegmentPlan build_segment_plan(const detect::CheckedCircuit& checked) {
  const Circuit& circuit = checked.circuit;
  REVFT_CHECK_MSG(!circuit.empty(), "build_segment_plan: empty circuit");
  detect::check_walk_index(checked, "build_segment_plan");
  const std::uint32_t n_rails =
      static_cast<std::uint32_t>(checked.rails.size());
  const int orphan = static_cast<int>(n_rails);  // unwatched-cell node

  // Membership walk state, seeded from the entry partition; rail bits
  // are static (data_width + r belongs to rail r; no transform output
  // ever swaps one, and the walk rejects an op that does).
  std::vector<int> rail_of(checked.data_width, -1);
  for (std::uint32_t r = 0; r < n_rails; ++r)
    for (const std::uint32_t bit : checked.rails[r].group)
      rail_of[bit] = static_cast<int>(r);
  const auto membership_node = [&](std::uint32_t cell) -> int {
    if (cell >= checked.data_width) {
      const std::uint32_t r = cell - checked.data_width;
      REVFT_CHECK_MSG(r < n_rails,
                      "build_segment_plan: op touches unknown bit " << cell);
      return static_cast<int>(r);
    }
    return rail_of[cell] >= 0 ? rail_of[cell] : orphan;
  };

  SegmentPlan plan;
  plan.total_ops = circuit.size();
  const std::vector<char> delimits = merge_boundaries(checked);

  // Per-segment scratch, reset at every boundary.
  UnionFind uf(n_rails + 1);
  std::vector<int> touch_node(circuit.width(), -1);
  std::vector<std::uint32_t> touched;  // cells with touch_node set
  std::vector<int> op_node;            // node of each op in the segment
  std::vector<std::size_t> straddling;  // straddlers of the segment
  std::vector<char> marked(circuit.width(), 0);
  std::vector<std::uint32_t> slots;
  std::size_t seg_begin = 0;

  std::size_t next_checkpoint = 0;
  std::size_t next_zero_check = 0;
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.op(i);
    const int arity = g.arity();

    // Attribute the op: union the operands' membership nodes with
    // whatever already touched those cells this segment. An op whose
    // operands span distinct nodes is a straddler — record it, it is
    // the reason the nodes end up glued.
    int node = membership_node(g.bits[0]);
    bool straddles = false;
    for (int k = 1; k < arity; ++k) {
      const int nk = membership_node(g.bits[static_cast<std::size_t>(k)]);
      if (nk != node) straddles = true;
      uf.unite(node, nk);
    }
    for (int k = 0; k < arity; ++k) {
      const std::uint32_t cell = g.bits[static_cast<std::size_t>(k)];
      if (touch_node[cell] >= 0) {
        // Gluing through a shared cell (different blocks' values
        // streaming through it) straddles just as much as an
        // operand span does.
        if (uf.find(touch_node[cell]) != uf.find(node)) straddles = true;
        uf.unite(node, touch_node[cell]);
      }
    }
    if (straddles) straddling.push_back(i);
    node = uf.find(node);
    for (int k = 0; k < arity; ++k) {
      const std::uint32_t cell = g.bits[static_cast<std::size_t>(k)];
      if (touch_node[cell] < 0) touched.push_back(cell);
      touch_node[cell] = node;
    }
    op_node.push_back(node);

    const bool migrated = detect::migrate_membership(g, rail_of);
    REVFT_CHECK_MSG(migrated, "build_segment_plan: op "
                                  << i << ' ' << g
                                  << " moves a rail bit (rail bits are "
                                     "static; only data bits migrate)");

    // Boundary? (merge_boundaries already folded deferrable
    // zero-check-only positions into the next delimiter.)
    if (delimits[i] == 0) continue;
    const bool at_checkpoint = next_checkpoint < checked.checkpoints.size() &&
                               checked.checkpoints[next_checkpoint] == i;

    Segment seg;
    seg.begin = seg_begin;
    seg.end = i;
    seg.kinds = KindIndex(circuit, seg.begin, seg.end + 1);
    if (at_checkpoint) seg.checkpoint = static_cast<int>(next_checkpoint++);
    std::vector<int> zero_check_node;
    while (next_zero_check < checked.zero_checks.size() &&
           checked.zero_checks[next_zero_check].op_index <= i) {
      const detect::ZeroCheck& zc = checked.zero_checks[next_zero_check];
      if (zc.op_index < i) detail::check_zero_fold(circuit, zc, i);
      const auto& bits = zc.bits;
      // A fired zero check must name one component: union its bits'
      // groups (and anything that touched those cells).
      int zc_node = membership_node(bits[0]);
      for (const std::uint32_t bit : bits) {
        uf.unite(zc_node, membership_node(bit));
        if (touch_node[bit] >= 0) uf.unite(zc_node, touch_node[bit]);
      }
      zero_check_node.push_back(uf.find(zc_node));
      seg.zero_checks.push_back(next_zero_check);
      ++next_zero_check;
    }

    // Finalize components: walk nodes in index order so numbering is
    // deterministic; rails always materialize a component (a rail that
    // fires with no ops this segment still needs a restore target),
    // the orphan node only when something used it.
    std::vector<int> component_of_node(n_rails + 1, -1);
    const auto component_of = [&](int n) -> std::uint32_t {
      const int root = uf.find(n);
      if (component_of_node[static_cast<std::size_t>(root)] < 0) {
        component_of_node[static_cast<std::size_t>(root)] =
            static_cast<int>(seg.components.size());
        seg.components.emplace_back();
      }
      return static_cast<std::uint32_t>(
          component_of_node[static_cast<std::size_t>(root)]);
    };
    seg.component_of_rail.resize(n_rails);
    for (std::uint32_t r = 0; r < n_rails; ++r) {
      const std::uint32_t c = component_of(static_cast<int>(r));
      seg.component_of_rail[r] = c;
      seg.components[c].rails.push_back(r);
    }
    for (const int node : zero_check_node)
      seg.component_of_zero_check.push_back(component_of(node));
    for (std::size_t k = 0; k < op_node.size(); ++k)
      seg.components[component_of(op_node[k])].ops.push_back(seg.begin + k);
    for (const std::uint32_t cell : touched) touch_node[cell] = -1;
    for (std::uint32_t c = 0; c < seg.components.size(); ++c)
      index_component(checked, seg, c, seg.components[c], marked, slots);
    REVFT_CHECK_MSG(seg.components.size() <= 64,
                    "build_segment_plan: more than 64 components per segment");
    // Sorted-unique contract: lint findings and REPORT JSON emit this
    // list verbatim, so an op that straddles via both an operand span
    // and a shared cell must appear once.
    std::sort(straddling.begin(), straddling.end());
    straddling.erase(std::unique(straddling.begin(), straddling.end()),
                     straddling.end());
    seg.straddling_ops = std::move(straddling);
    plan.segments.push_back(std::move(seg));

    // Reset per-segment scratch.
    uf = UnionFind(n_rails + 1);
    touched.clear();
    op_node.clear();
    straddling.clear();
    seg_begin = i + 1;
  }

  REVFT_CHECK_MSG(next_checkpoint == checked.checkpoints.size() &&
                      next_zero_check == checked.zero_checks.size(),
                  "build_segment_plan: unsorted check positions");
  REVFT_CHECK_MSG(!plan.segments.empty() &&
                      plan.segments.back().end + 1 == circuit.size(),
                  "build_segment_plan: circuit must end at its final "
                  "checkpoint (to_parity_rail always emits one)");
  return plan;
}

}  // namespace revft::recover
