#include "local/schedule.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/error.h"

namespace revft {

namespace {

constexpr std::size_t kNoBoundary = static_cast<std::size_t>(-1);

/// One indivisible piece of the program: a block transposition (one
/// routing span), a recovery stage (the [first_op, op_index] interval
/// of a boundary), or a leftover contiguous run — in the current
/// machines always a cycle core (interleave / transversal gate /
/// uninterleave).
struct Atom {
  enum class Kind { kTransposition, kStage, kCore };
  Kind kind = Kind::kCore;
  std::size_t first = 0;
  std::size_t last = 0;
  std::vector<std::uint32_t> territories;  ///< sorted unique blocks
  std::size_t boundary = kNoBoundary;      ///< boundaries index (kStage)
  std::size_t wave = 0;                    ///< wave id (kTransposition)
};

std::vector<std::uint32_t> territories_of(const Circuit& circuit,
                                          std::size_t first,
                                          std::size_t last) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = first; i <= last; ++i) {
    const Gate& g = circuit.op(i);
    for (int k = 0; k < g.arity(); ++k)
      out.push_back(g.bits[static_cast<std::size_t>(k)] / 9);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool intersects(const std::vector<std::uint32_t>& a,
                const std::vector<std::uint32_t>& b) {
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j])
      ++i;
    else
      ++j;
  }
  return false;
}

/// Parse the program into ordered, disjoint atoms covering every op.
std::vector<Atom> parse_atoms(
    const Circuit& physical,
    const std::vector<RecoveryBoundary>& boundaries,
    const std::vector<std::pair<std::size_t, std::size_t>>& spans) {
  std::vector<Atom> atoms;
  for (const auto& [first, last] : spans) {
    Atom a;
    a.kind = Atom::Kind::kTransposition;
    a.first = first;
    a.last = last;
    atoms.push_back(std::move(a));
  }
  for (std::size_t b = 0; b < boundaries.size(); ++b) {
    Atom a;
    a.kind = Atom::Kind::kStage;
    a.first = boundaries[b].first_op;
    a.last = boundaries[b].op_index;
    a.boundary = b;
    atoms.push_back(std::move(a));
  }
  std::sort(atoms.begin(), atoms.end(),
            [](const Atom& x, const Atom& y) { return x.first < y.first; });

  std::vector<Atom> out;
  std::size_t next = 0;
  for (Atom& a : atoms) {
    REVFT_CHECK_MSG(a.first >= next && a.first <= a.last &&
                        a.last < physical.size(),
                    "schedule_program: overlapping routing spans / recovery "
                    "stages — the compiler metadata is inconsistent");
    if (a.first > next) {
      Atom core;
      core.kind = Atom::Kind::kCore;
      core.first = next;
      core.last = a.first - 1;
      out.push_back(std::move(core));
    }
    next = a.last + 1;
    out.push_back(std::move(a));
  }
  if (next < physical.size()) {
    Atom core;
    core.kind = Atom::Kind::kCore;
    core.first = next;
    core.last = physical.size() - 1;
    out.push_back(std::move(core));
  }
  for (Atom& a : out)
    a.territories = territories_of(physical, a.first, a.last);
  return out;
}

/// Cut after a routing wave only when it packs at least this many
/// territory-disjoint transpositions; smaller waves flow forward into
/// the next segment instead of forming a 1.0-share sliver.
constexpr std::size_t kMinWaveCut = 2;

}  // namespace

void schedule_program(MachineProgram& program) {
  Circuit& physical = program.physical;
  std::vector<RecoveryBoundary>& boundaries = program.recovery_boundaries;
  auto& spans = program.routing_spans;
  if (physical.empty()) return;

  std::vector<Atom> atoms = parse_atoms(physical, boundaries, spans);

  // ---- 1. Wave-pack every maximal run of consecutive transpositions.
  // ASAP greedy: a transposition joins the earliest wave after every
  // earlier conflicting (territory-sharing) one. Disjoint-territory
  // transpositions act on disjoint cells and commute; conflicting
  // pairs keep their relative order, so the reordered region computes
  // the same permutation.
  std::vector<std::size_t> order(physical.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  bool moved = false;
  for (std::size_t a = 0; a < atoms.size();) {
    if (atoms[a].kind != Atom::Kind::kTransposition) {
      ++a;
      continue;
    }
    std::size_t run_end = a;
    while (run_end + 1 < atoms.size() &&
           atoms[run_end + 1].kind == Atom::Kind::kTransposition)
      ++run_end;
    for (std::size_t j = a; j <= run_end; ++j) {
      atoms[j].wave = 0;
      for (std::size_t k = a; k < j; ++k)
        if (intersects(atoms[j].territories, atoms[k].territories))
          atoms[j].wave = std::max(atoms[j].wave, atoms[k].wave + 1);
    }
    // Stable order by wave; rebuild the run's op order and each
    // atom's new position (the run stays op-contiguous).
    std::vector<std::size_t> by_wave;
    for (std::size_t j = a; j <= run_end; ++j) by_wave.push_back(j);
    std::stable_sort(by_wave.begin(), by_wave.end(),
                     [&](std::size_t x, std::size_t y) {
                       return atoms[x].wave < atoms[y].wave;
                     });
    std::size_t pos = atoms[a].first;
    std::vector<Atom> reordered;
    for (const std::size_t j : by_wave) {
      const std::size_t len = atoms[j].last - atoms[j].first + 1;
      if (pos != atoms[j].first) moved = true;
      for (std::size_t i = 0; i < len; ++i)
        order[pos + i] = atoms[j].first + i;
      Atom shifted = std::move(atoms[j]);
      shifted.first = pos;
      shifted.last = pos + len - 1;
      pos += len;
      reordered.push_back(std::move(shifted));
    }
    for (std::size_t j = a; j <= run_end; ++j)
      atoms[j] = std::move(reordered[j - a]);
    a = run_end + 1;
  }
  if (moved) {
    Circuit rebuilt(physical.width());
    for (const std::size_t src : order) rebuilt.push(physical.op(src));
    physical = std::move(rebuilt);
  }
  spans.clear();
  for (const Atom& a : atoms)
    if (a.kind == Atom::Kind::kTransposition)
      spans.push_back({a.first, a.last});

  // ---- 2. Place cuts. A cut zero-checks every territory touched
  // since that territory's last check and rail-checkpoints there — one
  // boundary PER territory, so the checks themselves never glue rails.
  std::vector<char> touched(physical.width() / 9, 0);
  std::vector<RecoveryBoundary> cuts;
  const auto mark = [&](const Atom& a) {
    for (const std::uint32_t t : a.territories) touched[t] = 1;
  };
  const auto cut_at = [&](std::size_t op_index) {
    for (std::uint32_t t = 0; t < touched.size(); ++t) {
      if (touched[t] == 0) continue;
      RecoveryBoundary cut;
      cut.op_index = op_index;
      cut.first_op = op_index;
      for (const std::uint32_t off : program.rest_clean)
        cut.clean_cells.push_back(9 * t + off);
      cuts.push_back(std::move(cut));
      touched[t] = 0;
    }
  };

  std::size_t wave_size = 0;
  bool pending_singletons = false;
  std::vector<std::uint32_t> batch_territories;
  std::size_t batch_prev = kNoBoundary;
  for (std::size_t a = 0; a < atoms.size(); ++a) {
    const Atom& at = atoms[a];
    if (at.kind != Atom::Kind::kStage) {
      batch_prev = kNoBoundary;
      batch_territories.clear();
    }
    switch (at.kind) {
      case Atom::Kind::kTransposition: {
        if (wave_size == 0 && pending_singletons && a > 0) {
          // A singleton chain is pending and a new wave begins. If the
          // wave is big enough to cut, seal the chain first: the chain
          // conflicts with the wave (packing would have merged them
          // otherwise), and letting it flow in would glue the wave's
          // disjoint components into one.
          std::size_t group = 1;
          while (a + group < atoms.size() &&
                 atoms[a + group].kind == Atom::Kind::kTransposition &&
                 atoms[a + group].wave == at.wave)
            ++group;
          if (group >= kMinWaveCut) {
            cut_at(atoms[a - 1].last);
            pending_singletons = false;
          }
        }
        mark(at);
        ++wave_size;
        const bool wave_ends =
            a + 1 >= atoms.size() ||
            atoms[a + 1].kind != Atom::Kind::kTransposition ||
            atoms[a + 1].wave != at.wave;
        if (wave_ends) {
          if (wave_size >= kMinWaveCut) {
            cut_at(at.last);
            pending_singletons = false;
          } else {
            pending_singletons = true;
          }
          wave_size = 0;
        }
        break;
      }
      case Atom::Kind::kCore: {
        mark(at);
        cut_at(at.last);
        pending_singletons = false;
        break;
      }
      case Atom::Kind::kStage: {
        // The stage's own boundary delimits whatever flowed in.
        pending_singletons = false;
        if (batch_prev != kNoBoundary) {
          if (intersects(batch_territories, at.territories)) {
            // Revisiting a block: deferring the previous stage's check
            // across this writer would be unsound — the batch ends at
            // the previous stage (which keeps its checkpoint).
            batch_territories.clear();
          } else {
            boundaries[batch_prev].rail_checkpoint = false;
          }
        }
        batch_prev = at.boundary;
        batch_territories.insert(batch_territories.end(),
                                 at.territories.begin(),
                                 at.territories.end());
        std::sort(batch_territories.begin(), batch_territories.end());
        // The stage's own boundary checks its block.
        for (const std::uint32_t t : at.territories) touched[t] = 0;
        break;
      }
    }
  }

  boundaries.insert(boundaries.end(), cuts.begin(), cuts.end());
  std::stable_sort(boundaries.begin(), boundaries.end(),
                   [](const RecoveryBoundary& x, const RecoveryBoundary& y) {
                     return x.op_index < y.op_index;
                   });
}

}  // namespace revft
