#include "verify/dataflow.h"

#include <algorithm>
#include <bit>
#include <map>

#include "support/error.h"

namespace revft::verify {

Poly Poly::var(int v) {
  REVFT_CHECK_MSG(v >= 0 && v < 64, "Poly::var: variable " << v
                                                           << " out of [0,64)");
  return Poly(std::vector<std::uint64_t>{1ull << v});
}

Poly Poly::top() {
  Poly p;
  p.top_ = true;
  return p;
}

Poly Poly::from_monomials(std::vector<std::uint64_t> monomials) {
  std::sort(monomials.begin(), monomials.end());
  // Mod-2 cancellation: keep monomials appearing an odd number of
  // times.
  std::vector<std::uint64_t> out;
  out.reserve(monomials.size());
  for (std::size_t i = 0; i < monomials.size();) {
    std::size_t j = i;
    while (j < monomials.size() && monomials[j] == monomials[i]) ++j;
    if ((j - i) & 1) out.push_back(monomials[i]);
    i = j;
  }
  return Poly(std::move(out));
}

int Poly::degree() const noexcept {
  int d = 0;
  for (const std::uint64_t m : monomials_)
    d = std::max(d, std::popcount(m));
  return d;
}

bool Poly::eval(std::uint64_t assignment) const {
  REVFT_CHECK_MSG(!top_, "Poly::eval: top is not a function");
  bool acc = false;
  for (const std::uint64_t m : monomials_)
    acc ^= ((assignment & m) == m);
  return acc;
}

Poly poly_xor(const Poly& a, const Poly& b, const DataflowOptions& opts) {
  if (a.is_top() || b.is_top()) return Poly::top();
  // Merge two sorted term lists, cancelling equal monomials mod 2.
  const auto& am = a.monomials();
  const auto& bm = b.monomials();
  std::vector<std::uint64_t> out;
  out.reserve(am.size() + bm.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < am.size() && j < bm.size()) {
    if (am[i] < bm[j]) {
      out.push_back(am[i++]);
    } else if (bm[j] < am[i]) {
      out.push_back(bm[j++]);
    } else {
      ++i;  // equal terms cancel
      ++j;
    }
  }
  out.insert(out.end(), am.begin() + static_cast<std::ptrdiff_t>(i), am.end());
  out.insert(out.end(), bm.begin() + static_cast<std::ptrdiff_t>(j), bm.end());
  if (out.size() > opts.max_terms) return Poly::top();
  return Poly::from_monomials(std::move(out));  // already canonical; cheap
}

Poly poly_and(const Poly& a, const Poly& b, const DataflowOptions& opts) {
  // Zero annihilates before top propagates: 0 & unknown == 0.
  if (a.is_zero() || b.is_zero()) return Poly::zero();
  if (a.is_top() || b.is_top()) return Poly::top();
  if (a.is_one()) return b;
  if (b.is_one()) return a;
  std::vector<std::uint64_t> products;
  products.reserve(a.term_count() * b.term_count());
  for (const std::uint64_t ma : a.monomials())
    for (const std::uint64_t mb : b.monomials()) products.push_back(ma | mb);
  Poly out = Poly::from_monomials(std::move(products));
  if (out.term_count() > opts.max_terms || out.degree() > opts.max_degree)
    return Poly::top();
  return out;
}

std::array<Poly, 3> gate_transfer(GateKind kind,
                                  const std::array<const Poly*, 3>& in,
                                  const DataflowOptions& opts) {
  const int n = gate_arity(kind);
  std::array<Poly, 3> out;
  for (int k = 0; k < n; ++k) {
    const unsigned anf = gate_output_anf(kind, k);
    Poly acc = Poly::zero();
    for (unsigned m = 0; m < (1u << n); ++m) {
      if (!((anf >> m) & 1u)) continue;
      Poly term = Poly::one();
      for (int j = 0; j < n && !term.is_zero(); ++j)
        if ((m >> j) & 1u) term = poly_and(term, *in[j], opts);
      acc = poly_xor(acc, term, opts);
    }
    out[static_cast<std::size_t>(k)] = std::move(acc);
  }
  return out;
}

DataflowResult analyze_dataflow(const Circuit& circuit,
                                std::vector<Poly> entry,
                                const DataflowOptions& opts) {
  REVFT_CHECK_MSG(entry.size() == circuit.width(),
                  "analyze_dataflow: entry binding has "
                      << entry.size() << " forms for width "
                      << circuit.width());
  DataflowResult result;
  result.before.reserve(circuit.size() + 1);
  result.before.push_back(std::move(entry));
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.op(i);
    const int n = g.arity();
    std::vector<Poly> next = result.before.back();
    std::array<const Poly*, 3> in{};
    for (int k = 0; k < n; ++k)
      in[static_cast<std::size_t>(k)] =
          &result.before.back()[g.bits[static_cast<std::size_t>(k)]];
    const std::array<Poly, 3> out = gate_transfer(g.kind, in, opts);
    bool lost = false;
    for (int k = 0; k < n; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      if (out[sk].is_top() && !in[sk]->is_top()) lost = true;
      next[g.bits[sk]] = out[sk];
    }
    if (lost) ++result.top_events;
    result.before.push_back(std::move(next));
  }
  return result;
}

std::vector<std::uint32_t> DataflowResult::zero_cells() const {
  std::vector<std::uint32_t> out;
  const auto& exit = exit_state();
  for (std::uint32_t c = 0; c < exit.size(); ++c)
    if (exit[c].is_zero()) out.push_back(c);
  return out;
}

std::vector<std::vector<std::uint32_t>> DataflowResult::equal_classes() const {
  // Canonical forms make equality-of-function equality-of-vector; a
  // map keyed on the monomial list groups cells for free. Zero cells
  // are excluded (zero_cells reports them; lumping every clean ancilla
  // into one giant "equal" class would drown the signal).
  std::map<std::vector<std::uint64_t>, std::vector<std::uint32_t>> classes;
  const auto& exit = exit_state();
  for (std::uint32_t c = 0; c < exit.size(); ++c)
    if (!exit[c].is_top() && !exit[c].is_zero())
      classes[exit[c].monomials()].push_back(c);
  std::vector<std::vector<std::uint32_t>> out;
  for (auto& [form, cells] : classes)
    if (cells.size() >= 2) out.push_back(std::move(cells));
  return out;
}

std::vector<Poly> identity_entry(std::uint32_t width) {
  REVFT_CHECK_MSG(width <= 64,
                  "identity_entry: width " << width << " exceeds 64 variables");
  std::vector<Poly> entry;
  entry.reserve(width);
  for (std::uint32_t i = 0; i < width; ++i)
    entry.push_back(Poly::var(static_cast<int>(i)));
  return entry;
}

std::vector<Poly> widen_entry(const detect::CheckedCircuit& checked,
                              const std::vector<Poly>& data_entry) {
  REVFT_CHECK_MSG(data_entry.size() == checked.data_width,
                  "widen_entry: binding width " << data_entry.size()
                                                << " != data width "
                                                << checked.data_width);
  std::vector<Poly> entry(checked.circuit.width(), Poly::zero());
  std::copy(data_entry.begin(), data_entry.end(), entry.begin());
  return entry;
}

std::size_t CheckedDataflow::proven_rail_invariants() const {
  std::size_t n = 0;
  for (const auto& r : rail_reports)
    if (r.status == CheckStatus::kProven) ++n;
  return n;
}

std::size_t CheckedDataflow::proven_zero_checks() const {
  std::size_t n = 0;
  for (const auto& z : zero_check_reports)
    if (z.status == CheckStatus::kProven) ++n;
  return n;
}

bool CheckedDataflow::all_proven() const {
  return proven_rail_invariants() == rail_reports.size() &&
         proven_zero_checks() == zero_check_reports.size();
}

CheckedDataflow analyze_checked(const detect::CheckedCircuit& checked,
                                const std::vector<Poly>& data_entry,
                                const DataflowOptions& opts) {
  detect::check_walk_index(checked, "analyze_checked");
  CheckedDataflow out;
  out.flow =
      analyze_dataflow(checked.circuit, widen_entry(checked, data_entry), opts);

  // Rail invariants, each against the cells the rail covers at its
  // checkpoint (SWAP/SWAP3 migrate groups; index_walk derives them).
  for (std::size_t k = 0; k < checked.checkpoints.size(); ++k) {
    const auto& after = out.flow.before[checked.checkpoints[k] + 1];
    for (std::size_t r = 0; r < checked.rails.size(); ++r) {
      Poly inv = after[checked.rails[r].rail_bit];
      for (const std::uint32_t bit : checked.checkpoint_spans[k].group(r))
        inv = poly_xor(inv, after[bit], opts);
      RailInvariantReport report;
      report.checkpoint = k;
      report.rail = r;
      report.status = inv.is_top()    ? CheckStatus::kUnknown
                      : inv.is_zero() ? CheckStatus::kProven
                                      : CheckStatus::kViolated;
      out.rail_reports.push_back(report);
    }
  }

  for (std::size_t z = 0; z < checked.zero_checks.size(); ++z) {
    const detect::ZeroCheck& check = checked.zero_checks[z];
    const auto& after = out.flow.before[check.op_index + 1];
    ZeroCheckReport report;
    report.index = z;
    bool violated = false;
    bool unknown = false;
    for (const std::uint32_t bit : check.bits) {
      if (after[bit].is_zero()) continue;
      report.unproven_bits.push_back(bit);
      if (after[bit].is_top())
        unknown = true;
      else
        violated = true;
    }
    report.status = violated  ? CheckStatus::kViolated
                    : unknown ? CheckStatus::kUnknown
                              : CheckStatus::kProven;
    out.zero_check_reports.push_back(report);
  }
  return out;
}

}  // namespace revft::verify
