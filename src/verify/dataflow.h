// revft/verify/dataflow.h
//
// Static GF(2) dataflow over reversible circuits: every cell at every
// position is a *sparse algebraic normal form* — a canonical XOR of
// monomials over at most 64 entry variables. The per-kind output ANFs
// come straight from rev/gate_output_anf (a Möbius transform over the
// executable truth tables), so the transfer function is exact for
// every one of the 11 primitive kinds, linear or not: a Toffoli target
// becomes x_t ^ x_a·x_b as a genuine quadratic, not an unknown. The
// analysis only gives up — collapsing a cell to an explicit "top" —
// when a form blows the configured degree/term budget, which in
// practice takes several stacked nonlinear layers; known-zero entry
// facts (ancilla promises) tighten everything automatically because a
// zero polynomial annihilates the nonlinear monomials it feeds.
//
// This is the symbolic half of src/verify/: the linter
// (verify/lint.h) compares these forms against the checked circuit's
// claimed invariants. The certifier (verify/certify.h) shares only the
// per-kind ANFs, evaluated on packed lane words of concrete inputs
// rather than on forms. It generalizes — and is cross-checked
// against — the ad-hoc known-zero dataflow inside detect/rail.cpp,
// which only tracks the zero/unknown distinction.
//
// Soundness contract: a non-top form is EXACTLY the cell's value as a
// function of the entry variables (tests brute-force this against the
// simulator over random circuits of all kinds); top carries no claim.
// Anything this analysis *proves* therefore holds on every fault-free
// run from the entry binding.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "detect/rail.h"
#include "rev/circuit.h"

namespace revft::verify {

/// Budgets bounding each form. A result whose canonical ANF would
/// exceed either bound becomes top. Degree <= 8 covers three stacked
/// nonlinear layers; 512 terms keeps the quadratic-blowup products of
/// poly_and comfortably bounded (512^2 intermediate pairs).
struct DataflowOptions {
  int max_degree = 8;
  std::size_t max_terms = 512;
};

/// Sparse canonical ANF over GF(2): a sorted vector of monomial masks
/// (bit v of a mask = entry variable v participates; mask 0 is the
/// constant 1), XOR-combined. Canonical form means polynomial identity
/// is vector equality and algebraic cancellation is exact. The
/// explicit top value means "unknown Boolean function of the entry
/// variables".
class Poly {
 public:
  /// The zero polynomial.
  Poly() = default;

  static Poly zero() { return Poly(); }
  static Poly one() { return Poly(std::vector<std::uint64_t>{0}); }
  static Poly constant(bool b) { return b ? one() : zero(); }
  /// The single variable x_v. Requires 0 <= v < 64.
  static Poly var(int v);
  static Poly top();
  /// Canonicalize an arbitrary monomial list (sort + mod-2 cancel).
  static Poly from_monomials(std::vector<std::uint64_t> monomials);

  bool is_top() const noexcept { return top_; }
  bool is_zero() const noexcept { return !top_ && monomials_.empty(); }
  bool is_one() const noexcept {
    return !top_ && monomials_.size() == 1 && monomials_[0] == 0;
  }

  /// Largest monomial degree (0 for constants, including zero).
  int degree() const noexcept;
  std::size_t term_count() const noexcept { return monomials_.size(); }
  /// Sorted ascending; meaningful only when !is_top().
  const std::vector<std::uint64_t>& monomials() const noexcept {
    return monomials_;
  }

  /// Evaluate at an assignment (bit v of `assignment` = value of x_v).
  /// Throws revft::Error on top — top is not a function.
  bool eval(std::uint64_t assignment) const;

  bool operator==(const Poly&) const = default;

 private:
  explicit Poly(std::vector<std::uint64_t> monomials)
      : monomials_(std::move(monomials)) {}
  std::vector<std::uint64_t> monomials_;  ///< sorted, unique
  bool top_ = false;
};

/// a ^ b. Exact (never changes the function); returns top if either
/// side is top or the merged term count exceeds opts.max_terms.
Poly poly_xor(const Poly& a, const Poly& b, const DataflowOptions& opts);

/// a & b with full mod-2 cancellation. Zero annihilates even top
/// (0 & unknown == 0); otherwise top is contagious, and a result
/// exceeding the degree/term budget collapses to top.
Poly poly_and(const Poly& a, const Poly& b, const DataflowOptions& opts);

/// Symbolic application of one gate: output k's form is assembled from
/// gate_output_anf(kind, k) over the operand forms. Exact for every
/// kind (all outputs have degree <= 2 in the operands); entries beyond
/// the arity are returned as zero.
std::array<Poly, 3> gate_transfer(GateKind kind,
                                  const std::array<const Poly*, 3>& in,
                                  const DataflowOptions& opts);

/// The full symbolic trajectory of a circuit from an entry binding.
struct DataflowResult {
  /// before[i] = every cell's form just BEFORE op i; before[size()] is
  /// the exit state. (size+1) rows of width columns.
  std::vector<std::vector<Poly>> before;
  /// Ops where some output collapsed to top with at least one non-top
  /// operand — the analysis' precision losses.
  std::uint64_t top_events = 0;

  const std::vector<Poly>& exit_state() const { return before.back(); }

  // --- invariant discovery over the exit state ---
  /// Cells proven identically zero at exit.
  std::vector<std::uint32_t> zero_cells() const;
  /// Groups (size >= 2) of cells with identical non-top, non-zero exit
  /// forms — every pair in a group is a discovered equality invariant
  /// (e.g. the three cells of an undamaged repetition codeword).
  std::vector<std::vector<std::uint32_t>> equal_classes() const;
};

/// Walk the circuit symbolically. `entry` must have one form per
/// circuit bit (use identity_entry / widen_entry).
DataflowResult analyze_dataflow(const Circuit& circuit,
                                std::vector<Poly> entry,
                                const DataflowOptions& opts = {});

/// Entry binding: cell i = x_i (requires width <= 64).
std::vector<Poly> identity_entry(std::uint32_t width);

/// Lift a data-width entry binding to a checked circuit's width with
/// the rails zero — the symbolic widen_input.
std::vector<Poly> widen_entry(const detect::CheckedCircuit& checked,
                              const std::vector<Poly>& data_entry);

/// Verdict of a static check. kProven = holds on EVERY entry
/// assignment (fault-free); kViolated = some assignment breaks it (the
/// forms are exact, so this is a real counterexample, not
/// conservatism); kUnknown = a top form intruded.
enum class CheckStatus : std::uint8_t { kProven, kViolated, kUnknown };

/// One (checkpoint, rail) invariant I_r = rail_r ^ XOR(group_r).
struct RailInvariantReport {
  std::size_t checkpoint = 0;
  std::size_t rail = 0;
  CheckStatus status = CheckStatus::kUnknown;
};

/// One registered ZeroCheck: kProven iff every listed cell's form is
/// identically zero at the check position.
struct ZeroCheckReport {
  std::size_t index = 0;  ///< into CheckedCircuit::zero_checks
  CheckStatus status = CheckStatus::kUnknown;
  std::vector<std::uint32_t> unproven_bits;  ///< cells not proven zero
};

/// Dataflow of a checked circuit plus the static verdict on every
/// claimed invariant. all_proven() is a symbolic proof that no check
/// EVER fires on a fault-free run from the entry binding — the
/// false-alarm-freedom half of fault security, established without
/// enumerating a single input.
struct CheckedDataflow {
  DataflowResult flow;
  std::vector<RailInvariantReport> rail_reports;
  std::vector<ZeroCheckReport> zero_check_reports;

  std::size_t proven_rail_invariants() const;
  std::size_t proven_zero_checks() const;
  bool all_proven() const;
};

/// Analyze checked.circuit from a data-width entry binding (widened
/// internally) and statically verify every rail invariant at every
/// checkpoint (against that checkpoint's migrated membership,
/// checked.checkpoint_spans) and every registered zero check. Throws
/// revft::Error on a circuit detect::index_walk has not indexed
/// (detect::check_walk_index).
CheckedDataflow analyze_checked(const detect::CheckedCircuit& checked,
                                const std::vector<Poly>& data_entry,
                                const DataflowOptions& opts = {});

}  // namespace revft::verify
