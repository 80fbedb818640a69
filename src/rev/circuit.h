// revft/rev/circuit.h
//
// A circuit in the paper's gate-array model (§2): a fixed set of bits
// (horizontal lines) and a time-ordered sequence of gate applications.
// Circuits are value types; construction validates operand ranges so a
// built Circuit is always well-formed.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "rev/gate.h"

namespace revft {

/// Per-kind gate counts for a circuit.
struct GateHistogram {
  std::array<std::uint64_t, kNumGateKinds> counts{};

  std::uint64_t of(GateKind kind) const noexcept {
    return counts[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total() const noexcept;
  /// Count of reversible gates only (excludes init3).
  std::uint64_t total_reversible() const noexcept;
};

/// Time-ordered gate sequence on `width` bits.
class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::uint32_t width) : width_(width) {}

  std::uint32_t width() const noexcept { return width_; }
  std::size_t size() const noexcept { return ops_.size(); }
  bool empty() const noexcept { return ops_.empty(); }
  const std::vector<Gate>& ops() const noexcept { return ops_; }
  const Gate& op(std::size_t i) const { return ops_.at(i); }

  /// Append one gate; operands must lie in [0, width). Returns *this
  /// for chaining.
  Circuit& push(const Gate& g);

  // Convenience appenders mirroring the make_* helpers.
  Circuit& not_(std::uint32_t a) { return push(make_not(a)); }
  Circuit& cnot(std::uint32_t c, std::uint32_t t) { return push(make_cnot(c, t)); }
  Circuit& swap(std::uint32_t a, std::uint32_t b) { return push(make_swap(a, b)); }
  Circuit& toffoli(std::uint32_t c1, std::uint32_t c2, std::uint32_t t) {
    return push(make_toffoli(c1, c2, t));
  }
  Circuit& fredkin(std::uint32_t c, std::uint32_t a, std::uint32_t b) {
    return push(make_fredkin(c, a, b));
  }
  Circuit& swap3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    return push(make_swap3(a, b, c));
  }
  Circuit& maj(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    return push(make_maj(a, b, c));
  }
  Circuit& majinv(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    return push(make_majinv(a, b, c));
  }
  Circuit& init3(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    return push(make_init3(a, b, c));
  }
  Circuit& f2g(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    return push(make_f2g(a, b, c));
  }
  Circuit& nft(std::uint32_t a, std::uint32_t b, std::uint32_t c) {
    return push(make_nft(a, b, c));
  }

  /// Append every gate of `other` (widths must match).
  Circuit& append(const Circuit& other);

  /// Append every gate of `other` with all operands shifted by
  /// `offset`; other.width() + offset must not exceed width().
  Circuit& append_shifted(const Circuit& other, std::uint32_t offset);

  /// Append every gate of `other` with operands remapped through
  /// `bit_map` (bit_map.size() == other.width(); values < width()).
  Circuit& append_mapped(const Circuit& other,
                         const std::vector<std::uint32_t>& bit_map);

  /// The circuit that undoes this one: gates reversed and each
  /// inverted. Throws revft::Error if the circuit contains init3.
  Circuit inverse() const;

  /// True when no init3 ops are present (the circuit is a bijection).
  bool is_reversible() const noexcept;

  GateHistogram histogram() const noexcept;

  /// Number of ops whose operand set includes `bit`.
  std::uint64_t touch_count(std::uint32_t bit) const noexcept;

  /// Parallel depth under the paper's gate-array model: ops acting on
  /// disjoint bit sets may share a time step; each op is greedily
  /// placed at the earliest step after all ops touching its bits.
  std::uint64_t depth() const noexcept;

  bool operator==(const Circuit&) const = default;

 private:
  std::uint32_t width_ = 0;
  std::vector<Gate> ops_;
};

/// Op positions of a circuit grouped by gate kind, ascending within
/// each kind: what lets PackedSimulator::draw_faults jump each kind's
/// gap counter over that kind's fault-free ops. It indexes every op of
/// the circuit (a CheckedCircuit keeps one in its WalkIndex), one op
/// span (a recover::Segment's) or one op list (a replay component's).
class KindIndex {
 public:
  KindIndex() = default;
  /// Indexes every op of `c`. Throws revft::Error past 2^32 ops.
  explicit KindIndex(const Circuit& c) : KindIndex(c, 0, c.size()) {}
  /// Indexes ops [first, last) of `c`.
  KindIndex(const Circuit& c, std::size_t first, std::size_t last);
  /// Indexes the ops of `c` at `positions` (ascending, each < c.size()).
  KindIndex(const Circuit& c, std::span<const std::size_t> positions);

  /// Positions of the indexed ops of `kind`, ascending.
  std::span<const std::uint32_t> of(GateKind kind) const {
    const auto k = static_cast<std::size_t>(kind);
    return {positions_.data() + start_[k], start_[k + 1] - start_[k]};
  }
  /// Ops of the circuit the index was built over.
  std::size_t circuit_ops() const noexcept { return circuit_ops_; }

 private:
  /// Indexes the `n` ops at op_at(0), ..., op_at(n - 1).
  template <typename OpAt>
  void fill(const Circuit& c, std::size_t n, OpAt op_at);

  std::array<std::uint32_t, kNumGateKinds + 1> start_{};
  std::vector<std::uint32_t> positions_;
  std::size_t circuit_ops_ = 0;
};

}  // namespace revft
