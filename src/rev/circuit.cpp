#include "rev/circuit.h"

#include <algorithm>

#include "support/error.h"

namespace revft {

std::uint64_t GateHistogram::total() const noexcept {
  std::uint64_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

std::uint64_t GateHistogram::total_reversible() const noexcept {
  return total() - of(GateKind::kInit3);
}

Circuit& Circuit::push(const Gate& g) {
  REVFT_CHECK_MSG(g.max_bit_plus_one() <= width_,
                  gate_name(g.kind) << " operand out of range for width "
                                    << width_);
  ops_.push_back(g);
  return *this;
}

Circuit& Circuit::append(const Circuit& other) {
  REVFT_CHECK_MSG(other.width_ == width_, "append: width mismatch "
                                              << other.width_ << " vs "
                                              << width_);
  ops_.insert(ops_.end(), other.ops_.begin(), other.ops_.end());
  return *this;
}

Circuit& Circuit::append_shifted(const Circuit& other, std::uint32_t offset) {
  REVFT_CHECK_MSG(other.width_ + offset <= width_,
                  "append_shifted: offset " << offset << " overflows width");
  for (Gate g : other.ops_) {
    const int n = g.arity();
    for (int i = 0; i < n; ++i) g.bits[static_cast<std::size_t>(i)] += offset;
    ops_.push_back(g);
  }
  return *this;
}

Circuit& Circuit::append_mapped(const Circuit& other,
                                const std::vector<std::uint32_t>& bit_map) {
  REVFT_CHECK_MSG(bit_map.size() == other.width_,
                  "append_mapped: map size " << bit_map.size()
                                             << " != other width "
                                             << other.width_);
  for (Gate g : other.ops_) {
    const int n = g.arity();
    for (int i = 0; i < n; ++i) {
      auto& b = g.bits[static_cast<std::size_t>(i)];
      b = bit_map.at(b);
    }
    push(g);  // re-validate mapped operands
  }
  return *this;
}

Circuit Circuit::inverse() const {
  Circuit inv(width_);
  inv.ops_.reserve(ops_.size());
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it)
    inv.ops_.push_back(it->inverse());
  return inv;
}

bool Circuit::is_reversible() const noexcept {
  return std::none_of(ops_.begin(), ops_.end(), [](const Gate& g) {
    return g.kind == GateKind::kInit3;
  });
}

GateHistogram Circuit::histogram() const noexcept {
  GateHistogram h;
  for (const Gate& g : ops_) ++h.counts[static_cast<std::size_t>(g.kind)];
  return h;
}

std::uint64_t Circuit::touch_count(std::uint32_t bit) const noexcept {
  std::uint64_t n = 0;
  for (const Gate& g : ops_)
    if (g.touches(bit)) ++n;
  return n;
}

std::uint64_t Circuit::depth() const noexcept {
  std::vector<std::uint64_t> ready(width_, 0);  // earliest free step per bit
  std::uint64_t depth = 0;
  for (const Gate& g : ops_) {
    std::uint64_t step = 0;
    const int n = g.arity();
    for (int i = 0; i < n; ++i)
      step = std::max(step, ready[g.bits[static_cast<std::size_t>(i)]]);
    for (int i = 0; i < n; ++i)
      ready[g.bits[static_cast<std::size_t>(i)]] = step + 1;
    depth = std::max(depth, step + 1);
  }
  return depth;
}

template <typename OpAt>
void KindIndex::fill(const Circuit& c, std::size_t n, OpAt op_at) {
  REVFT_CHECK_MSG(c.size() <= UINT32_MAX, "KindIndex: " << c.size() << " ops");
  circuit_ops_ = c.size();
  positions_.resize(n);
  const std::vector<Gate>& ops = c.ops();
  for (std::size_t j = 0; j < n; ++j)
    ++start_[static_cast<std::size_t>(ops[op_at(j)].kind) + 1];
  for (int k = 0; k < kNumGateKinds; ++k) start_[k + 1] += start_[k];
  std::array<std::uint32_t, kNumGateKinds> next{};
  std::copy(start_.begin(), start_.end() - 1, next.begin());
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t i = op_at(j);
    positions_[next[static_cast<std::size_t>(ops[i].kind)]++] =
        static_cast<std::uint32_t>(i);
  }
}

KindIndex::KindIndex(const Circuit& c, std::size_t first, std::size_t last) {
  REVFT_CHECK_MSG(first <= last && last <= c.size(),
                  "KindIndex: bad range [" << first << ", " << last << ")");
  fill(c, last - first, [first](std::size_t j) { return first + j; });
}

KindIndex::KindIndex(const Circuit& c,
                     std::span<const std::size_t> positions) {
  REVFT_CHECK_MSG(
      std::is_sorted(positions.begin(), positions.end()) &&
          (positions.empty() || positions.back() < c.size()),
      "KindIndex: positions must be ascending and within the circuit");
  fill(c, positions.size(),
       [positions](std::size_t j) { return positions[j]; });
}

}  // namespace revft
