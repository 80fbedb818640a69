#include "noise/injection.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace revft {

StateVector apply_with_faults(const Circuit& circuit, StateVector input,
                              const std::vector<FaultSpec>& faults) {
  REVFT_CHECK_MSG(input.width() == circuit.width(),
                  "apply_with_faults: width mismatch");
  // Index faults by op for O(1) lookup; reject duplicates.
  std::vector<int> fault_at(circuit.size(), -1);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const auto& f = faults[i];
    REVFT_CHECK_MSG(f.op_index < circuit.size(),
                    "fault op_index " << f.op_index << " out of range");
    REVFT_CHECK_MSG(fault_at[f.op_index] < 0,
                    "duplicate fault on op " << f.op_index);
    fault_at[f.op_index] = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.op(i);
    const int fi = fault_at[i];
    if (fi < 0) {
      input.apply(g);
      continue;
    }
    const unsigned v = faults[static_cast<std::size_t>(fi)].corrupted_local;
    const int n = g.arity();
    REVFT_CHECK_MSG(v < (1u << n), "corrupted_local " << v << " exceeds arity");
    for (int k = 0; k < n; ++k)
      input.set_bit(g.bits[static_cast<std::size_t>(k)],
                    static_cast<std::uint8_t>((v >> k) & 1u));
  }
  return input;
}

ScriptedPass::ScriptedPass(
    const Circuit& circuit, std::uint32_t input_width,
    std::span<const FaultScenario> scenarios, unsigned lane_words,
    std::function<bool(const StateVector&, std::size_t)> wrong)
    : circuit_(circuit),
      input_width_(input_width),
      scenarios_(scenarios),
      lanes_per_batch_(64ULL * lane_words),
      wrong_(std::move(wrong)),
      out_(circuit.width()) {}

void ScriptedPass::prepare(PackedState& s, std::uint64_t batch) {
  events_.clear();
  const std::size_t base = batch * lanes_per_batch_;
  const std::size_t end = std::min(scenarios_.size(), base + lanes_per_batch_);
  for (std::size_t i = base; i < end; ++i) {
    const FaultScenario& sc = scenarios_[i];
    const auto lane = static_cast<std::uint32_t>(i - base);
    REVFT_CHECK_MSG(sc.input.width() == input_width_,
                    "scenario " << i << ": input width " << sc.input.width()
                                << ", expected " << input_width_);
    for (std::uint32_t bit = 0; bit < input_width_; ++bit)
      if (sc.input.bit(bit) != 0)
        s.set_bit_lane(bit, static_cast<int>(lane), true);
    const std::size_t lane_first = events_.size();
    for (const FaultSpec& f : sc.faults) {
      REVFT_CHECK_MSG(f.op_index < circuit_.size(),
                      "scenario " << i << ": fault op_index " << f.op_index
                                  << " out of range");
      REVFT_CHECK_MSG(
          f.corrupted_local < (1u << circuit_.op(f.op_index).arity()),
          "scenario " << i << ": corrupted_local " << f.corrupted_local
                      << " exceeds the arity of op " << f.op_index);
      for (std::size_t k = lane_first; k < events_.size(); ++k)
        REVFT_CHECK_MSG(events_[k].op != f.op_index,
                        "scenario " << i << ": duplicate fault on op "
                                    << f.op_index);
      FaultEvent e{static_cast<std::uint32_t>(f.op_index), lane >> 6,
                   1ULL << (lane & 63u), {}};
      for (std::size_t k = 0; k < e.fresh.size(); ++k)
        e.fresh[k] = ((f.corrupted_local >> k) & 1u) != 0 ? ~0ULL : 0;
      events_.push_back(e);
    }
  }
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.op < b.op; });
}

std::span<const FaultEvent> ScriptedPass::draw_faults(
    [[maybe_unused]] const Circuit& c, const KindIndex&, std::size_t first,
    std::size_t last, unsigned) const {
  REVFT_DASSERT(&c == &circuit_);
  const auto by_op = [](const FaultEvent& e, std::size_t op) {
    return e.op < op;
  };
  const auto lo =
      std::lower_bound(events_.begin(), events_.end(), first, by_op);
  const auto hi = std::lower_bound(lo, events_.end(), last, by_op);
  return {lo, hi};
}

bool ScriptedPass::classify(const PackedState& s, int lane,
                            std::uint64_t batch) {
  for (std::uint32_t bit = 0; bit < s.width(); ++bit)
    out_.set_bit(bit, s.bit_lane(bit, lane));
  return wrong_(out_,
                batch * lanes_per_batch_ + static_cast<std::size_t>(lane));
}

FaultSites count_fault_sites(const Circuit& circuit) {
  FaultSites sites;
  for (const Gate& g : circuit.ops()) {
    ++sites.sites;
    sites.scenarios += 1ull << g.arity();
  }
  return sites;
}

std::vector<FaultSpec> enumerate_single_faults(const Circuit& circuit) {
  std::vector<FaultSpec> out;
  out.reserve(count_fault_sites(circuit).scenarios);
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const unsigned values = 1u << circuit.op(i).arity();
    for (unsigned v = 0; v < values; ++v) out.push_back({i, v});
  }
  return out;
}

std::vector<FaultSpec> enumerate_single_faults(const Circuit& circuit,
                                               const StateVector& input,
                                               bool skip_benign) {
  REVFT_CHECK_MSG(input.width() == circuit.width(),
                  "enumerate_single_faults: width mismatch");
  std::vector<FaultSpec> out;
  StateVector state = input;
  for (std::size_t i = 0; i < circuit.size(); ++i) {
    const Gate& g = circuit.op(i);
    const int n = g.arity();
    unsigned local = 0;
    for (int k = 0; k < n; ++k)
      local |= static_cast<unsigned>(
                   state.bit(g.bits[static_cast<std::size_t>(k)]))
               << k;
    const unsigned correct = gate_apply_local(g.kind, local);
    const unsigned values = 1u << n;
    for (unsigned v = 0; v < values; ++v)
      if (!skip_benign || v != correct) out.push_back({i, v});
    state.apply(g);
  }
  return out;
}

}  // namespace revft
