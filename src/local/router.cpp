#include "local/router.h"

#include <algorithm>
#include <tuple>
#include <unordered_map>

#include "support/error.h"

namespace revft {

namespace {

/// Rank of each current item under the target order: rank[pos] = where
/// the item at `pos` wants to go.
std::vector<std::uint32_t> target_ranks(const std::vector<std::uint32_t>& current,
                                        const std::vector<std::uint32_t>& target) {
  REVFT_CHECK_MSG(current.size() == target.size(), "router: size mismatch");
  std::unordered_map<std::uint32_t, std::uint32_t> rank_of_id;
  rank_of_id.reserve(target.size());
  for (std::uint32_t i = 0; i < target.size(); ++i) {
    const bool inserted = rank_of_id.emplace(target[i], i).second;
    REVFT_CHECK_MSG(inserted, "router: duplicate id in target");
  }
  std::vector<std::uint32_t> ranks(current.size());
  for (std::uint32_t i = 0; i < current.size(); ++i) {
    auto it = rank_of_id.find(current[i]);
    REVFT_CHECK_MSG(it != rank_of_id.end(),
                    "router: item " << current[i] << " missing from target");
    ranks[i] = it->second;
  }
  return ranks;
}

}  // namespace

std::uint64_t count_inversions(const std::vector<std::uint32_t>& current,
                               const std::vector<std::uint32_t>& target) {
  const auto ranks = target_ranks(current, target);
  std::uint64_t inversions = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i)
    for (std::size_t j = i + 1; j < ranks.size(); ++j)
      if (ranks[i] > ranks[j]) ++inversions;
  return inversions;
}

std::vector<SwapOp> route_line(std::vector<std::uint32_t> current,
                               const std::vector<std::uint32_t>& target) {
  auto ranks = target_ranks(current, target);
  std::vector<SwapOp> swaps;
  // Bubble sort by rank, recording each adjacent transposition.
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::uint32_t i = 0; i + 1 < ranks.size(); ++i) {
      if (ranks[i] > ranks[i + 1]) {
        std::swap(ranks[i], ranks[i + 1]);
        std::swap(current[i], current[i + 1]);
        swaps.push_back({i, i + 1});
        changed = true;
      }
    }
  }
  return swaps;
}

std::vector<Gate> pack_swap3(const std::vector<SwapOp>& swaps) {
  std::vector<Gate> out;
  std::size_t i = 0;
  while (i < swaps.size()) {
    if (i + 1 < swaps.size()) {
      const SwapOp& s1 = swaps[i];
      const SwapOp& s2 = swaps[i + 1];
      // Find a shared position between the two swaps.
      std::uint32_t common = ~0u;
      if (s1.a == s2.a || s1.a == s2.b) common = s1.a;
      if (s1.b == s2.a || s1.b == s2.b) {
        // If both ends were shared the swaps would be identical; that
        // pair is just identity but we keep it literal and unfused.
        common = (common == ~0u) ? s1.b : ~0u;
      }
      if (common != ~0u) {
        const std::uint32_t first = s1.a == common ? s1.b : s1.a;
        const std::uint32_t second = s2.a == common ? s2.b : s2.a;
        if (first != second) {
          // swap(first,common);swap(common,second) == swap3(first,common,second)
          out.push_back(make_swap3(first, common, second));
          i += 2;
          continue;
        }
      }
    }
    out.push_back(make_swap(swaps[i].a, swaps[i].b));
    ++i;
  }
  return out;
}

void apply_swaps(std::vector<std::uint32_t>& arrangement,
                 const std::vector<SwapOp>& swaps) {
  for (const SwapOp& s : swaps) {
    REVFT_CHECK_MSG(s.a < arrangement.size() && s.b < arrangement.size(),
                    "apply_swaps: position out of range");
    std::swap(arrangement[s.a], arrangement[s.b]);
  }
}

namespace {

/// Build the gather target that keeps every non-operand item in its
/// relative order and inserts (p, q, r) after `insert_at` of them.
std::vector<std::uint32_t> triple_target_at(
    const std::vector<std::uint32_t>& current, std::uint32_t p,
    std::uint32_t q, std::uint32_t r, std::uint32_t insert_at) {
  std::vector<std::uint32_t> target;
  target.reserve(current.size());
  for (const std::uint32_t item : current) {
    if (item == p || item == q || item == r) continue;
    if (target.size() == insert_at) {
      target.push_back(p);
      target.push_back(q);
      target.push_back(r);
    }
    target.push_back(item);
  }
  if (target.size() == insert_at) {
    target.push_back(p);
    target.push_back(q);
    target.push_back(r);
  }
  return target;
}

/// Tie-break anchor: insert where q currently sits.
std::uint32_t insert_at_q(const std::vector<std::uint32_t>& current,
                          std::uint32_t p, std::uint32_t q, std::uint32_t r) {
  const auto n = static_cast<std::uint32_t>(current.size());
  std::uint32_t q_pos = n;
  std::uint32_t others_before_q = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    if (current[i] == q) {
      q_pos = i;
      break;
    }
    if (current[i] != p && current[i] != r) ++others_before_q;
  }
  REVFT_CHECK_MSG(q_pos < n, "gather_triple_target: q not present");
  return std::min(others_before_q, n - 3);
}

/// ASAP depth packing of an adjacent-transposition schedule: two
/// transpositions conflict when their slot windows overlap (|s-s'| <=
/// 1); a transposition joins the earliest wave after every earlier
/// conflicting one. Returns the number of singleton waves — serial
/// steps no disjoint partner can share, the quantity a partition-aware
/// replay plan wants minimized (local/schedule.h).
std::size_t count_singleton_waves(const std::vector<SwapOp>& swaps) {
  std::vector<std::size_t> wave(swaps.size(), 0);
  std::size_t max_wave = 0;
  for (std::size_t j = 0; j < swaps.size(); ++j) {
    for (std::size_t k = 0; k < j; ++k) {
      const std::uint32_t sj = swaps[j].a, sk = swaps[k].a;
      if (sj + 1 >= sk && sk + 1 >= sj)
        wave[j] = std::max(wave[j], wave[k] + 1);
    }
    max_wave = std::max(max_wave, wave[j]);
  }
  std::size_t singletons = 0;
  for (std::size_t w = 0; w <= max_wave && !swaps.empty(); ++w) {
    std::size_t members = 0;
    for (const std::size_t wj : wave)
      if (wj == w) ++members;
    if (members == 1) ++singletons;
  }
  return singletons;
}

}  // namespace

std::vector<std::uint32_t> gather_triple_target(
    const std::vector<std::uint32_t>& current, std::uint32_t p,
    std::uint32_t q, std::uint32_t r) {
  const auto n = static_cast<std::uint32_t>(current.size());
  REVFT_CHECK_MSG(n >= 3, "gather_triple_target: need >= 3 items");
  REVFT_CHECK_MSG(p != q && q != r && p != r,
                  "gather_triple_target: items must be distinct");
  const std::uint32_t anchor = insert_at_q(current, p, q, r);
  std::uint32_t best = anchor;
  std::size_t best_singletons = 0, best_swaps = 0;
  bool have_best = false;
  for (std::uint32_t t = 0; t + 2 < n; ++t) {
    const auto target = triple_target_at(current, p, q, r, t);
    const auto swaps = route_line(current, target);
    const std::size_t singletons = count_singleton_waves(swaps);
    const std::uint32_t dist =
        t > anchor ? t - anchor : anchor - t;
    const std::uint32_t best_dist =
        best > anchor ? best - anchor : anchor - best;
    if (!have_best ||
        std::tuple(singletons, swaps.size(), dist, t) <
            std::tuple(best_singletons, best_swaps, best_dist, best)) {
      have_best = true;
      best = t;
      best_singletons = singletons;
      best_swaps = swaps.size();
    }
  }
  return triple_target_at(current, p, q, r, best);
}

}  // namespace revft
