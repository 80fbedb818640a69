#include "detect/checked_mc.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

#include "detect/slot_walk.h"

namespace revft::detect {

namespace detail {

namespace {

// One instantiation per lane width (with_lane_words picks it once per
// call), so the gate kernels and the rail and zero-check evaluators
// (checked_mc.h detail) all run fixed-trip word loops.
template <unsigned W>
void walk_checked_impl(PackedState& state, const CheckedCircuit& checked,
                       std::span<const FaultEvent> events,
                       std::uint64_t* __restrict__ detected,
                       std::uint64_t* __restrict__ fired_masks) {
  const WalkIndex& x = checked.walk;
  const std::size_t n_rails = checked.rails.size();
  if (fired_masks != nullptr)
    std::fill(fired_masks, fired_masks + (n_rails + 1) * W, 0);
  for (unsigned w = 0; w < W; ++w) detected[w] = 0;
  // The walk stops at each check position (zero checks and rail
  // checkpoints, merged in op order): walk_span runs the data ops up to
  // it and injects the events up to it, then its checks OR the per-lane
  // rail invariants — or a zero-checked word — into the masks; all of
  // it on slots (WalkIndex).
  const std::size_t end = checked.circuit.size();
  const std::size_t n_cp = checked.checkpoints.size();
  const std::size_t n_zc = checked.zero_checks.size();
  SpanOps ops{x.data_ops.data(), 0};
  const FaultEvent* ev = events.data();
  const FaultEvent* const ev_end = ev + events.size();
  std::size_t ci = 0, zi = 0;
  while (ci < n_cp || zi < n_zc) {
    const std::size_t stop =
        std::min(ci < n_cp ? checked.checkpoints[ci] : end,
                 zi < n_zc ? checked.zero_checks[zi].op_index : end);
    walk_span<W>(state, x, ops, stop + 1, ev, ev_end);
    for (; zi < n_zc && checked.zero_checks[zi].op_index == stop; ++zi) {
      std::uint64_t zero_mask[W];
      zero_check_words<W>(state,
                          {x.zero_bits.data() + x.zero_start[zi],
                           x.zero_bits.data() + x.zero_start[zi + 1]},
                          zero_mask);
      for (unsigned w = 0; w < W; ++w) detected[w] |= zero_mask[w];
      if (fired_masks != nullptr)
        for (unsigned w = 0; w < W; ++w)
          fired_masks[n_rails * W + w] |= zero_mask[w];
    }
    for (; ci < n_cp && checked.checkpoints[ci] == stop; ++ci) {
      for (std::size_t r = 0; r < n_rails; ++r) {
        // A rail's slots are the same at every checkpoint (WalkIndex).
        std::uint64_t acc[W];
        rail_invariant_words<W>(state, checked.rails[r].rail_bit,
                                checked.rails[r].group, acc);
        for (unsigned w = 0; w < W; ++w) detected[w] |= acc[w];
        if (fired_masks != nullptr)
          for (unsigned w = 0; w < W; ++w) fired_masks[r * W + w] |= acc[w];
      }
    }
  }
  walk_span<W>(state, x, ops, end, ev, ev_end);
  undo_renaming<W>(state, x);
}

}  // namespace

void walk_checked(PackedState& state, const CheckedCircuit& checked,
                  std::span<const FaultEvent> events, std::uint64_t* detected,
                  std::uint64_t* fired_masks) {
  REVFT_CHECK_MSG(checked.circuit.width() == state.width(),
                  "apply_noisy_checked_words: width mismatch");
  with_lane_words(state.lane_words(), "apply_noisy_checked_words",
                  [&](auto W) {
                    walk_checked_impl<W>(state, checked, events, detected,
                                         fired_masks);
                  });
}

FirstFaultLaw::FirstFaultLaw(const WalkIndex& walk, const NoiseModel& model)
    : walk_(walk), used_(walk.used_kinds.size()) {
  const std::size_t ops = walk.slot_ops.size();
  const std::uint32_t* count = walk.kinds_before.data() + ops * used_;
  // The base: the kind with the most ops. A probe then reads the
  // counts of only the kinds whose rate differs from the base's.
  std::size_t base = 0;
  for (std::size_t k = 0; k < used_; ++k) {
    const double p = model.error_for(walk.used_kinds[k]);
    if (p >= 1.0) {  // every trial faults
      q_ = 1.0;
      return;
    }
    if (count[k] > count[base]) base = k;
  }
  if (used_ == 0) return;
  const double base_p = model.error_for(walk.used_kinds[base]);
  base_hazard_ = -std::log1p(-base_p);
  for (std::size_t k = 0; k < used_; ++k) {
    const double p = model.error_for(walk.used_kinds[k]);
    if (p != base_p)
      others_[n_others_++] = {static_cast<std::uint32_t>(k), -std::log1p(-p)};
  }
  const double total = hazard_before(ops);
  below_total_ = std::nextafter(total, 0.0);
  q_ = -std::expm1(-total);
}

double FirstFaultLaw::hazard_before(std::size_t i) const {
  // Integer counts, then one product per rate: each term and the sum
  // grow with i, so the binary search below sees a monotone hazard.
  const std::uint32_t* counts = walk_.kinds_before.data() + i * used_;
  auto base = static_cast<std::int64_t>(i);
  double h = 0.0;
  for (std::size_t o = 0; o < n_others_; ++o) {
    const std::uint32_t c = counts[others_[o].column];
    base -= c;
    h += others_[o].hazard * c;
  }
  return base_hazard_ * static_cast<double>(base) + h;
}

void FirstFaultLaw::draw(std::span<const double> u,
                         std::uint32_t* first) const {
  // Trial k's first fault is at the op j with hazard_before(j) <= t_k <
  // hazard_before(j + 1), for t_k = -ln(1 - u_k q): the last i whose
  // hazard is at most t_k, found by binary lifting. t_k stays below the
  // total, so that i is an op. The trials' searches step in lockstep,
  // so their dependency chains overlap.
  const std::size_t n = u.size();
  REVFT_DASSERT(n <= 64 * kMaxLaneWords);
  double t[64 * kMaxLaneWords];
  std::size_t at[64 * kMaxLaneWords];
  for (std::size_t k = 0; k < n; ++k) {
    t[k] = std::min(-std::log1p(-u[k] * q_), below_total_);
    at[k] = 0;
  }
  const std::size_t ops = walk_.slot_ops.size();
  for (std::size_t step = std::bit_floor(ops); step != 0; step >>= 1)
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t next = std::min(at[k] + step, ops);
      // A product, not a branch: the outcome is a coin flip.
      at[k] += (hazard_before(next) <= t[k]) * (next - at[k]);
    }
  for (std::size_t k = 0; k < n; ++k)
    first[k] = static_cast<std::uint32_t>(at[k]);
}

CheckedBatchWalk::CheckedBatchWalk(const CheckedCircuit& checked,
                                   unsigned lane_words)
    : checked_(checked),
      lane_words_(lane_words),
      walk_words_(lane_words),
      judged_(lane_words),
      detected_(lane_words),
      fired_((checked.rails.size() + 1) * lane_words, 0),
      batch_lanes_(lane_words) {}

void CheckedBatchWalk::walk(PackedState& state,
                            std::span<const FaultEvent> events) {
  walk_words_ = state.lane_words();
  detected_ = LaneMask(walk_words_);
  walk_checked(state, checked_, events, detected_.data(), fired_.data());
  // Every count and event reads the judged lanes only.
  detected_ &= judged_;
  for (std::size_t slot = 0; slot <= checked_.rails.size(); ++slot)
    for (unsigned w = 0; w < walk_words_; ++w)
      fired_[slot * walk_words_ + w] &= judged_.word(w);
}

void CheckedBatchWalk::walk_every_lane(PackedState& state, const LaneMask& live,
                                       std::span<const FaultEvent> events) {
  compact_ = nullptr;
  sentinel_ = -1;
  judged_ = live;
  walk(state, events);
}

PackedState& CheckedBatchWalk::draw_lanes(Xoshiro256& rng, double q,
                                          const LaneMask& live) {
  const unsigned W = lane_words_;
  LaneMask faulty(W);
  if (q > 0.0) BernoulliMaskStream(q, &rng).next_masks(faulty.data(), W);
  faulty &= live;
  batch_lanes_ = faulty;
  // The sentinel: the lowest live lane that is not faulty. The live
  // lanes are the batch's first ones, so every lane below it is faulty
  // and its compact lane is its batch lane.
  sentinel_ = -1;
  for (unsigned w = 0; w < W && sentinel_ < 0; ++w) {
    const std::uint64_t clean = live.word(w) & ~faulty.word(w);
    if (clean != 0) {
      sentinel_ = static_cast<int>(64 * w) + std::countr_zero(clean);
      batch_lanes_.set(static_cast<unsigned>(sentinel_));
    }
  }
  const std::uint64_t n = batch_lanes_.popcount();
  const unsigned cw = n <= 64 ? 1 : n <= 128 ? 2 : n <= 256 ? 4 : 8;
  judged_ = LaneMask::first_n(cw, n);
  faulty_ = judged_;
  if (sentinel_ >= 0) faulty_.reset(static_cast<unsigned>(sentinel_));
  std::unique_ptr<PackedState>& slot =
      states_[static_cast<std::size_t>(std::countr_zero(cw))];
  if (slot == nullptr)
    slot = std::make_unique<PackedState>(checked_.circuit.width(), cw);
  else
    slot->clear();
  compact_ = slot.get();
  return *compact_;
}

void CheckedBatchWalk::draw_first_faults(Xoshiro256& rng,
                                         const FirstFaultLaw& law) {
  // Per faulty lane, in lane order: its inverse-CDF draw, then its
  // fresh operand bits (bit i: operand i).
  unsigned lanes[64 * kMaxLaneWords];
  double u[64 * kMaxLaneWords];
  std::uint64_t fresh[64 * kMaxLaneWords];
  std::size_t n = 0;
  for_each_lane(faulty_, [&](unsigned lane) {
    lanes[n] = lane;
    u[n] = rng.next_double();
    fresh[n++] = rng.next();
  });
  std::uint32_t first[64 * kMaxLaneWords];
  law.draw({u, n}, first);
  forced_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    const unsigned lane = lanes[k];
    const std::uint64_t bit = 1ULL << (lane & 63u);
    first_op_[lane] = first[k];
    forced_.push_back({first[k], lane >> 6, bit,
                       {(fresh[k] & 1u) != 0 ? bit : 0,
                        (fresh[k] & 2u) != 0 ? bit : 0,
                        (fresh[k] & 4u) != 0 ? bit : 0}});
  }
  std::sort(forced_.begin(), forced_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              return a.op != b.op ? a.op < b.op : a.word < b.word;
            });
}

void CheckedBatchWalk::walk_faulty(std::span<const FaultEvent> stream) {
  // The stream's faults after each faulty lane's first one, merged in
  // op order with the forced first faults.
  events_.clear();
  auto forced = forced_.cbegin();
  for (const FaultEvent& e : stream) {
    std::uint64_t keep = 0;
    for (std::uint64_t bits = e.mask & faulty_.word(e.word); bits != 0;
         bits &= bits - 1) {
      const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
      if (first_op_[64 * e.word + b] < e.op) keep |= 1ULL << b;
    }
    if (keep == 0) continue;
    for (; forced != forced_.cend() && forced->op <= e.op; ++forced)
      events_.push_back(*forced);
    events_.push_back({e.op, e.word, keep, e.fresh});
  }
  events_.insert(events_.end(), forced, forced_.cend());
  walk(*compact_, events_);
}

LaneMask CheckedBatchWalk::fired(std::size_t slot) const {
  LaneMask lanes(walk_words_);
  for (unsigned w = 0; w < walk_words_; ++w)
    lanes.word(w) = fired_[slot * walk_words_ + w];
  return lanes;
}

LaneMask CheckedBatchWalk::at_batch(const LaneMask& walked) const {
  if (compact_ == nullptr) return walked;
  // Compact lane j is the j-th walked batch lane.
  LaneMask out(lane_words_);
  unsigned j = 0;
  for_each_lane(batch_lanes_, [&](unsigned lane) {
    if (walked.test(j++)) out.set(lane);
  });
  return out;
}

void CheckedBatchWalk::check_sentinel(const LaneMask& wrong,
                                      std::uint64_t batch) const {
  if (sentinel_ < 0) return;
  const auto lane = static_cast<unsigned>(sentinel_);
  const bool fired = detected_.test(lane);
  if (!fired && !wrong.test(lane)) return;
  std::string msg = "run_checked_mc_span: lane ";
  msg += std::to_string(lane);
  msg += " of batch ";
  msg += std::to_string(batch);
  msg += " drew no fault but ";
  msg += fired ? "fired a check" : "was judged wrong";
  msg += "; the engine skips fault-free lanes only because such a lane is "
         "accepted and correct";
  throw Error(msg);
}

}  // namespace detail

DetectionEstimate run_scripted_checked(
    const CheckedCircuit& checked, std::span<const FaultScenario> scenarios,
    unsigned lane_words,
    const std::function<bool(const StateVector&, std::size_t)>& wrong) {
  ScriptedPass script(checked.circuit, checked.data_width, scenarios,
                      lane_words, wrong);
  PackedState state(checked.circuit.width(), lane_words);
  return detail::run_checked_mc_span(
      script, state, checked, /*first_batch=*/0, scenarios.size(),
      [&script](PackedState& s, Xoshiro256&, std::uint64_t batch) {
        script.prepare(s, batch);
      },
      [&script](const PackedState& s, int lane, std::uint64_t batch) {
        return script.classify(s, lane, batch);
      });
}

}  // namespace revft::detect
