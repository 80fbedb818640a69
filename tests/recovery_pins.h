// Pins of a RecoveryEstimate, exact and statistical. An exact pin
// compares every field; a 5-sigma band compares two estimates of the
// same experiment on different RNG streams. A change that keeps the
// protocol's law but reorders the random stream moves every exact
// count; the suites keep the old counts as `before` and assert each new
// count within 5 sigma of them (binomial for lane counts, Poisson for
// event counts, a compound bound for ops sums).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include "recover/retry.h"

namespace revft::test {

/// Field-for-field equality, naming the field that differs.
inline void expect_same_recovery(const recover::RecoveryEstimate& got,
                                 const recover::RecoveryEstimate& want,
                                 const std::string& what) {
  EXPECT_EQ(got.trials, want.trials) << what;
  EXPECT_EQ(got.accepted, want.accepted) << what;
  EXPECT_EQ(got.rejected, want.rejected) << what;
  EXPECT_EQ(got.silent_failures, want.silent_failures) << what;
  EXPECT_EQ(got.detected_trials, want.detected_trials) << what;
  EXPECT_EQ(got.local_retries, want.local_retries) << what;
  EXPECT_EQ(got.program_restarts, want.program_restarts) << what;
  EXPECT_EQ(got.fallbacks, want.fallbacks) << what;
  EXPECT_EQ(got.restart_accepts, want.restart_accepts) << what;
  EXPECT_EQ(got.rail_events, want.rail_events) << what;
  EXPECT_EQ(got.zero_check_events, want.zero_check_events) << what;
  EXPECT_EQ(got.ops_main, want.ops_main) << what;
  EXPECT_EQ(got.ops_local, want.ops_local) << what;
  EXPECT_EQ(got.ops_restart, want.ops_restart) << what;
  EXPECT_EQ(got.segment_replays, want.segment_replays) << what;
  EXPECT_EQ(got.segment_replay_ops, want.segment_replay_ops) << what;
  EXPECT_TRUE(got == want) << what;  // no field left out above
}

/// |now - before| <= 5 sigma, sigma being the standard deviation of the
/// difference of two independent estimates with variance `var` each.
inline void expect_within_5_sigma(const std::string& name, double now,
                                  double before, double var) {
  EXPECT_LE(std::abs(now - before), 5.0 * std::sqrt(2.0 * var))
      << name << ": now " << now << " vs before " << before;
}

/// Variance of a sum of `events` Poisson events worth `total` ops
/// together, bounding the spread of the ops per event by its mean
/// (E[X^2] <= 2 E[X]^2).
inline double compound_var(double total, double events) {
  return events > 0 ? 2.0 * total * total / events : 0.0;
}

/// Every count of `now` within 5 sigma of `before` (same trials).
/// `program_ops` is the checked circuit's op count: the first pass
/// charges it per trial minus what the lanes that left early forgo
/// (fallbacks under block-local, every detected lane otherwise).
inline void expect_recovery_within_5_sigma(
    const recover::RecoveryEstimate& now,
    const recover::RecoveryEstimate& before, std::uint64_t program_ops,
    const std::string& what) {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const double trials = d(before.trials);
  const auto binomial_var = [&](std::uint64_t k) {
    return d(k) * (1.0 - d(k) / trials);
  };
  const auto lanes = [&](const char* name, std::uint64_t n, std::uint64_t b) {
    expect_within_5_sigma(what + " " + name, d(n), d(b), binomial_var(b));
  };
  const auto events = [&](const char* name, std::uint64_t n, std::uint64_t b) {
    expect_within_5_sigma(what + " " + name, d(n), d(b), d(b));
  };
  EXPECT_EQ(now.trials, before.trials) << what;
  lanes("accepted", now.accepted, before.accepted);
  lanes("rejected", now.rejected, before.rejected);
  lanes("detected_trials", now.detected_trials, before.detected_trials);
  lanes("fallbacks", now.fallbacks, before.fallbacks);
  // The 5-sigma band of a zero count is empty; floor its variance at
  // one event.
  expect_within_5_sigma(what + " silent_failures", d(now.silent_failures),
                        d(before.silent_failures),
                        std::max(1.0, d(before.silent_failures)));
  events("local_retries", now.local_retries, before.local_retries);
  events("program_restarts", now.program_restarts, before.program_restarts);
  events("zero_check_events", now.zero_check_events,
         before.zero_check_events);
  ASSERT_EQ(now.rail_events.size(), before.rail_events.size()) << what;
  for (std::size_t r = 0; r < before.rail_events.size(); ++r)
    events("rail_events", now.rail_events[r], before.rail_events[r]);
  expect_within_5_sigma(
      what + " ops_local", d(now.ops_local), d(before.ops_local),
      compound_var(d(before.ops_local), d(before.local_retries)));
  expect_within_5_sigma(
      what + " ops_restart", d(now.ops_restart), d(before.ops_restart),
      compound_var(d(before.ops_restart), d(before.program_restarts)));
  const double left_early =
      before.fallbacks != 0 ? d(before.fallbacks) : d(before.detected_trials);
  expect_within_5_sigma(
      what + " ops_main", d(now.ops_main), d(before.ops_main),
      compound_var(trials * d(program_ops) - d(before.ops_main), left_early));
}

}  // namespace revft::test
