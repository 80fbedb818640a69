// revft/verify/lint.h
//
// A lint pass over checked circuits: structured diagnostics, with
// severities, for the ways a compiled detection configuration can be
// subtly weaker or wastefuller than intended. Everything here is
// static — the dataflow engine supplies the proofs, the segment plan
// supplies the replay structure, and no scenario is ever simulated.
//
//   error    — the configuration misfires on clean runs (a check that
//              provably fires fault-free);
//   warning  — detection or localization is weaker than the
//              construction suggests (uncovered cells, unprovable zero
//              checks, rails glued into one replay component);
//   info     — wasted work (compensation gates that provably never
//              toggle — elision opportunities the transform missed).
//
// examples/circuit_lint.cpp runs the pass over the repo's standard
// constructions and over deliberately mis-configured ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "detect/rail.h"
#include "local/checked_machine.h"
#include "verify/dataflow.h"

namespace revft::verify {

enum class LintSeverity : std::uint8_t { kError, kWarning, kInfo };

enum class LintCode : std::uint8_t {
  /// Data cells no rail group covers at entry: their corruption is
  /// invisible to every rail until it propagates into a watched cell
  /// or a zero check (warning).
  kRailCoverageHole,
  /// A rail-compensation or encoder gate whose toggle condition is
  /// provably zero on every fault-free run — dead weight the
  /// known-zero elision would have removed (info).
  kDeadCompensation,
  /// A registered zero check on cells the dataflow cannot prove clean:
  /// the check's soundness rests on construction knowledge the
  /// analysis cannot replay (warning).
  kUnprovenZeroCheck,
  /// A rail invariant the dataflow cannot prove (top intruded) —
  /// usually harmless conservatism on deeply nonlinear circuits
  /// (info).
  kUnprovenRailInvariant,
  /// A check (zero check or rail invariant) that PROVABLY fires on
  /// some fault-free input — false alarms by construction (error).
  kSpuriousCheck,
  /// Straddling ops glued two or more rails into one replay component
  /// in some segment, so a localized retry re-runs more than one
  /// block's traffic — the mean_max_replay_share = 1.0 pathology when
  /// every rail fuses (warning).
  kGluedReplayComponents,
};

const char* lint_code_name(LintCode code) noexcept;
const char* lint_severity_name(LintSeverity severity) noexcept;

struct LintFinding {
  LintCode code;
  LintSeverity severity;
  /// Primary op position (gate position, check position or segment
  /// end, depending on the code; kRailCoverageHole uses 0).
  std::size_t position = 0;
  /// Cells involved (uncovered cells, unproven bits, glued rails...).
  std::vector<std::uint32_t> cells;
  /// Additional op positions (the straddlers of a glued segment).
  std::vector<std::size_t> ops;
  std::string message;
};

struct LintReport {
  std::vector<LintFinding> findings;

  std::size_t count(LintSeverity severity) const noexcept;
  std::size_t errors() const noexcept {
    return count(LintSeverity::kError);
  }
  std::size_t warnings() const noexcept {
    return count(LintSeverity::kWarning);
  }
  std::size_t infos() const noexcept { return count(LintSeverity::kInfo); }
  bool clean() const noexcept { return findings.empty(); }
};

/// A machine program's entry binding: variable j on logical bit j's
/// three input cells, every other data cell zero (the symbolic
/// machine_data_input).
std::vector<Poly> machine_entry(const CheckedMachineProgram& program);

struct LintOptions {
  DataflowOptions dataflow;
};

/// Lint a checked circuit against an entry binding (machine_entry for
/// a machine program; identity_entry(data_width) when nothing is
/// known about the inputs — fewer zero facts simply mean fewer
/// provable checks).
LintReport lint_checked_circuit(const detect::CheckedCircuit& checked,
                                const std::vector<Poly>& data_entry,
                                const LintOptions& opts = {});

}  // namespace revft::verify
