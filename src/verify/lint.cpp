#include "verify/lint.h"

#include <sstream>

#include "recover/plan.h"
#include "support/error.h"

namespace revft::verify {

std::vector<Poly> machine_entry(const CheckedMachineProgram& program) {
  std::vector<Poly> entry(program.checked.data_width, Poly::zero());
  for (std::uint32_t j = 0; j < program.logical_bits; ++j)
    for (const std::uint32_t cell : program.input_cells[j])
      entry[cell] = Poly::var(static_cast<int>(j));
  return entry;
}

const char* lint_code_name(LintCode code) noexcept {
  switch (code) {
    case LintCode::kRailCoverageHole:
      return "rail-coverage-hole";
    case LintCode::kDeadCompensation:
      return "dead-compensation";
    case LintCode::kUnprovenZeroCheck:
      return "unproven-zero-check";
    case LintCode::kUnprovenRailInvariant:
      return "unproven-rail-invariant";
    case LintCode::kSpuriousCheck:
      return "spurious-check";
    case LintCode::kGluedReplayComponents:
      return "glued-replay-components";
  }
  return "?";  // unreachable
}

const char* lint_severity_name(LintSeverity severity) noexcept {
  switch (severity) {
    case LintSeverity::kError:
      return "error";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kInfo:
      return "info";
  }
  return "?";  // unreachable
}

std::size_t LintReport::count(LintSeverity severity) const noexcept {
  std::size_t n = 0;
  for (const LintFinding& f : findings)
    if (f.severity == severity) ++n;
  return n;
}

namespace {

/// Pass 1: data cells outside every entry rail group.
void lint_coverage(const detect::CheckedCircuit& checked, LintReport& report) {
  std::vector<char> covered(checked.data_width, 0);
  for (const auto& rail : checked.rails)
    for (const std::uint32_t bit : rail.group) covered[bit] = 1;
  LintFinding finding;
  for (std::uint32_t cell = 0; cell < checked.data_width; ++cell)
    if (!covered[cell]) finding.cells.push_back(cell);
  if (finding.cells.empty()) return;
  finding.code = LintCode::kRailCoverageHole;
  finding.severity = LintSeverity::kWarning;
  std::ostringstream msg;
  msg << finding.cells.size() << " data cell(s) outside every rail group "
      << "(corruption there is invisible to the rails until it propagates)";
  finding.message = msg.str();
  report.findings.push_back(std::move(finding));
}

/// Pass 2: dataflow — spurious / unprovable checks, dead compensation.
void lint_dataflow(const detect::CheckedCircuit& checked,
                   const std::vector<Poly>& data_entry,
                   const LintOptions& opts, LintReport& report) {
  const CheckedDataflow df =
      analyze_checked(checked, data_entry, opts.dataflow);

  for (const RailInvariantReport& r : df.rail_reports) {
    if (r.status == CheckStatus::kProven) continue;
    LintFinding finding;
    finding.position = checked.checkpoints[r.checkpoint];
    finding.cells.push_back(checked.rails[r.rail].rail_bit);
    std::ostringstream msg;
    if (r.status == CheckStatus::kViolated) {
      finding.code = LintCode::kSpuriousCheck;
      finding.severity = LintSeverity::kError;
      msg << "rail " << r.rail << " invariant at checkpoint " << r.checkpoint
          << " provably fires on some fault-free input";
    } else {
      finding.code = LintCode::kUnprovenRailInvariant;
      finding.severity = LintSeverity::kInfo;
      msg << "rail " << r.rail << " invariant at checkpoint " << r.checkpoint
          << " not provable (form budget exceeded)";
    }
    finding.message = msg.str();
    report.findings.push_back(std::move(finding));
  }

  for (const ZeroCheckReport& z : df.zero_check_reports) {
    if (z.status == CheckStatus::kProven) continue;
    LintFinding finding;
    finding.position = checked.zero_checks[z.index].op_index;
    finding.cells = z.unproven_bits;
    std::ostringstream msg;
    if (z.status == CheckStatus::kViolated) {
      finding.code = LintCode::kSpuriousCheck;
      finding.severity = LintSeverity::kError;
      msg << "zero check " << z.index << " at op " << finding.position
          << " provably fires on some fault-free input ("
          << z.unproven_bits.size() << " nonzero cell(s))";
    } else {
      finding.code = LintCode::kUnprovenZeroCheck;
      finding.severity = LintSeverity::kWarning;
      msg << "zero check " << z.index << " at op " << finding.position
          << ": " << z.unproven_bits.size()
          << " cell(s) not provably clean";
    }
    finding.message = msg.str();
    report.findings.push_back(std::move(finding));
  }

  // Dead compensation: a gate writing a rail bit whose toggle
  // condition (ANF delta it applies) is provably zero fault-free —
  // the elision the known-zero transform performs when armed.
  const std::uint32_t rail_lo = checked.data_width;
  const std::uint32_t rail_hi =
      checked.data_width + static_cast<std::uint32_t>(checked.rails.size());
  const auto is_rail_bit = [&](std::uint32_t cell) {
    return cell >= rail_lo && cell < rail_hi;
  };
  for (std::size_t i = 0; i < checked.circuit.size(); ++i) {
    const Gate& g = checked.circuit.op(i);
    const std::vector<Poly>& before = df.flow.before[i];
    Poly toggle = Poly::one();
    std::uint32_t rail_bit = 0;
    if (g.kind == GateKind::kCnot && is_rail_bit(g.bits[1])) {
      toggle = before[g.bits[0]];
      rail_bit = g.bits[1];
    } else if (g.kind == GateKind::kToffoli && is_rail_bit(g.bits[2])) {
      toggle = poly_and(before[g.bits[0]], before[g.bits[1]], opts.dataflow);
      rail_bit = g.bits[2];
    } else {
      continue;  // NOT toggles unconditionally; other kinds never
                 // write rail bits
    }
    if (!toggle.is_zero()) continue;
    LintFinding finding;
    finding.code = LintCode::kDeadCompensation;
    finding.severity = LintSeverity::kInfo;
    finding.position = i;
    finding.cells.push_back(rail_bit);
    std::ostringstream msg;
    msg << gate_name(g.kind) << " onto rail bit " << rail_bit << " at op "
        << i << " provably never toggles (elidable)";
    finding.message = msg.str();
    report.findings.push_back(std::move(finding));
  }
}

/// Pass 3: segment-plan localization — rails glued into one replay
/// component by straddling ops.
void lint_replay(const detect::CheckedCircuit& checked, LintReport& report) {
  recover::SegmentPlan plan;
  try {
    plan = recover::build_segment_plan(checked);
  } catch (const Error&) {
    return;  // not sliceable (no final checkpoint, ...) — nothing to say
  }
  for (const recover::Segment& seg : plan.segments) {
    std::size_t glued_rails = 0;
    std::vector<std::uint32_t> rails;
    for (const recover::ReplayComponent& comp : seg.components)
      if (comp.rails.size() >= 2) {
        glued_rails += comp.rails.size();
        rails.insert(rails.end(), comp.rails.begin(), comp.rails.end());
      }
    if (glued_rails == 0) continue;
    LintFinding finding;
    finding.code = LintCode::kGluedReplayComponents;
    finding.severity = LintSeverity::kWarning;
    finding.position = seg.end;
    finding.cells = std::move(rails);
    finding.ops = seg.straddling_ops;
    std::ostringstream msg;
    msg << "segment ending at op " << seg.end << " glues " << glued_rails
        << " rails into shared replay component(s) via "
        << seg.straddling_ops.size()
        << " straddling op(s) — localized retry re-runs them together";
    finding.message = msg.str();
    report.findings.push_back(std::move(finding));
  }
}

}  // namespace

LintReport lint_checked_circuit(const detect::CheckedCircuit& checked,
                                const std::vector<Poly>& data_entry,
                                const LintOptions& opts) {
  LintReport report;
  lint_coverage(checked, report);
  lint_dataflow(checked, data_entry, opts, report);
  lint_replay(checked, report);
  return report;
}

}  // namespace revft::verify
