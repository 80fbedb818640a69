// revft/support/provenance.h
//
// Build provenance and the one file writer for every machine-readable
// artifact the repo emits: BENCH_*.json (bench/bench_common), the
// telemetry RunReport (REPORT_*.json), Chrome traces (TRACE_*.json)
// and convergence trajectories (CONV_*.json). One definition so
// neither the stamps nor the output-path contract can drift between
// emitters.
//
// The git SHA is captured at CMake configure time (REVFT_GIT_SHA,
// defined on this translation unit only so switching commits does not
// rebuild the world); re-run cmake after switching commits to refresh
// it.
#pragma once

#include <string>

#include "support/json.h"

namespace revft::provenance {

/// Short git SHA of the configured source tree ("unknown" outside a
/// git checkout).
std::string git_sha();

/// Compiler family + version string, e.g. "gcc 12.2.0".
std::string compiler_version();

/// Where artifact <prefix>_<name>.json goes: $REVFT_JSON_DIR/, or the
/// current directory when the variable is unset. Returns "" when
/// REVFT_JSON_DIR is set but empty (emission disabled). `prefix` must
/// be one of BENCH, REPORT, TRACE or CONV — the four telemetry_check
/// validates — and anything else throws revft::Error.
std::string artifact_path(const std::string& prefix, const std::string& name);

/// Write doc.dump(2) to artifact_path(prefix, name). Returns the path
/// written ("" when emission is disabled). Throws revft::Error naming
/// the path when the file cannot be written.
std::string write_artifact(const std::string& prefix, const std::string& name,
                           const json::Value& doc);

}  // namespace revft::provenance
