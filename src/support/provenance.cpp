#include "support/provenance.h"

#include <cstdlib>
#include <fstream>

#include "support/error.h"

namespace revft::provenance {

#ifndef REVFT_GIT_SHA
#define REVFT_GIT_SHA "unknown"
#endif

std::string git_sha() { return REVFT_GIT_SHA; }

std::string compiler_version() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string artifact_path(const std::string& prefix, const std::string& name) {
  REVFT_CHECK_MSG(prefix == "BENCH" || prefix == "REPORT" ||
                      prefix == "TRACE" || prefix == "CONV",
                  "unknown artifact prefix " << prefix);
  std::string path = ".";
  if (const char* env = std::getenv("REVFT_JSON_DIR")) {
    if (*env == '\0') return {};  // emission disabled
    path = env;
  }
  path += '/';
  path += prefix;
  path += '_';
  path += name;
  path += ".json";
  return path;
}

std::string write_artifact(const std::string& prefix, const std::string& name,
                           const json::Value& doc) {
  const std::string path = artifact_path(prefix, name);
  if (path.empty()) return path;
  std::ofstream out(path);
  REVFT_CHECK_MSG(out.good(), "cannot open artifact file " << path);
  out << doc.dump(2) << '\n';
  out.close();
  REVFT_CHECK_MSG(!out.fail(), "failed writing artifact file " << path);
  return path;
}

}  // namespace revft::provenance
