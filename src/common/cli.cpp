#include "common/cli.hpp"

#include <cstdio>
#include <exception>
#include <string>

#include "telemetry/telemetry.hpp"

namespace rtd::cli {

std::optional<index::IndexKind> backend_flag(const Flags& flags,
                                             index::IndexKind fallback,
                                             const char* name) {
  if (!flags.has(name)) return fallback;
  const std::string value = flags.get(name, "");
  const auto parsed = index::parse_index_kind(value);
  if (!parsed) {
    std::fprintf(stderr, "unknown --%s '%s' (choices: %s)\n", name,
                 value.c_str(), kBackendChoices);
    return std::nullopt;
  }
  return parsed;
}

TraceSink::TraceSink(const Flags& flags, const char* name) {
  if (!flags.has(name)) return;
  path_ = flags.get(name, "");
  if (path_.empty()) {
    std::fprintf(stderr, "--%s needs a file path; tracing disabled\n", name);
    return;
  }
  telemetry::arm(telemetry::kMetrics | telemetry::kTrace);
  active_ = true;
}

TraceSink::~TraceSink() {
  if (!active_) return;
  // A destructor must not throw: report the failure and carry on — the
  // traced binary's own exit path owns the process status.
  try {
    telemetry::write_trace(path_);
    std::fprintf(stderr, "trace written to %s\n", path_.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "failed to write trace %s: %s\n", path_.c_str(),
                 e.what());
  }
}

}  // namespace rtd::cli
