// Shared command-line spellings for the runtime-selectable knobs every
// example and bench binary exposes: --backend (index::IndexKind) and
// --width (rt::TraversalWidth).
//
// This is the single source of truth for those flags — the accepted names
// are exactly the to_string()/parse round-trips of the enums, and every
// binary rejects unknown spellings with the same message.  Use:
//
//   const auto backend = rtd::cli::backend_flag(flags);
//   if (!backend) return 1;               // message already printed
#pragma once

#include <optional>
#include <string>

#include "common/flags.hpp"
#include "index/index_kind.hpp"
#include "rt/bvh.hpp"

namespace rtd::cli {

/// Accepted --backend spellings, for usage strings.
inline constexpr const char* kBackendChoices =
    "auto, brute, grid, densebox, pointbvh, bvhrt, triangles";

/// Accepted --width spellings, for usage strings.
inline constexpr const char* kWidthChoices = "auto, binary, wide";

/// Parse `--<name>` (default "backend") from `flags`.  Returns the parsed
/// kind (`fallback` when the flag is absent), or std::nullopt after
/// printing a diagnostic to stderr on an unknown spelling — callers treat
/// nullopt as "exit 1".
std::optional<index::IndexKind> backend_flag(
    const Flags& flags, index::IndexKind fallback = index::IndexKind::kAuto,
    const char* name = "backend");

/// Parse `--<name>` (default "width") from `flags`; same contract as
/// backend_flag().
std::optional<rt::TraversalWidth> width_flag(
    const Flags& flags,
    rt::TraversalWidth fallback = rt::TraversalWidth::kAuto,
    const char* name = "width");

/// The shared `--trace <file>` flag: construct one at the top of main().
/// When the flag is present, arms telemetry (metrics + trace spans) for the
/// process and, on destruction, drains every recorded span into `file` as
/// Chrome trace-event JSON (load it in chrome://tracing or
/// ui.perfetto.dev).  Inactive when the flag is absent.
class TraceSink {
 public:
  explicit TraceSink(const Flags& flags, const char* name = "trace");
  ~TraceSink();
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

 private:
  std::string path_;
  bool active_ = false;
};

}  // namespace rtd::cli
