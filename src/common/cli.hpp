// Shared command-line spellings for the runtime-selectable knob every
// example and bench binary exposes, --backend (index::IndexKind), and the
// shared --trace flag.
//
// This is the single source of truth for those flags — the accepted
// backend names are exactly the to_string()/parse round-trips of the enum,
// and every binary rejects unknown spellings with the same message.  Use:
//
//   const auto flags = rtd::Flags::parse_or_exit(argc, argv,
//                                                {rtd::cli::kBackendFlag});
//   const auto backend = rtd::cli::backend_flag(flags);
//   if (!backend) return 1;               // message already printed
#pragma once

#include <optional>
#include <string>

#include "common/flags.hpp"
#include "index/index_kind.hpp"

namespace rtd::cli {

/// Accepted --backend spellings, for usage strings.
inline constexpr const char* kBackendChoices =
    "auto, brute, grid, densebox, pointbvh, bvhrt, triangles";

/// Declarations of the shared flags, for Flags::parse_or_exit().
inline constexpr FlagSpec kBackendFlag{
    "backend",
    "neighbor index: auto, brute, grid, densebox, pointbvh, bvhrt, "
    "triangles [auto]"};
inline constexpr FlagSpec kTraceFlag{
    "trace", "write the run's telemetry spans to this Chrome trace file"};

/// Parse `--<name>` (default "backend") from `flags`.  Returns the parsed
/// kind (`fallback` when the flag is absent), or std::nullopt after
/// printing a diagnostic to stderr on an unknown spelling — callers treat
/// nullopt as "exit 1".
std::optional<index::IndexKind> backend_flag(
    const Flags& flags, index::IndexKind fallback = index::IndexKind::kAuto,
    const char* name = "backend");

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
