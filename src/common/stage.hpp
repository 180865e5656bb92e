#pragma once

// Named stages: the one instrumentation facility.  A stage is a named
// serial boundary in production code (an engine launch, an index build, a
// label-repair pass, a snapshot publish).  Every stage is at once:
//
//   * a failpoint: a test can arm a fault there (throw std::bad_alloc,
//     throw std::runtime_error, or make the operation decline) through
//     common/failpoint.hpp or RTDBSCAN_FAILPOINTS; and
//   * a trace span: with tracing armed (telemetry/telemetry.hpp or
//     RTDBSCAN_TELEMETRY) the stage records its wall-clock extent.
//
// Always compiled in, armed only at runtime.  Every arm mode (faults,
// metrics, trace) is one bit of ONE process-wide word, so a disarmed stage
// — and a disarmed telemetry::count() — costs one inline relaxed load of
// that word.  The word starts with kEnvUnread set: the first check of any
// process takes the slow path once, parses both environment variables and
// clears the bit.  A malformed spec there is fatal: the process terminates
// with the std::invalid_argument naming the bad token (README, "Stages").
//
// Stages belong at serial boundaries only — NEVER inside a launch body (a
// fault would fire once per index on the pool workers; a per-worker span
// skews the latencies it reports): scripts/lint_invariants.py rule
// stage-in-launch.  Site names are canonical: all_sites() lists them sorted,
// and the linter cross-checks every use against it, the docs table and the
// chaos soak.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rtd::stage {

/// Bits of the armed word.
inline constexpr unsigned kMetrics = 1u << 0;    // telemetry metric updates
inline constexpr unsigned kTrace = 1u << 1;      // stage spans
inline constexpr unsigned kFaults = 1u << 2;     // at least one fault armed
inline constexpr unsigned kEnvUnread = 1u << 3;  // env specs not parsed yet

namespace detail {
extern std::atomic<unsigned> g_armed;
// Parse RTDBSCAN_FAILPOINTS and RTDBSCAN_TELEMETRY once per process, clear
// kEnvUnread and return the settled word.
unsigned read_env() noexcept;
// Strict count for the env grammars: a whole token of decimal digits that
// fits 64 bits.  Throws std::invalid_argument naming `what` otherwise.
std::uint64_t parse_count(std::string_view token, std::string_view what);
}  // namespace detail

/// The armed word: one relaxed load once the environment has been read.
inline unsigned armed() noexcept {
  const unsigned word = detail::g_armed.load(std::memory_order_relaxed);
  if ((word & kEnvUnread) != 0) [[unlikely]] return detail::read_env();
  return word;
}

/// The canonical stage table, sorted; fault arming rejects any other name.
const std::vector<std::string>& all_sites();

/// RAII body behind RTD_STAGE.  `site` must be a string literal from the
/// table (its pointer is stored, not copied).  The constructor throws when
/// an armed throw-action fires.
class Scope {
 public:
  explicit Scope(const char* site) {
    if ((armed() & (kFaults | kTrace)) != 0) [[unlikely]] enter(site);
  }
  ~Scope() {
    if (span_site_ != nullptr) [[unlikely]] leave();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// True when an armed kDecline fault fired on entry.
  [[nodiscard]] bool declined() const noexcept { return declined_; }

 private:
  void enter(const char* site);
  void leave() noexcept;

  const char* span_site_ = nullptr;
  std::uint64_t begin_ns_ = 0;
  bool declined_ = false;
};

}  // namespace rtd::stage

#define RTD_STAGE_CONCAT_INNER(a, b) a##b
#define RTD_STAGE_CONCAT(a, b) RTD_STAGE_CONCAT_INNER(a, b)
// A stage from here to the end of the enclosing block.  May throw armed
// faults; never declines.
#define RTD_STAGE(site) \
  const ::rtd::stage::Scope RTD_STAGE_CONCAT(rtd_stage_, __LINE__)(site)
// Declinable form, for operations that can report failure: names the scope
// so `name.declined()` reads whether an armed kDecline fired, e.g.
//   RTD_STAGE_AS(stage, "index.insert");
//   if (stage.declined()) return false;
#define RTD_STAGE_AS(name, site) const ::rtd::stage::Scope name(site)
