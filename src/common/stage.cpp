#include "common/stage.hpp"

#include <charconv>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <system_error>

#include "common/failpoint.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd::stage {

namespace detail {

std::atomic<unsigned> g_armed{kEnvUnread};

unsigned read_env() noexcept {
  static std::once_flag once;
  std::call_once(once, [] {
    // A malformed spec is a fatal configuration error.  Terminating inside
    // the handler keeps the exception active, so the terminate handler
    // prints the message naming the bad token.
    try {
      if (const char* spec = std::getenv("RTDBSCAN_FAILPOINTS")) {
        fail::detail::apply_spec(spec);
      }
      if (const char* spec = std::getenv("RTDBSCAN_TELEMETRY")) {
        telemetry::detail::apply_spec(spec);
      }
    } catch (...) {
      std::terminate();
    }
    g_armed.fetch_and(~kEnvUnread, std::memory_order_release);
  });
  return g_armed.load(std::memory_order_acquire);
}

std::uint64_t parse_count(std::string_view token, std::string_view what) {
  std::uint64_t value = 0;
  const char* const end = token.data() + token.size();
  const auto [stop, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || stop != end) {
    throw std::invalid_argument(std::string(what) +
                                ": expected a whole number, got '" +
                                std::string(token) + "'");
  }
  return value;
}

}  // namespace detail

const std::vector<std::string>& all_sites() {
  // One entry per RTD_STAGE / RTD_STAGE_AS site in the tree.  Keep sorted;
  // the linter checks every use against it, and the chaos soak fires a
  // fault at every entry.
  static const std::vector<std::string> kSites = {
      "dsu.grow",                 // AtomicDisjointSet::reset growth realloc
      "engine.fused",             // run()/heal/sweep count-and-cluster launch
      "engine.phase1",            // cluster_with_index counting launch
      "engine.phase1_insert",     // insert count maintenance
      "engine.phase1_remove",     // remove count maintenance
      "engine.phase2",            // core-merge launch (reused counts)
      "index.build",              // make_index backend construction
      "index.clone",              // NeighborIndex::clone (new version)
      "index.compacted_rebuild",  // CompactedIndex dense rebuild
      "index.insert",             // NeighborIndex::try_insert (declinable)
      "index.refit",              // NeighborIndex::try_set_eps (declinable)
      "index.remove",             // NeighborIndex::try_remove (declinable)
      "repair.border",            // label repair: border re-claim pass
      "repair.commit",            // label repair: touched flags + counts
      "repair.relabel",           // label repair: stable ids + member moves
      "repair.split",             // label repair: cut-group split detection
      "repair.touch",             // label repair: scratch reset + touched set
      "repair.union",             // label repair: W's union pass
      "session.advance",          // Clusterer::advance window step
      "session.insert",           // Clusterer::insert batch
      "session.publish",          // snapshot creation before the swap
      "session.remove",           // Clusterer::remove batch
      "session.repair",           // incremental label repair
      "session.run",              // Clusterer::run / heal re-cluster
      "session.sweep",            // Clusterer::sweep ladder
      "snapshot.query_batch",     // IndexSnapshot::query_batch CSR fill
      "sweep.scratch",            // sweep union-find/claim/settle workspace
  };
  return kSites;
}


void Scope::enter(const char* site) {
  // The fault first: a throw leaves no half-open span behind.
  const unsigned word = armed();
  if ((word & kFaults) != 0) declined_ = fail::detail::hit(site);
  if ((word & kTrace) != 0) {
    span_site_ = site;
    begin_ns_ = telemetry::detail::now_ns();
  }
}

void Scope::leave() noexcept {
  telemetry::detail::span_end(span_site_, begin_ns_);
}

}  // namespace rtd::stage
