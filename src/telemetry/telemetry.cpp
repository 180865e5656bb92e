#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "common/mutex.hpp"
#include "common/stage.hpp"
#include "common/thread_annotations.hpp"

namespace rtd::telemetry {

namespace {

// Canonical metric names, indexed by enumerator.  Keep each block sorted —
// the enum order mirrors it, and test_telemetry.cpp checks.
constexpr const char* kCounterNames[kNumCounters] = {
    "engine.fused.launches",
    "engine.phase1.launches",
    "engine.phase1_insert.launches",
    "engine.phase1_remove.launches",
    "engine.phase2.launches",
    "failpoint.fires",
    "index.builds",
    "index.clones",
    "index.inserts.absorbed",
    "index.inserts.declined",
    "index.rebuild_fallbacks",
    "index.refits",
    "index.refits.declined",
    "index.removes.absorbed",
    "index.removes.declined",
    "session.advances",
    "session.degraded.entered",
    "session.healed",
    "session.inserts",
    "session.points_inserted",
    "session.points_removed",
    "session.removes",
    "session.runs",
    "session.sweep_entries",
    "session.sweeps",
    "snapshot.publishes",
    "snapshot.query_batches",
    "snapshot.reads",
    "trace.dropped_events",
};

constexpr const char* kGaugeNames[kNumGauges] = {
    "session.health.degraded",
    "session.live_points",
    "session.pending_mutations",
};

constexpr const char* kHistogramNames[kNumHistograms] = {
    "mutation.latency",
    "query_batch.latency",
    "run.latency",
    "snapshot.read.latency",
    "sweep.latency",
};

struct HistogramCells {
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets{};
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum_ns{0};
  std::atomic<std::uint64_t> min_ns{std::numeric_limits<std::uint64_t>::max()};
  std::atomic<std::uint64_t> max_ns{0};
};

struct TraceEvent {
  const char* site = nullptr;
  std::uint64_t begin_ns = 0;
  std::uint64_t dur_ns = 0;
};

// One ring per recording thread, preallocated at that thread's first span
// so the warm path never allocates.  The per-thread mutex is uncontended on
// the push path (only a drain ever takes it from another thread), so the
// cost is a futex-free lock/unlock pair per span — and spans sit at serial
// boundaries, never in per-query code.
struct ThreadTrace {
  ThreadTrace(std::uint32_t tid_in, std::size_t capacity) : tid(tid_in) {
    ring.resize(capacity);
  }
  Mutex mu;
  std::vector<TraceEvent> ring RTD_GUARDED_BY(mu);
  std::uint64_t pushed RTD_GUARDED_BY(mu) = 0;  // ring slot = pushed % size
  std::uint32_t tid;
};

struct State {
  std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
  std::array<std::atomic<std::int64_t>, kNumGauges> gauges{};
  std::array<HistogramCells, kNumHistograms> histograms{};

  Mutex trace_mu;
  // Leaked per-thread rings (a ring outlives its thread so late drains stay
  // safe); bounded by the number of span-recording threads.
  std::vector<ThreadTrace*> threads RTD_GUARDED_BY(trace_mu);
  std::uint32_t next_tid RTD_GUARDED_BY(trace_mu) = 1;
};

std::atomic<std::size_t> g_ring_capacity{8192};

State& state() {
  static State* s = [] {
    auto* st = new State();  // leaked: outlives all static destructors
    return st;
  }();
  return *s;
}

std::size_t bucket_for_ns(std::uint64_t dur_ns) noexcept {
  // Bucket b covers durations <= 2^b microseconds.
  std::uint64_t bound_ns = 1000;
  for (std::size_t b = 0; b + 1 < kHistogramBuckets; ++b) {
    if (dur_ns <= bound_ns) return b;
    bound_ns <<= 1;
  }
  return kHistogramBuckets - 1;  // +inf overflow
}

void atomic_min(std::atomic<std::uint64_t>& cell, std::uint64_t v) noexcept {
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (v < cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::uint64_t>& cell, std::uint64_t v) noexcept {
  std::uint64_t cur = cell.load(std::memory_order_relaxed);
  while (v > cur &&
         !cell.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void append_double(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

const char* name(Counter c) noexcept {
  const auto i = static_cast<std::size_t>(c);
  return i < kNumCounters ? kCounterNames[i] : "?";
}

const char* name(Gauge g) noexcept {
  const auto i = static_cast<std::size_t>(g);
  return i < kNumGauges ? kGaugeNames[i] : "?";
}

const char* name(Histogram h) noexcept {
  const auto i = static_cast<std::size_t>(h);
  return i < kNumHistograms ? kHistogramNames[i] : "?";
}

double histogram_bucket_bound_seconds(std::size_t bucket) noexcept {
  if (bucket + 1 >= kHistogramBuckets) {
    return std::numeric_limits<double>::infinity();
  }
  return static_cast<double>(std::uint64_t{1} << bucket) * 1e-6;
}

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    cumulative += buckets[b];
    if (cumulative >= target) {
      return b + 1 == kHistogramBuckets ? max_seconds
                                        : histogram_bucket_bound_seconds(b);
    }
  }
  return max_seconds;
}

// The public entry points pass the env gate first, so an env spec can
// never land after (and override) a programmatic call.
void arm(unsigned modes) {
  if (modes == 0 || (modes & ~(kMetrics | kTrace)) != 0) {
    throw std::invalid_argument(
        "telemetry: arm() takes an OR of kMetrics / kTrace");
  }
  (void)stage::armed();
  stage::detail::g_armed.fetch_or(modes, std::memory_order_relaxed);
}

void arm_spec(std::string_view spec) {
  (void)stage::armed();
  detail::apply_spec(spec);
}

void disarm_all() noexcept {
  (void)stage::armed();
  stage::detail::g_armed.fetch_and(~(kMetrics | kTrace),
                                   std::memory_order_relaxed);
}

MetricsSnapshot snapshot() {
  MetricsSnapshot out;
  State& s = state();
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    out.counters[i] = s.counters[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    out.gauges[i] = s.gauges[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const HistogramCells& cells = s.histograms[i];
    HistogramSnapshot& h = out.histograms[i];
    h.count = cells.count.load(std::memory_order_relaxed);
    h.sum_seconds =
        static_cast<double>(cells.sum_ns.load(std::memory_order_relaxed)) *
        1e-9;
    const std::uint64_t mn = cells.min_ns.load(std::memory_order_relaxed);
    h.min_seconds =
        mn == std::numeric_limits<std::uint64_t>::max()
            ? 0.0
            : static_cast<double>(mn) * 1e-9;
    h.max_seconds =
        static_cast<double>(cells.max_ns.load(std::memory_order_relaxed)) *
        1e-9;
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      h.buckets[b] = cells.buckets[b].load(std::memory_order_relaxed);
    }
  }
  return out;
}

std::string to_json() {
  const MetricsSnapshot snap = snapshot();
  std::string out = "{\"counters\":{";
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kCounterNames[i];
    out += "\":";
    out += std::to_string(snap.counters[i]);
  }
  out += "},\"gauges\":{";
  for (std::size_t i = 0; i < kNumGauges; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += kGaugeNames[i];
    out += "\":";
    out += std::to_string(snap.gauges[i]);
  }
  out += "},\"histogram_bucket_upper_us\":[";
  for (std::size_t b = 0; b + 1 < kHistogramBuckets; ++b) {
    if (b != 0) out += ',';
    out += std::to_string(std::uint64_t{1} << b);
  }
  out += "],\"histograms\":{";
  for (std::size_t i = 0; i < kNumHistograms; ++i) {
    const HistogramSnapshot& h = snap.histograms[i];
    if (i != 0) out += ',';
    out += '"';
    out += kHistogramNames[i];
    out += "\":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum_s\":";
    append_double(out, h.sum_seconds);
    out += ",\"min_s\":";
    append_double(out, h.min_seconds);
    out += ",\"max_s\":";
    append_double(out, h.max_seconds);
    out += ",\"p50_s\":";
    append_double(out, h.quantile(0.5));
    out += ",\"p99_s\":";
    append_double(out, h.quantile(0.99));
    out += ",\"buckets\":[";
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      if (b != 0) out += ',';
      out += std::to_string(h.buckets[b]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void reset() noexcept {
  State& s = state();
  for (auto& c : s.counters) c.store(0, std::memory_order_relaxed);
  for (auto& g : s.gauges) g.store(0, std::memory_order_relaxed);
  for (auto& h : s.histograms) {
    for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    h.count.store(0, std::memory_order_relaxed);
    h.sum_ns.store(0, std::memory_order_relaxed);
    h.min_ns.store(std::numeric_limits<std::uint64_t>::max(),
                   std::memory_order_relaxed);
    h.max_ns.store(0, std::memory_order_relaxed);
  }
  const MutexLock lock(s.trace_mu);
  for (ThreadTrace* t : s.threads) {
    const MutexLock tl(t->mu);
    t->pushed = 0;
  }
}

std::string trace_json() {
  State& s = state();
  std::vector<TraceEvent> events;
  std::vector<std::uint32_t> tids;
  std::uint64_t dropped = 0;
  {
    const MutexLock lock(s.trace_mu);
    for (ThreadTrace* t : s.threads) {
      const MutexLock tl(t->mu);
      const std::uint64_t cap = t->ring.size();
      const std::uint64_t live = std::min<std::uint64_t>(t->pushed, cap);
      if (t->pushed > cap) dropped += t->pushed - cap;
      const std::uint64_t first = t->pushed - live;
      for (std::uint64_t k = 0; k < live; ++k) {
        events.push_back(
            t->ring[static_cast<std::size_t>((first + k) % cap)]);
        tids.push_back(t->tid);
      }
      t->pushed = 0;  // drained: the events are consumed
    }
  }
  if (dropped != 0) {
    s.counters[static_cast<std::size_t>(Counter::kTraceDroppedEvents)]
        .fetch_add(dropped, std::memory_order_relaxed);
  }

  // Chronological order reads better in the viewer; sort a permutation so
  // the tids stay paired with their events.
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return events[a].begin_ns < events[b].begin_ns;
  });

  std::string out = "{\"traceEvents\":[";
  bool first_event = true;
  for (const std::size_t i : order) {
    const TraceEvent& e = events[i];
    if (!first_event) out += ',';
    first_event = false;
    out += "{\"name\":\"";
    out += e.site;
    out += "\",\"cat\":\"rtd\",\"ph\":\"X\",\"ts\":";
    append_double(out, static_cast<double>(e.begin_ns) * 1e-3);
    out += ",\"dur\":";
    append_double(out, static_cast<double>(e.dur_ns) * 1e-3);
    out += ",\"pid\":1,\"tid\":";
    out += std::to_string(tids[i]);
    out += '}';
  }
  out += "],\"displayTimeUnit\":\"ms\"}";
  return out;
}

void write_trace(const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("telemetry: cannot open trace file: " + path);
  }
  out << trace_json() << '\n';
  if (!out.flush()) {
    throw std::runtime_error("telemetry: short write to trace file: " + path);
  }
}

namespace detail {

void apply_spec(std::string_view spec) {
  unsigned modes = 0;
  std::string_view rest = spec;
  while (!rest.empty()) {
    const std::size_t sep = rest.find_first_of(";,");
    std::string_view token = rest.substr(0, sep);
    rest = sep == std::string_view::npos ? std::string_view{}
                                         : rest.substr(sep + 1);
    if (token.empty()) continue;
    if (token == "metrics") {
      modes |= kMetrics;
    } else if (token == "trace") {
      modes |= kTrace;
    } else if (token == "on" || token == "all" || token == "1") {
      modes |= kMetrics | kTrace;
    } else if (token.rfind("ring:", 0) == 0) {
      const std::uint64_t cap =
          stage::detail::parse_count(token.substr(5), "RTDBSCAN_TELEMETRY");
      g_ring_capacity.store(
          std::clamp<std::size_t>(static_cast<std::size_t>(cap), 16,
                                  std::size_t{1} << 22),
          std::memory_order_relaxed);
    } else {
      throw std::invalid_argument("RTDBSCAN_TELEMETRY: unknown token '" +
                                  std::string(token) + "'");
    }
  }
  stage::detail::g_armed.fetch_or(modes, std::memory_order_relaxed);
}

void add(Counter c, std::uint64_t delta) noexcept {
  state().counters[static_cast<std::size_t>(c)].fetch_add(
      delta, std::memory_order_relaxed);
}

void set(Gauge g, std::int64_t value) noexcept {
  state().gauges[static_cast<std::size_t>(g)].store(
      value, std::memory_order_relaxed);
}

void record(Histogram h, double seconds) noexcept {
  const auto ns = seconds > 0.0
                      ? static_cast<std::uint64_t>(seconds * 1e9)
                      : 0;
  HistogramCells& cells = state().histograms[static_cast<std::size_t>(h)];
  cells.buckets[bucket_for_ns(ns)].fetch_add(1, std::memory_order_relaxed);
  cells.count.fetch_add(1, std::memory_order_relaxed);
  cells.sum_ns.fetch_add(ns, std::memory_order_relaxed);
  atomic_min(cells.min_ns, ns);
  atomic_max(cells.max_ns, ns);
}

std::uint64_t now_ns() noexcept {
  // Same steady_clock as common/timer.hpp (the RunStats clock), re-based to
  // a process-local epoch so trace timestamps start near zero.
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {

// Per-thread ring pointer; spans record at serial boundaries on the
// calling thread, so this never aliases across an OMP worker lambda.
thread_local ThreadTrace* t_trace = nullptr;

ThreadTrace* register_thread() {  // the one cold allocation per thread
  State& s = state();
  const MutexLock lock(s.trace_mu);
  auto* t = new ThreadTrace(s.next_tid++,
                            g_ring_capacity.load(std::memory_order_relaxed));
  s.threads.push_back(t);
  return t;
}

}  // namespace

void span_end(const char* site, std::uint64_t begin_ns) noexcept {
  ThreadTrace* t = t_trace;
  if (t == nullptr) {
    try {
      t = t_trace = register_thread();
    } catch (...) {
      return;  // allocation failed: drop the event, never throw from a dtor
    }
  }
  const std::uint64_t end_ns = now_ns();
  const MutexLock lock(t->mu);
  TraceEvent& e =
      t->ring[static_cast<std::size_t>(t->pushed % t->ring.size())];
  e.site = site;
  e.begin_ns = begin_ns;
  e.dur_ns = end_ns >= begin_ns ? end_ns - begin_ns : 0;
  ++t->pushed;
}

}  // namespace detail

}  // namespace rtd::telemetry
