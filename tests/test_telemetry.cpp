// Unit tests for the telemetry registry itself: env-var activation, counter
// / gauge / histogram semantics, Chrome trace drain, and a concurrent soak.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stage.hpp"
#include "core/clusterer.hpp"
#include "data/generators.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd {
namespace {

// --- minimal JSON validity checker -------------------------------------------
// Enough of RFC 8259 to certify that to_json() / trace_json() emit documents
// a real parser accepts: objects, arrays, strings (with escapes), numbers,
// true/false/null, and nothing trailing.  Returns the offset past the parsed
// value, or npos on a syntax error.

std::size_t skip_ws(const std::string& s, std::size_t i) {
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r')) {
    ++i;
  }
  return i;
}

std::size_t parse_value(const std::string& s, std::size_t i);

std::size_t parse_string(const std::string& s, std::size_t i) {
  if (i >= s.size() || s[i] != '"') return std::string::npos;
  ++i;
  while (i < s.size() && s[i] != '"') {
    if (s[i] == '\\') {
      if (i + 1 >= s.size()) return std::string::npos;
      i += 2;
    } else {
      ++i;
    }
  }
  return i < s.size() ? i + 1 : std::string::npos;
}

std::size_t parse_number(const std::string& s, std::size_t i) {
  const std::size_t start = i;
  if (i < s.size() && s[i] == '-') ++i;
  while (i < s.size() && (std::isdigit(static_cast<unsigned char>(s[i])) ||
                          s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                          s[i] == '+' || s[i] == '-')) {
    ++i;
  }
  return i > start ? i : std::string::npos;
}

std::size_t parse_container(const std::string& s, std::size_t i, char close,
                            bool keyed) {
  ++i;  // past the opener
  i = skip_ws(s, i);
  if (i < s.size() && s[i] == close) return i + 1;
  for (;;) {
    if (keyed) {
      i = parse_string(s, skip_ws(s, i));
      if (i == std::string::npos) return std::string::npos;
      i = skip_ws(s, i);
      if (i >= s.size() || s[i] != ':') return std::string::npos;
      ++i;
    }
    i = parse_value(s, i);
    if (i == std::string::npos) return std::string::npos;
    i = skip_ws(s, i);
    if (i < s.size() && s[i] == ',') {
      ++i;
      continue;
    }
    if (i < s.size() && s[i] == close) return i + 1;
    return std::string::npos;
  }
}

std::size_t parse_value(const std::string& s, std::size_t i) {
  i = skip_ws(s, i);
  if (i >= s.size()) return std::string::npos;
  switch (s[i]) {
    case '{':
      return parse_container(s, i, '}', /*keyed=*/true);
    case '[':
      return parse_container(s, i, ']', /*keyed=*/false);
    case '"':
      return parse_string(s, i);
    case 't':
      return s.compare(i, 4, "true") == 0 ? i + 4 : std::string::npos;
    case 'f':
      return s.compare(i, 5, "false") == 0 ? i + 5 : std::string::npos;
    case 'n':
      return s.compare(i, 4, "null") == 0 ? i + 4 : std::string::npos;
    default:
      return parse_number(s, i);
  }
}

::testing::AssertionResult is_valid_json(const std::string& doc) {
  const std::size_t end = parse_value(doc, 0);
  if (end == std::string::npos) {
    return ::testing::AssertionFailure() << "JSON syntax error in: " << doc;
  }
  if (skip_ws(doc, end) != doc.size()) {
    return ::testing::AssertionFailure()
           << "trailing garbage at offset " << end << " in: " << doc;
  }
  return ::testing::AssertionSuccess();
}

// -----------------------------------------------------------------------------

// The stage gate parses RTDBSCAN_TELEMETRY exactly once, at the first
// stage check of the process.  Setting the variable from a static
// initializer guarantees it is in place before any test touches the
// registry; the env test below must therefore stay the FIRST test
// registered in this file.
const bool g_env_spec_set = [] {
  ::setenv("RTDBSCAN_TELEMETRY", "metrics", 1);
  return true;
}();

TEST(TelemetryEnv, SpecIsParsedLazilyAndArmsMetrics) {
  ASSERT_TRUE(g_env_spec_set);
  // The first update triggers the lazy parse; "metrics" arms the metric
  // updates but not the spans.
  telemetry::count(telemetry::Counter::kSessionRuns, 3);
  EXPECT_TRUE(telemetry::metrics_armed());
  EXPECT_FALSE(telemetry::trace_armed());
  EXPECT_GE(telemetry::snapshot().counter(telemetry::Counter::kSessionRuns),
            3u);
  telemetry::disarm_all();
  telemetry::reset();
}

TEST(Telemetry, NameTablesMatchEnumOrder) {
  // Each name block is sorted and the enum order mirrors it, so a new
  // metric slotted out of order is caught here.
  std::vector<std::string> counters;
  for (std::size_t i = 0; i < telemetry::kNumCounters; ++i) {
    counters.emplace_back(
        telemetry::name(static_cast<telemetry::Counter>(i)));
  }
  EXPECT_TRUE(std::is_sorted(counters.begin(), counters.end()));
  EXPECT_EQ(counters.end(), std::adjacent_find(counters.begin(),
                                               counters.end()));
  EXPECT_EQ(std::string("session.runs"),
            telemetry::name(telemetry::Counter::kSessionRuns));
  EXPECT_EQ(std::string("session.live_points"),
            telemetry::name(telemetry::Gauge::kSessionLivePoints));
  EXPECT_EQ(std::string("mutation.latency"),
            telemetry::name(telemetry::Histogram::kMutationLatency));
  EXPECT_STRNE("?", telemetry::name(
                        static_cast<telemetry::Gauge>(
                            telemetry::kNumGauges - 1)));
  EXPECT_STRNE("?", telemetry::name(
                        static_cast<telemetry::Histogram>(
                            telemetry::kNumHistograms - 1)));
}

TEST(Telemetry, SpanSiteListIsSortedAndUnique) {
  // Every stage of the one table records a span when tracing is armed.
  const auto& sites = stage::all_sites();
  ASSERT_FALSE(sites.empty());
  for (std::size_t i = 1; i < sites.size(); ++i) {
    EXPECT_LT(sites[i - 1], sites[i]);
  }
  telemetry::arm(telemetry::kTrace);
  (void)telemetry::trace_json();  // start every ring empty
  for (const auto& site : sites) {
    const stage::Scope scope(site.c_str());
  }
  const std::string trace = telemetry::trace_json();
  telemetry::disarm_all();
  ASSERT_TRUE(is_valid_json(trace));
  for (const auto& site : sites) {
    EXPECT_NE(trace.find("\"name\":\"" + site + "\""), std::string::npos)
        << site;
  }
}

TEST(Telemetry, HistogramBucketGeometry) {
  // Bucket b covers durations <= 2^b microseconds; the last is +inf.
  EXPECT_DOUBLE_EQ(telemetry::histogram_bucket_bound_seconds(0), 1e-6);
  EXPECT_DOUBLE_EQ(telemetry::histogram_bucket_bound_seconds(10),
                   1024.0 * 1e-6);
  EXPECT_TRUE(std::isinf(telemetry::histogram_bucket_bound_seconds(
      telemetry::kHistogramBuckets - 1)));
}

class TelemetryArmed : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::disarm_all();
    telemetry::reset();
    telemetry::arm(telemetry::kMetrics);
  }
  void TearDown() override {
    telemetry::disarm_all();
    telemetry::reset();
  }
};

TEST_F(TelemetryArmed, CounterAndGaugeSemantics) {
  using telemetry::Counter;
  using telemetry::Gauge;
  telemetry::count(Counter::kSessionInserts);
  telemetry::count(Counter::kSessionInserts, 4);
  telemetry::gauge_set(Gauge::kSessionLivePoints, 100);
  telemetry::gauge_set(Gauge::kSessionLivePoints, 60);  // last value wins
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counter(Counter::kSessionInserts), 5u);
  EXPECT_EQ(snap.gauge(Gauge::kSessionLivePoints), 60);
  EXPECT_EQ(snap.counter(Counter::kSessionRemoves), 0u);
}

TEST_F(TelemetryArmed, HistogramSemanticsAndQuantiles) {
  using telemetry::Histogram;
  // 2us, 3us -> bucket 1 (<= 2us) and bucket 2 (<= 4us); 3ms -> bucket 12.
  telemetry::observe(Histogram::kRunLatency, 2e-6);
  telemetry::observe(Histogram::kRunLatency, 3e-6);
  telemetry::observe(Histogram::kRunLatency, 3e-3);
  const auto snap = telemetry::snapshot();
  const auto& h = snap.histogram(Histogram::kRunLatency);
  EXPECT_EQ(h.count, 3u);
  EXPECT_NEAR(h.sum_seconds, 2e-6 + 3e-6 + 3e-3, 1e-9);
  EXPECT_NEAR(h.min_seconds, 2e-6, 1e-9);
  EXPECT_NEAR(h.max_seconds, 3e-3, 1e-9);
  EXPECT_EQ(h.buckets[1], 1u);
  EXPECT_EQ(h.buckets[2], 1u);
  EXPECT_EQ(h.buckets[12], 1u);
  // Quantiles report bucket upper bounds; the median of {2us, 3us, 3ms}
  // lands in bucket 2 (<= 4us), and p99 in the 3ms bucket (<= 4.096ms).
  EXPECT_DOUBLE_EQ(h.quantile(0.5),
                   telemetry::histogram_bucket_bound_seconds(2));
  EXPECT_DOUBLE_EQ(h.quantile(0.99),
                   telemetry::histogram_bucket_bound_seconds(12));
  EXPECT_DOUBLE_EQ(h.quantile(0.0),
                   telemetry::histogram_bucket_bound_seconds(1));
}

TEST_F(TelemetryArmed, DisarmedUpdatesAreDropped) {
  telemetry::count(telemetry::Counter::kSessionRuns);
  telemetry::disarm_all();
  telemetry::count(telemetry::Counter::kSessionRuns, 100);
  telemetry::observe(telemetry::Histogram::kRunLatency, 1.0);
  { RTD_STAGE("session.run"); }
  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counter(telemetry::Counter::kSessionRuns), 1u);
  EXPECT_EQ(snap.histogram(telemetry::Histogram::kRunLatency).count, 0u);
}

TEST_F(TelemetryArmed, ArmSpecGrammar) {
  EXPECT_THROW(telemetry::arm(0), std::invalid_argument);
  EXPECT_THROW(telemetry::arm(~0u), std::invalid_argument);
  EXPECT_THROW(telemetry::arm_spec("bogus"), std::invalid_argument);
  EXPECT_THROW(telemetry::arm_spec("ring:"), std::invalid_argument);
  // Capacities are whole digit tokens: no sign wrapping to a huge cap, no
  // trailing garbage.
  EXPECT_THROW(telemetry::arm_spec("ring:-5"), std::invalid_argument);
  EXPECT_THROW(telemetry::arm_spec("ring:64k"), std::invalid_argument);
  telemetry::disarm_all();
  telemetry::arm_spec("trace");
  EXPECT_TRUE(telemetry::trace_armed());
  EXPECT_FALSE(telemetry::metrics_armed());
  telemetry::arm_spec("on");
  EXPECT_TRUE(telemetry::metrics_armed());
}

TEST_F(TelemetryArmed, ToJsonIsValidAndNamesEveryMetric) {
  telemetry::count(telemetry::Counter::kSessionRuns, 7);
  telemetry::observe(telemetry::Histogram::kRunLatency, 1.5e-3);
  const std::string doc = telemetry::to_json();
  ASSERT_TRUE(is_valid_json(doc));
  for (std::size_t i = 0; i < telemetry::kNumCounters; ++i) {
    EXPECT_NE(doc.find(telemetry::name(static_cast<telemetry::Counter>(i))),
              std::string::npos);
  }
  EXPECT_NE(doc.find("\"session.runs\":7"), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
}

TEST_F(TelemetryArmed, FullCycleDrainsValidChromeTrace) {
  // The acceptance drill: a run / mutate / sweep / serve cycle on a real
  // session with spans armed must drain one valid Chrome trace-event
  // document covering the serial boundaries it crossed.
  telemetry::arm(telemetry::kMetrics | telemetry::kTrace);
  (void)telemetry::trace_json();  // drop spans recorded by earlier tests

  const auto dataset = data::taxi_gps(2000, 99);
  Clusterer session(std::span<const geom::Vec3>(dataset.points)
                        .subspan(0, 1500));
  (void)session.run(0.15f, 5);
  (void)session.insert(std::span<const geom::Vec3>(dataset.points)
                           .subspan(1500, 64));
  const std::vector<std::uint32_t> doomed = {1500, 1501, 1502};
  session.remove(doomed);
  (void)session.advance(std::span<const geom::Vec3>(dataset.points)
                            .subspan(1564, 64),
                        64);
  const std::vector<float> eps_grid = {0.1f, 0.15f, 0.2f};
  const auto sweep = session.sweep(eps_grid, 5);
  ASSERT_FALSE(sweep.empty());
  const auto snap_ptr = session.snapshot();
  std::vector<std::uint32_t> ids;
  snap_ptr->query_neighbors_into(dataset.points[0], snap_ptr->eps(), 0, ids);
  BatchQueryResult batch;
  snap_ptr->query_batch_into(
      std::span<const geom::Vec3>(dataset.points.data(), 256),
      snap_ptr->eps(), /*threads=*/1, batch);

  const telemetry::MetricsSnapshot m = session.metrics();
  EXPECT_GE(m.counter(telemetry::Counter::kSessionRuns), 1u);
  EXPECT_GE(m.counter(telemetry::Counter::kSessionInserts), 1u);
  EXPECT_GE(m.counter(telemetry::Counter::kSessionRemoves), 1u);
  EXPECT_GE(m.counter(telemetry::Counter::kSessionAdvances), 1u);
  EXPECT_GE(m.counter(telemetry::Counter::kSessionSweeps), 1u);
  EXPECT_GE(m.counter(telemetry::Counter::kSnapshotPublishes), 1u);
  EXPECT_GE(m.histogram(telemetry::Histogram::kRunLatency).count, 1u);
  EXPECT_GE(m.histogram(telemetry::Histogram::kMutationLatency).count, 3u);
  EXPECT_GT(m.gauge(telemetry::Gauge::kSessionLivePoints), 0);

  const std::string trace = telemetry::trace_json();
  ASSERT_TRUE(is_valid_json(trace));
  for (const char* site : {"session.run", "session.insert", "session.remove",
                           "session.advance", "session.sweep",
                           "session.publish", "index.build"}) {
    EXPECT_NE(trace.find(std::string("\"name\":\"") + site + "\""),
              std::string::npos)
        << "span site missing from the drained trace: " << site;
  }
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  // Draining consumed the events: a second drain is empty.
  EXPECT_NE(telemetry::trace_json().find("\"traceEvents\":[]"),
            std::string::npos);
}

/// One complete ("X") event of a drained Chrome trace.
struct Span {
  std::string name;
  double begin_us = 0.0;
  double end_us = 0.0;
};

std::vector<Span> parse_spans(const std::string& trace) {
  std::vector<Span> spans;
  const std::string open = "{\"name\":\"";
  for (std::size_t at = trace.find(open); at != std::string::npos;
       at = trace.find(open, at + 1)) {
    const std::size_t b = at + open.size();
    Span sp;
    sp.name = trace.substr(b, trace.find('"', b) - b);
    sp.begin_us =
        std::strtod(trace.c_str() + trace.find("\"ts\":", b) + 5, nullptr);
    sp.end_us = sp.begin_us + std::strtod(trace.c_str() +
                                              trace.find("\"dur\":", b) + 6,
                                          nullptr);
    spans.push_back(sp);
  }
  return spans;
}

TEST_F(TelemetryArmed, SweepIsOneFusedLaunch) {
  // A sweep is one fused count-and-cluster launch at the ladder's ε_max
  // whatever its length: one engine.fused span inside session.sweep, and no
  // engine.phase1 or engine.phase2 launch.  An ascending ladder ends at
  // ε_max and refits nothing; any other ladder refits once, when it
  // retargets the index to its last ε.
  telemetry::arm(telemetry::kMetrics | telemetry::kTrace);
  const auto dataset = data::taxi_gps(3000, 99);
  Clusterer session(dataset.points, Options()
                                        .with_backend(index::IndexKind::kBvhRt)
                                        .with_threads(1));
  struct Case {
    std::vector<float> ladder;
    std::uint64_t refits;
  };
  const std::vector<Case> cases = {
      {{0.15f, 0.2f, 0.25f, 0.3f}, 0},
      {{0.3f, 0.25f, 0.2f, 0.15f}, 1},
      {{0.2f, 0.3f, 0.1f, 0.2f, 0.15f, 0.25f, 0.12f, 0.3f, 0.18f}, 1},
      {{0.3f}, 0}};
  const auto counter = [&](telemetry::Counter c) {
    return session.metrics().counter(c);
  };
  for (const Case& c : cases) {
    (void)session.run(0.3f, 5);     // the index starts at ε_max
    (void)telemetry::trace_json();  // keep only the sweep below
    const std::uint64_t fused =
        counter(telemetry::Counter::kEngineFusedLaunches);
    const std::uint64_t phase1 =
        counter(telemetry::Counter::kEnginePhase1Launches);
    const std::uint64_t phase2 =
        counter(telemetry::Counter::kEnginePhase2Launches);
    const std::uint64_t refits = counter(telemetry::Counter::kIndexRefits);
    const auto curve = session.sweep(c.ladder, 5);
    ASSERT_EQ(curve.size(), c.ladder.size());
    const std::string what = std::to_string(c.ladder.size()) + " values";
    EXPECT_EQ(counter(telemetry::Counter::kEngineFusedLaunches), fused + 1)
        << what;
    EXPECT_EQ(counter(telemetry::Counter::kEnginePhase1Launches), phase1)
        << what;
    EXPECT_EQ(counter(telemetry::Counter::kEnginePhase2Launches), phase2)
        << what;
    EXPECT_EQ(counter(telemetry::Counter::kIndexRefits), refits + c.refits)
        << what;

    const std::string trace = telemetry::trace_json();
    ASSERT_TRUE(is_valid_json(trace));
    const std::vector<Span> spans = parse_spans(trace);
    const auto sweep =
        std::find_if(spans.begin(), spans.end(),
                     [](const Span& sp) { return sp.name == "session.sweep"; });
    ASSERT_NE(sweep, spans.end()) << what;
    const double slack_us = 1.0;  // the JSON prints 9 significant digits
    for (const auto& [site, want] :
         {std::pair<const char*, std::uint64_t>{"engine.fused", 1},
          {"engine.phase1", 0},
          {"engine.phase2", 0},
          {"index.refit", c.refits}}) {
      std::uint64_t inside = 0;
      for (const Span& sp : spans) {
        if (sp.name != site) continue;
        EXPECT_GE(sp.begin_us, sweep->begin_us - slack_us) << site;
        EXPECT_LE(sp.end_us, sweep->end_us + slack_us) << site;
        ++inside;
      }
      EXPECT_EQ(inside, want) << what << ": " << site;
    }
  }
}

TEST_F(TelemetryArmed, ColdRunIsOneFusedLaunch) {
  // run() at a fresh ε counts and clusters in ONE launch: one engine.fused
  // span inside session.run and no phase-1 or phase-2 launch.  A
  // minPts-only rerun reuses the counts and runs phase 2 alone.
  telemetry::arm(telemetry::kMetrics | telemetry::kTrace);
  const auto dataset = data::taxi_gps(3000, 98);
  const auto counter = [](const Clusterer& s, telemetry::Counter c) {
    return s.metrics().counter(c);
  };
  const auto spans_inside_run = [](const std::string& trace,
                                   const char* site) {
    const std::vector<Span> spans = parse_spans(trace);
    const auto run =
        std::find_if(spans.begin(), spans.end(),
                     [](const Span& sp) { return sp.name == "session.run"; });
    EXPECT_NE(run, spans.end());
    const double slack_us = 1.0;  // the JSON prints 9 significant digits
    std::uint64_t inside = 0;
    for (const Span& sp : spans) {
      if (sp.name == site && run != spans.end() &&
          sp.begin_us >= run->begin_us - slack_us &&
          sp.end_us <= run->end_us + slack_us) {
        ++inside;
      }
    }
    return inside;
  };
  struct Launches {
    std::uint64_t fused, phase1, phase2;
  };
  const auto launches = [&](const Clusterer& s) {
    return Launches{counter(s, telemetry::Counter::kEngineFusedLaunches),
                    counter(s, telemetry::Counter::kEnginePhase1Launches),
                    counter(s, telemetry::Counter::kEnginePhase2Launches)};
  };

  Clusterer session(dataset.points, Options()
                                        .with_backend(index::IndexKind::kBvhRt)
                                        .with_threads(1));
  (void)telemetry::trace_json();  // keep only the run below
  Launches before = launches(session);
  (void)session.run(0.2f, 5);
  std::string trace = telemetry::trace_json();
  ASSERT_TRUE(is_valid_json(trace));
  Launches after = launches(session);
  EXPECT_EQ(after.fused, before.fused + 1);
  EXPECT_EQ(after.phase1, before.phase1);
  EXPECT_EQ(after.phase2, before.phase2);
  EXPECT_EQ(spans_inside_run(trace, "engine.fused"), 1u);
  EXPECT_EQ(spans_inside_run(trace, "engine.phase1"), 0u);
  EXPECT_EQ(spans_inside_run(trace, "engine.phase2"), 0u);

  before = after;
  (void)session.run(0.2f, 9);
  trace = telemetry::trace_json();
  after = launches(session);
  EXPECT_EQ(after.fused, before.fused);
  EXPECT_EQ(after.phase2, before.phase2 + 1);
  EXPECT_EQ(spans_inside_run(trace, "engine.phase2"), 1u);
  EXPECT_EQ(spans_inside_run(trace, "engine.fused"), 0u);
}

TEST_F(TelemetryArmed, AdvanceTraceSplitsTheRepairIntoStages) {
  // One advance() must show where its label repair went: a span per
  // repair stage, each inside the session.repair span.
  telemetry::arm(telemetry::kMetrics | telemetry::kTrace);
  const auto dataset = data::taxi_gps(1600, 99);
  const std::span<const geom::Vec3> all(dataset.points);
  Clusterer session(all.subspan(0, 1500));
  (void)session.run(0.15f, 5);
  (void)telemetry::trace_json();  // keep only the advance below
  (void)session.advance(all.subspan(1500, 64), 64);

  const std::string trace = telemetry::trace_json();
  ASSERT_TRUE(is_valid_json(trace));
  const std::vector<Span> spans = parse_spans(trace);
  const auto named = [&](const std::string& name) {
    return std::find_if(spans.begin(), spans.end(),
                        [&](const Span& sp) { return sp.name == name; });
  };
  const auto repair = named("session.repair");
  ASSERT_NE(repair, spans.end());
  const double slack_us = 1.0;  // the JSON prints 9 significant digits
  for (const char* stage : {"repair.touch", "repair.split", "repair.union",
                            "repair.border", "repair.relabel",
                            "repair.commit"}) {
    const auto it = named(stage);
    ASSERT_NE(it, spans.end()) << stage;
    EXPECT_GE(it->begin_us, repair->begin_us - slack_us) << stage;
    EXPECT_LE(it->end_us, repair->end_us + slack_us) << stage;
  }
}

TEST_F(TelemetryArmed, RingOverflowEvictsOldestAndCountsDrops) {
  telemetry::arm_spec("trace;ring:16");
  (void)telemetry::trace_json();  // start every ring empty
  // A fresh thread gets the 16-event ring; 40 spans overflow it by 24.
  std::thread recorder([] {
    for (int i = 0; i < 40; ++i) {
      RTD_STAGE("session.run");
    }
  });
  recorder.join();
  const std::string trace = telemetry::trace_json();
  EXPECT_TRUE(is_valid_json(trace));
  EXPECT_GE(telemetry::snapshot().counter(
                telemetry::Counter::kTraceDroppedEvents),
            24u);
}

TEST_F(TelemetryArmed, TelemetryConcurrentSoak) {
  // Hammer the registry from writer threads while a reader drains snapshots
  // and traces; run under TSan in CI.  The counters must balance exactly.
  telemetry::arm(telemetry::kMetrics | telemetry::kTrace);
  (void)telemetry::trace_json();
  constexpr int kWriters = 4;
  constexpr std::uint64_t kIters = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)telemetry::snapshot();
      (void)telemetry::to_json();
      (void)telemetry::trace_json();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([w] {
      for (std::uint64_t i = 0; i < kIters; ++i) {
        telemetry::count(telemetry::Counter::kSnapshotReads);
        telemetry::gauge_set(telemetry::Gauge::kSessionPendingMutations,
                             static_cast<std::int64_t>(i));
        telemetry::observe(telemetry::Histogram::kSnapshotReadLatency,
                           static_cast<double>(w + 1) * 1e-6);
        RTD_STAGE("snapshot.query_batch");
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const auto snap = telemetry::snapshot();
  EXPECT_EQ(snap.counter(telemetry::Counter::kSnapshotReads),
            kWriters * kIters);
  const auto& h =
      snap.histogram(telemetry::Histogram::kSnapshotReadLatency);
  EXPECT_EQ(h.count, kWriters * kIters);
  EXPECT_NEAR(h.min_seconds, 1e-6, 1e-10);
  EXPECT_NEAR(h.max_seconds, static_cast<double>(kWriters) * 1e-6, 1e-10);
  EXPECT_TRUE(is_valid_json(telemetry::trace_json()));
}

}  // namespace
}  // namespace rtd
