#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <vector>

#include "common/cli.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"

namespace rtd {
namespace {

// Prevents the optimizer from discarding a computed value.
void benchmark_sink(double v) {
  asm volatile("" : : "g"(v) : "memory");
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.next_u64() == b.next_u64());
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(6);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.uniform());
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(Rng, BelowIsBoundedAndCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(8);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalHasExpectedMoments) {
  Rng rng(9);
  RunningStat stat;
  for (int i = 0; i < 200000; ++i) stat.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stat.mean(), 10.0, 0.05);
  EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(10);
  Rng child = a.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    same += (a.next_u64() == child.next_u64());
  }
  EXPECT_EQ(same, 0);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
}

TEST(Percentile, InterpolatesCorrectly) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
  EXPECT_DOUBLE_EQ(median({5.0}), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog",        "positional", "--n",      "100",
                        "--eps=0.5",   "--verbose",  "--threads", "8"};
  Flags flags(8, const_cast<char**>(argv));
  EXPECT_EQ(flags.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(flags.get_double("eps", 0.0), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("threads", 0), 8);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_EQ(flags.program(), "prog");
}

TEST(Flags, BareFlagConsumesFollowingValueToken) {
  // `--verbose positional` is parsed as --verbose=positional: documented
  // behaviour of the value-greedy `--name value` form.
  const char* argv[] = {"prog", "--verbose", "positional"};
  Flags flags(3, const_cast<char**>(argv));
  EXPECT_EQ(flags.get("verbose", ""), "positional");
  EXPECT_TRUE(flags.positional().empty());
}

TEST(Flags, FallbacksWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags flags(1, const_cast<char**>(argv));
  EXPECT_FALSE(flags.has("missing"));
  EXPECT_EQ(flags.get("missing", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("missing", -7), -7);
  EXPECT_DOUBLE_EQ(flags.get_double("missing", 2.5), 2.5);
  EXPECT_FALSE(flags.get_bool("missing", false));
  EXPECT_TRUE(flags.get_bool("missing", true));
}

TEST(Flags, BooleanValueForms) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
}

TEST(Cli, BackendAndWidthFlagsParseShareOneSpelling) {
  // The shared helpers are the single source of truth for the --backend /
  // --width CLI spellings across examples and benches.
  const char* argv[] = {"prog", "--backend", "triangles", "--width", "wide"};
  Flags flags(5, const_cast<char**>(argv));
  EXPECT_EQ(cli::backend_flag(flags), index::IndexKind::kTriangles);
  EXPECT_EQ(cli::width_flag(flags), rt::TraversalWidth::kWide);

  const char* none[] = {"prog"};
  Flags empty(1, const_cast<char**>(none));
  EXPECT_EQ(cli::backend_flag(empty), index::IndexKind::kAuto);
  EXPECT_EQ(cli::backend_flag(empty, index::IndexKind::kGrid),
            index::IndexKind::kGrid);
  EXPECT_EQ(cli::width_flag(empty), rt::TraversalWidth::kAuto);

  const char* bad[] = {"prog", "--backend=kdtree", "--width=quantized"};
  Flags unknown(3, const_cast<char**>(bad));
  EXPECT_EQ(cli::backend_flag(unknown), std::nullopt);
  EXPECT_EQ(cli::width_flag(unknown), std::nullopt);
}

TEST(Table, FormatsCells) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::integer(-42), "-42");
  EXPECT_EQ(Table::speedup(3.609), "3.61x");
  EXPECT_EQ(Table::speedup(2.5), "2.50x");
  EXPECT_EQ(Table::seconds(2.5), "2.500 s");
  EXPECT_EQ(Table::seconds(0.0025), "2.500 ms");
  EXPECT_EQ(Table::seconds(2.5e-6), "2.5 us");
}

TEST(Table, TracksRows) {
  Table t({"a", "b"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1", "2"});
  t.add_row({"3"});  // short rows padded
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  double sink = 0.0;
  for (int i = 0; i < 1000000; ++i) sink += i;
  benchmark_sink(sink);
  EXPECT_GT(t.seconds(), 0.0);
  const double first = t.millis();
  const double second = t.millis();  // non-destructive, monotone reads
  EXPECT_LE(first, second);
  t.restart();
  EXPECT_LT(t.seconds(), 1.0);
}

TEST(ScopedAccumulator, AddsOnDestruction) {
  double sink = 0.0;
  {
    ScopedAccumulator acc(sink);
    double x = 0;
    for (int i = 0; i < 100000; ++i) x += i;
    benchmark_sink(x);
  }
  EXPECT_GT(sink, 0.0);
}

TEST(Parallel, ParallelForCoversAllIndices) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ParallelCountMatchesSequential) {
  const auto count =
      parallel_count(10000, [](std::size_t i) { return i % 3 == 0; });
  std::uint64_t expected = 0;
  for (std::size_t i = 0; i < 10000; ++i) expected += (i % 3 == 0);
  EXPECT_EQ(count, expected);
}

TEST(Parallel, ThreadCountGuardRestores) {
  const int before = hardware_threads();
  {
    ThreadCountGuard guard(2);
    EXPECT_EQ(hardware_threads(), 2);
  }
  EXPECT_EQ(hardware_threads(), before);
}

TEST(Parallel, SingleThreadedIsDeterministic) {
  ThreadCountGuard guard(1);
  std::vector<int> order;
  parallel_for(100, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

}  // namespace
}  // namespace rtd
