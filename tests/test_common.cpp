#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.hpp"
#include "common/flags.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "team_probe.hpp"

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

/// The flags the Flags tests declare.
const std::vector<FlagSpec> kTestFlags = {{"n", "points [100]"},
                                          {"eps", "radius [0.5]"},
                                          {"verbose", "chatty output"},
                                          {"threads", "workers [0]"},
                                          {"a", "a"},
                                          {"b", "b"},
                                          {"c", "c"},
                                          cli::kBackendFlag};

Flags parse(std::vector<const char*> argv) {
  return Flags(static_cast<int>(argv.size()), const_cast<char**>(argv.data()),
               kTestFlags);
}

TEST(Flags, ParsesAllForms) {
  const Flags flags = parse({"prog", "positional", "--n", "100", "--eps=0.5",
                             "--verbose", "--threads", "8"});
  EXPECT_EQ(flags.get_int("n", 0), 100);
  EXPECT_DOUBLE_EQ(flags.get_double("eps", 0.0), 0.5);
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("threads", 0), 8);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
  EXPECT_EQ(flags.program(), "prog");
  EXPECT_TRUE(flags.unknown().empty());
  EXPECT_FALSE(flags.help_requested());
}

TEST(Flags, BareFlagConsumesFollowingValueToken) {
  // `--verbose positional` is parsed as --verbose=positional: documented
  // behaviour of the value-greedy `--name value` form.
  const Flags flags = parse({"prog", "--verbose", "positional"});
  EXPECT_EQ(flags.get("verbose", ""), "positional");
  EXPECT_TRUE(flags.positional().empty());
}

TEST(Flags, FallbacksWhenAbsent) {
  const Flags flags = parse({"prog"});
  EXPECT_FALSE(flags.has("n"));
  EXPECT_EQ(flags.get("n", "dflt"), "dflt");
  EXPECT_EQ(flags.get_int("n", -7), -7);
  EXPECT_DOUBLE_EQ(flags.get_double("eps", 2.5), 2.5);
  EXPECT_FALSE(flags.get_bool("verbose", false));
  EXPECT_TRUE(flags.get_bool("verbose", true));
}

TEST(Flags, BooleanValueForms) {
  const Flags flags = parse({"prog", "--a=true", "--b=0", "--c"});
  EXPECT_TRUE(flags.get_bool("a", false));
  EXPECT_FALSE(flags.get_bool("b", true));
  EXPECT_TRUE(flags.get_bool("c", false));
}

TEST(Flags, UndeclaredFlagsAreRecordedNotRead) {
  // `--no-such-flag 5` consumes its value like any flag, so the value does
  // not turn into a positional argument.
  const Flags flags =
      parse({"prog", "--no-such-flag", "5", "--n", "3", "--typo=1"});
  EXPECT_EQ(flags.unknown(),
            (std::vector<std::string>{"no-such-flag", "typo"}));
  EXPECT_EQ(flags.get_int("n", 0), 3);
  EXPECT_TRUE(flags.positional().empty());
  // Reading a name the binary never declared is a programming error.
  EXPECT_THROW((void)flags.get_int("no-such-flag", 0), std::logic_error);
  EXPECT_THROW((void)flags.has("typo"), std::logic_error);
}

TEST(Flags, UsageListsEveryDeclaredFlag) {
  const Flags flags = parse({"./prog", "--help"});
  EXPECT_TRUE(flags.help_requested());
  EXPECT_TRUE(flags.unknown().empty());
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("usage: ./prog"), std::string::npos);
  for (const FlagSpec& f : kTestFlags) {
    const std::size_t at = usage.find(std::string("--") + f.name + " ");
    ASSERT_NE(at, std::string::npos) << f.name;
    EXPECT_NE(usage.find(f.help, at), std::string::npos) << f.name;
  }
  EXPECT_NE(usage.find("--help"), std::string::npos);
}

TEST(FlagsDeathTest, ParseOrExitRejectsUnknownFlagAndAnswersHelp) {
  const auto parse_or_exit = [](std::vector<const char*> argv) {
    (void)Flags::parse_or_exit(static_cast<int>(argv.size()),
                               const_cast<char**>(argv.data()), kTestFlags);
  };
  EXPECT_EXIT(parse_or_exit({"prog", "--n", "3", "--no-such-flag"}),
              ::testing::ExitedWithCode(2), "unknown flag --no-such-flag");
  // A removed flag fails the same way (the BVH layout is no option).
  EXPECT_EXIT(parse_or_exit({"prog", "--width", "wide"}),
              ::testing::ExitedWithCode(2), "unknown flag --width");
  EXPECT_EXIT(parse_or_exit({"prog", "--help"}), ::testing::ExitedWithCode(0),
              "");
  // A valid command line returns normally.
  parse_or_exit({"prog", "--n", "3", "--backend=grid"});
}

TEST(Cli, BackendFlagParsesOneSpelling) {
  // The shared helper is the single source of truth for the --backend CLI
  // spellings across examples and benches.
  const Flags flags = parse({"prog", "--backend", "triangles"});
  EXPECT_EQ(cli::backend_flag(flags), index::IndexKind::kTriangles);

  const Flags empty = parse({"prog"});
  EXPECT_EQ(cli::backend_flag(empty), index::IndexKind::kAuto);
  EXPECT_EQ(cli::backend_flag(empty, index::IndexKind::kGrid),
            index::IndexKind::kGrid);

  const Flags unknown = parse({"prog", "--backend=kdtree"});
  EXPECT_EQ(cli::backend_flag(unknown), std::nullopt);
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
  for (const int threads : {0, 1, 3}) {
    std::vector<std::atomic<int>> hits(1000);
    for (auto& h : hits) h.store(0);
    parallel_for(1000, threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1) << threads;
  }
}

TEST(Parallel, ThreadCountGuardRestores) {
  const int before = hardware_threads();
  {
    ThreadCountGuard guard(2);
    EXPECT_EQ(hardware_threads(), 2);
    EXPECT_EQ(resolve_threads(0), 2);
    EXPECT_EQ(resolve_threads(5), 5);
  }
  EXPECT_EQ(hardware_threads(), before);
}

TEST(Parallel, SingleThreadedIsDeterministic) {
  std::vector<int> order;
  parallel_for(100, 1, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

/// Runs each of the two helpers at `threads` over 256 indices and returns
/// one probe per helper, whose latch waits for the resolved count.
std::vector<std::unique_ptr<testutil::TeamProbe>> probe_helpers(int threads) {
  std::vector<std::unique_ptr<testutil::TeamProbe>> probes;
  for (int k = 0; k < 2; ++k) {
    probes.push_back(
        std::make_unique<testutil::TeamProbe>(resolve_threads(threads)));
  }
  constexpr std::size_t kN = 256;
  parallel_for(kN, threads, [&](std::size_t) { probes[0]->record(); });
  std::size_t combined = 0;
  parallel_for_accumulate(
      kN, threads, [] { return std::size_t{0}; },
      [&](std::size_t& acc, std::size_t) {
        ++acc;
        probes[1]->record();
      },
      [&](std::size_t acc) { combined += acc; });
  EXPECT_EQ(combined, kN);
  return probes;
}

TEST(Parallel, EveryHelperRunsOnItsThreadCount) {
  // The count a launch is given wins over the caller's setting.
  const ThreadCountGuard ambient(3);
  const auto caller = std::this_thread::get_id();
  const auto probes = probe_helpers(2);
  for (std::size_t k = 0; k < probes.size(); ++k) {
    EXPECT_EQ(probes[k]->team(), 2) << "helper " << k;
    EXPECT_TRUE(probes[k]->off(caller)) << "helper " << k;
  }
  EXPECT_EQ(hardware_threads(), 3);
}

TEST(Parallel, OneThreadRunsInlineOnTheCaller) {
  const ThreadCountGuard ambient(3);
  const auto caller = std::this_thread::get_id();
  const auto probes = probe_helpers(1);
  for (std::size_t k = 0; k < probes.size(); ++k) {
    EXPECT_FALSE(probes[k]->off(caller)) << "helper " << k;
    EXPECT_EQ(probes[k]->team(), 1) << "helper " << k;
  }
  EXPECT_EQ(hardware_threads(), 3);
}

TEST(Parallel, ZeroThreadsResolvesToTheCallersSetting) {
  const ThreadCountGuard ambient(3);
  const auto probes = probe_helpers(0);
  for (std::size_t k = 0; k < probes.size(); ++k) {
    EXPECT_EQ(probes[k]->team(), 3) << "helper " << k;
  }
}

TEST(Parallel, NestedLaunchRunsInlineOnTheExecutingThread) {
  std::atomic<int> off_thread{0};
  std::atomic<int> ran{0};
  parallel_for(64, 4, [&](std::size_t) {
    const auto outer = std::this_thread::get_id();
    parallel_for(16, 4, [&](std::size_t) {
      if (std::this_thread::get_id() != outer) off_thread.fetch_add(1);
      ran.fetch_add(1);
    });
  });
  EXPECT_EQ(ran.load(), 64 * 16);
  EXPECT_EQ(off_thread.load(), 0);
}

/// Launches both helpers at `threads` over 1000 indices with a body that
/// throws at index 537; returns how many of the two calls threw to the
/// caller with the body's exception.
int throws_reaching_the_caller(int threads) {
  const auto body = [](std::size_t i) {
    if (i == 537) throw std::runtime_error("index 537");
  };
  int reached = 0;
  try {
    parallel_for(1000, threads, body);
  } catch (const std::runtime_error& e) {
    reached += std::string(e.what()) == "index 537" ? 1 : 0;
  }
  try {
    parallel_for_accumulate(
        1000, threads, [] { return 0; },
        [&](int&, std::size_t i) { body(i); }, [](int) {});
  } catch (const std::runtime_error& e) {
    reached += std::string(e.what()) == "index 537" ? 1 : 0;
  }
  return reached;
}

TEST(Parallel, BodyThrowReachesTheCaller) {
  for (const int threads : {1, 2, 4}) {
    EXPECT_EQ(throws_reaching_the_caller(threads), 2) << threads;
  }
}

TEST(Parallel, PoolStaysUsableAfterAThrow) {
  ASSERT_EQ(throws_reaching_the_caller(4), 2);
  std::vector<std::atomic<int>> hits(5000);
  for (auto& h : hits) h.store(0);
  parallel_for(hits.size(), 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_EQ(throws_reaching_the_caller(2), 2);
}

TEST(Parallel, ConcurrentLaunchesFromFourThreadsAllFinish) {
  constexpr std::size_t kN = 20000;
  const std::uint64_t want = std::uint64_t{kN} * (kN - 1) / 2;
  std::vector<std::uint64_t> sums(4, 0);
  std::vector<std::thread> launchers;
  for (std::size_t k = 0; k < sums.size(); ++k) {
    launchers.emplace_back([&sums, k] {
      for (int round = 0; round < 20; ++round) {
        std::uint64_t sum = 0;
        parallel_for_accumulate(
            kN, 4, [] { return std::uint64_t{0}; },
            [](std::uint64_t& acc, std::size_t i) { acc += i; },
            [&](std::uint64_t acc) { sum += acc; });
        if (sum != want) return;  // sums[k] stays short of 20 rounds
        sums[k] += sum;
      }
    });
  }
  for (auto& t : launchers) t.join();
  for (const auto sum : sums) EXPECT_EQ(sum, 20 * want);
}

}  // namespace
}  // namespace rtd
