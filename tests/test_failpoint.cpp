// Unit tests for the failpoint registry itself: env-var activation, the
// spec grammar, trigger arithmetic and counter persistence across disarm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/failpoint.hpp"
#include "common/stage.hpp"

namespace rtd {
namespace {

// The stage gate parses RTDBSCAN_FAILPOINTS exactly once, at the first
// stage check of the process.  Setting the variable from a static
// initializer guarantees it is in place before any test touches the
// registry; the env test below must therefore stay the FIRST test
// registered in this file (gtest runs tests in registration order unless
// shuffled).
const bool g_env_spec_set = [] {
  ::setenv("RTDBSCAN_FAILPOINTS",
           "engine.phase1=error@hit:1;index.insert=decline@every:2", 1);
  return true;
}();

// Enter and leave one stage; true when an armed kDecline fired.
bool declines(const char* site) { return stage::Scope(site).declined(); }

TEST(FailpointEnv, SpecIsParsedLazilyAndArmsSites) {
  ASSERT_TRUE(g_env_spec_set);
  // The first stage check triggers the lazy parse; engine.phase1 fires on
  // hit 1.
  EXPECT_THROW(RTD_STAGE("engine.phase1"), std::runtime_error);
  EXPECT_NO_THROW(RTD_STAGE("engine.phase1"));  // hit:1 fires once

  // index.insert=decline@every:2 — declines on hits 2, 4, ...
  EXPECT_FALSE(declines("index.insert"));
  EXPECT_TRUE(declines("index.insert"));
  EXPECT_FALSE(declines("index.insert"));
  EXPECT_TRUE(declines("index.insert"));

  EXPECT_EQ(fail::fire_count("engine.phase1"), 1u);
  EXPECT_EQ(fail::fire_count("index.insert"), 2u);
  fail::disarm_all();
}

class FailpointArmed : public ::testing::Test {
 protected:
  void SetUp() override { fail::disarm_all(); }
  void TearDown() override { fail::disarm_all(); }
};

TEST_F(FailpointArmed, RejectsUnknownSitesAndBadConfigs) {
  EXPECT_THROW(fail::arm("engine.phase9", {}), std::invalid_argument);
  EXPECT_THROW(
      fail::arm("engine.phase1",
                {.trigger = fail::Trigger::kEveryNth, .n = 0}),
      std::invalid_argument);
  EXPECT_THROW(
      fail::arm("engine.phase1",
                {.trigger = fail::Trigger::kChance, .probability = 1.5}),
      std::invalid_argument);
}

TEST_F(FailpointArmed, SpecNumbersMustBeWholeDigitTokens) {
  // A sign, a trailing letter or an empty count is malformed — never a
  // wrapped or truncated number.
  for (const char* trigger :
       {"hit:-1", "every:3x", "hit:", "every: 2", "hit:+2", "p:0.5:-7",
        "p:0.5x", "hit:99999999999999999999"}) {
    const std::string spec = std::string("session.remove=decline@") + trigger;
    EXPECT_THROW(fail::arm_spec(spec), std::invalid_argument) << spec;
  }
  EXPECT_EQ(stage::armed() & stage::kFaults, 0u);  // nothing was armed

  fail::arm_spec("session.remove=decline@every:3;session.sweep=error@p:1:42");
  EXPECT_FALSE(declines("session.remove"));
  EXPECT_FALSE(declines("session.remove"));
  EXPECT_TRUE(declines("session.remove"));
  EXPECT_THROW(RTD_STAGE("session.sweep"), std::runtime_error);
}

TEST_F(FailpointArmed, OnHitFiresExactlyOnceOnTheNthHit) {
  fail::arm("engine.phase2", {.action = fail::Action::kThrowBadAlloc,
                              .trigger = fail::Trigger::kOnHit,
                              .n = 3});
  EXPECT_NO_THROW(RTD_STAGE("engine.phase2"));
  EXPECT_NO_THROW(RTD_STAGE("engine.phase2"));
  EXPECT_THROW(RTD_STAGE("engine.phase2"), std::bad_alloc);
  EXPECT_NO_THROW(RTD_STAGE("engine.phase2"));
  EXPECT_EQ(fail::hit_count("engine.phase2"), 4u);
  EXPECT_EQ(fail::fire_count("engine.phase2"), 1u);
}

TEST_F(FailpointArmed, CountersSurviveDisarmAndAccumulate) {
  fail::arm("index.remove", {.action = fail::Action::kDecline,
                             .trigger = fail::Trigger::kEveryNth,
                             .n = 2});
  EXPECT_FALSE(declines("index.remove"));
  EXPECT_TRUE(declines("index.remove"));
  fail::disarm("index.remove");
  const auto hits_after_first = fail::hit_count("index.remove");
  const auto fires_after_first = fail::fire_count("index.remove");
  EXPECT_EQ(hits_after_first, 2u);
  EXPECT_EQ(fires_after_first, 1u);

  // Disarmed: the site is inert but the counters stay readable.
  EXPECT_FALSE(declines("index.remove"));
  EXPECT_EQ(fail::hit_count("index.remove"), hits_after_first);

  // Re-arming accumulates on top of the retired counters.
  fail::arm("index.remove", {.action = fail::Action::kDecline,
                             .trigger = fail::Trigger::kEveryNth,
                             .n = 1});
  EXPECT_TRUE(declines("index.remove"));
  EXPECT_EQ(fail::hit_count("index.remove"), hits_after_first + 1);
  EXPECT_EQ(fail::fire_count("index.remove"), fires_after_first + 1);
}

TEST_F(FailpointArmed, ChanceTriggerIsDeterministicPerSeed) {
  const auto sample = [](std::uint64_t seed) {
    fail::arm("sweep.scratch", {.action = fail::Action::kDecline,
                                .trigger = fail::Trigger::kChance,
                                .probability = 0.5,
                                .seed = seed});
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(declines("sweep.scratch"));
    }
    fail::disarm("sweep.scratch");
    return fired;
  };
  const auto a = sample(123);
  const auto b = sample(123);
  const auto c = sample(987);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // 2^-64 flake odds — effectively impossible
  // Probability 0.5 over 64 draws should fire somewhere in the middle.
  const auto fires =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 10u);
  EXPECT_LT(fires, 54u);
}

TEST_F(FailpointArmed, DisarmAllSilencesEverything) {
  fail::arm("repair.union", {.action = fail::Action::kThrowError});
  fail::arm("repair.split", {.action = fail::Action::kThrowError});
  fail::disarm_all();
  EXPECT_NO_THROW(RTD_STAGE("repair.union"));
  EXPECT_NO_THROW(RTD_STAGE("repair.split"));
}

// Last: it fires every stage once, so it reads its counters as deltas.
TEST(Failpoint, SiteListIsSortedAndUnique) {
  // Every stage of the one table can be armed as a fault.
  const auto& sites = stage::all_sites();
  ASSERT_FALSE(sites.empty());
  for (std::size_t i = 1; i < sites.size(); ++i) {
    EXPECT_LT(sites[i - 1], sites[i]);
  }
  for (const auto& site : sites) {
    const std::uint64_t fires = fail::fire_count(site);
    fail::arm(site, {.action = fail::Action::kDecline});
    EXPECT_TRUE(declines(site.c_str())) << site;
    EXPECT_EQ(fail::fire_count(site), fires + 1) << site;
  }
  fail::disarm_all();
  // Unknown sites never accumulate counters and are safe to disarm.
  EXPECT_EQ(fail::hit_count("no.such.site"), 0u);
  EXPECT_EQ(fail::fire_count("no.such.site"), 0u);
  fail::disarm("no.such.site");
}

}  // namespace
}  // namespace rtd
