#pragma once

// Fault injection at the named stages of common/stage.hpp.
//
// Any stage can be armed with a fault: throw std::bad_alloc, throw
// std::runtime_error, or force the surrounding operation to decline (return
// false) as if a capacity probe had failed — the last only at the stages
// whose operation can report failure (RTD_STAGE_AS sites).  Stages fire on
// the Nth hit, every Kth hit, or with a seeded probability per hit.
//
// Activation is programmatic (rtd::fail::arm / arm_spec) or via the
// environment variable RTDBSCAN_FAILPOINTS, read once with
// RTDBSCAN_TELEMETRY at the first stage check of the process:
//
//   RTDBSCAN_FAILPOINTS="index.insert=decline@every:3;engine.phase1=badalloc@hit:2"
//
// where action is one of {badalloc,error,decline} and the optional trigger
// is `hit:N` (fire once on the Nth hit, default hit:1), `every:K` (fire on
// every Kth hit), or `p:P[:seed]` (fire with probability P per hit).  N, K
// and the seed are whole tokens of decimal digits.

#include <cstdint>
#include <string_view>

namespace rtd::fail {

enum class Action : std::uint8_t {
  kThrowBadAlloc,  // throw std::bad_alloc at the site
  kThrowError,     // throw std::runtime_error naming the site
  kDecline,        // make the operation report failure (sites that support it)
};

enum class Trigger : std::uint8_t {
  kOnHit,    // fire exactly once, on the n-th hit (1-based)
  kEveryNth, // fire on every n-th hit (n, 2n, 3n, ...)
  kChance,   // fire with probability `probability` per hit (seeded RNG)
};

struct Config {
  Action action = Action::kThrowError;
  Trigger trigger = Trigger::kOnHit;
  std::uint64_t n = 1;          // kOnHit / kEveryNth parameter
  double probability = 0.0;     // kChance parameter
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  // kChance RNG seed
};

// Arm `site` with `config`.  Throws std::invalid_argument for names not in
// stage::all_sites() (so a typo cannot silently never fire) and for invalid
// configs (kEveryNth with n == 0, kChance outside [0, 1]).
void arm(std::string_view site, const Config& config);

// Arm from a spec in the RTDBSCAN_FAILPOINTS grammar.  Throws
// std::invalid_argument on malformed entries.
void arm_spec(std::string_view spec);

// Disarm one site / all sites.  Safe to call for sites that are not armed.
void disarm(std::string_view site);
void disarm_all();

// Counters (0 for unknown or never-hit sites): how many times the site was
// reached while armed, and how many times it fired a fault.
std::uint64_t hit_count(std::string_view site);
std::uint64_t fire_count(std::string_view site);

namespace detail {
// Parse and arm a spec without passing the env gate (the gate's own parse).
void apply_spec(std::string_view spec);
// Slow path of an armed stage: count a hit on `site`; throws if an armed
// throw-action fires.  Returns true when an armed kDecline fires.
bool hit(const char* site);
}  // namespace detail

}  // namespace rtd::fail
