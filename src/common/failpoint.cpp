#include "common/failpoint.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <new>
#include <random>
#include <stdexcept>
#include <string>
#include <system_error>
#include <unordered_map>

#include "common/mutex.hpp"
#include "common/stage.hpp"
#include "common/thread_annotations.hpp"
#include "telemetry/telemetry.hpp"

namespace rtd::fail {

namespace {

struct Armed {
  Config config;
  std::uint64_t hits = 0;
  std::uint64_t fires = 0;
  std::mt19937_64 rng;
};

struct Registry {
  Mutex mu;
  // Keyed by canonical site name.  Entries persist after disarm so the
  // hit/fire counters survive for test assertions; `live` marks armed ones.
  std::unordered_map<std::string, Armed> armed RTD_GUARDED_BY(mu);
  std::unordered_map<std::string, Armed> retired RTD_GUARDED_BY(mu);
};

Registry& registry() {
  static Registry* r = [] {
    auto* reg = new Registry();  // leaked: outlives all static destructors
    return reg;
  }();
  return *r;
}

bool known_site(std::string_view site) {
  const auto& sites = stage::all_sites();
  return std::binary_search(sites.begin(), sites.end(), site);
}

// The kFaults bit of the stage word mirrors "the armed map is non-empty".
void sync_faults_bit(Registry& r) RTD_REQUIRES(r.mu) {
  if (r.armed.empty()) {
    stage::detail::g_armed.fetch_and(~stage::kFaults,
                                     std::memory_order_relaxed);
  } else {
    stage::detail::g_armed.fetch_or(stage::kFaults, std::memory_order_relaxed);
  }
}

[[noreturn]] void throw_for(Action action, const std::string& site) {
  if (action == Action::kThrowBadAlloc) throw std::bad_alloc();
  throw std::runtime_error("failpoint fired: " + site);
}

void arm_locked(Registry& r, const std::string& site, const Config& config)
    RTD_REQUIRES(r.mu) {
  if (!known_site(site)) {
    throw std::invalid_argument("failpoint: unknown site '" + site + "'");
  }
  if ((config.trigger == Trigger::kOnHit ||
       config.trigger == Trigger::kEveryNth) &&
      config.n == 0) {
    throw std::invalid_argument("failpoint: trigger count must be >= 1");
  }
  if (config.trigger == Trigger::kChance &&
      (config.probability < 0.0 || config.probability > 1.0)) {
    throw std::invalid_argument(
        "failpoint: probability must be in [0, 1]");
  }
  Armed& a = r.armed[site];
  a.config = config;
  a.rng.seed(config.seed);
  sync_faults_bit(r);
}

// spec: site=action[@trigger][;site=action[@trigger]]...
// action: badalloc | error | decline
// trigger: hit:N | every:K | p:P[:seed]
void parse_spec(Registry& r, std::string_view rest) RTD_REQUIRES(r.mu) {
  constexpr std::string_view kWhat = "RTDBSCAN_FAILPOINTS";
  while (!rest.empty()) {
    const std::size_t semi = rest.find(';');
    std::string_view entry = rest.substr(0, semi);
    rest = semi == std::string_view::npos ? std::string_view{}
                                          : rest.substr(semi + 1);
    if (entry.empty()) continue;
    const std::size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument(
          "RTDBSCAN_FAILPOINTS: entry missing '=': " + std::string(entry));
    }
    const std::string site(entry.substr(0, eq));
    std::string_view value = entry.substr(eq + 1);
    const std::size_t at = value.find('@');
    const std::string_view action_str = value.substr(0, at);
    Config config;
    if (action_str == "badalloc") {
      config.action = Action::kThrowBadAlloc;
    } else if (action_str == "error") {
      config.action = Action::kThrowError;
    } else if (action_str == "decline") {
      config.action = Action::kDecline;
    } else {
      throw std::invalid_argument("RTDBSCAN_FAILPOINTS: unknown action '" +
                                  std::string(action_str) + "'");
    }
    if (at != std::string_view::npos) {
      std::string_view trig = value.substr(at + 1);
      if (trig.rfind("hit:", 0) == 0) {
        config.trigger = Trigger::kOnHit;
        config.n = stage::detail::parse_count(trig.substr(4), kWhat);
      } else if (trig.rfind("every:", 0) == 0) {
        config.trigger = Trigger::kEveryNth;
        config.n = stage::detail::parse_count(trig.substr(6), kWhat);
      } else if (trig.rfind("p:", 0) == 0) {
        config.trigger = Trigger::kChance;
        std::string_view p = trig.substr(2);
        const std::size_t colon = p.find(':');
        const std::string_view prob = p.substr(0, colon);
        const char* const end = prob.data() + prob.size();
        const auto [stop, ec] =
            std::from_chars(prob.data(), end, config.probability);
        if (prob.empty() || ec != std::errc() || stop != end) {
          throw std::invalid_argument(
              "RTDBSCAN_FAILPOINTS: bad probability '" + std::string(prob) +
              "'");
        }
        if (colon != std::string_view::npos) {
          config.seed = stage::detail::parse_count(p.substr(colon + 1), kWhat);
        }
      } else {
        throw std::invalid_argument("RTDBSCAN_FAILPOINTS: unknown trigger '" +
                                    std::string(trig) + "'");
      }
    }
    arm_locked(r, site, config);
  }
}

}  // namespace

void arm(std::string_view site, const Config& config) {
  (void)stage::armed();  // env-armed sites first, so this call wins
  Registry& r = registry();
  const MutexLock lock(r.mu);
  arm_locked(r, std::string(site), config);
}

void arm_spec(std::string_view spec) {
  (void)stage::armed();
  detail::apply_spec(spec);
}

void disarm(std::string_view site) {
  (void)stage::armed();  // an env parse must not re-arm after this
  Registry& r = registry();
  const MutexLock lock(r.mu);
  auto it = r.armed.find(std::string(site));
  if (it == r.armed.end()) return;
  // Keep the counters readable after disarm.
  Armed& retired = r.retired[it->first];
  retired.hits += it->second.hits;
  retired.fires += it->second.fires;
  r.armed.erase(it);
  sync_faults_bit(r);
}

void disarm_all() {
  (void)stage::armed();
  Registry& r = registry();
  const MutexLock lock(r.mu);
  for (auto& [site, armed] : r.armed) {
    Armed& retired = r.retired[site];
    retired.hits += armed.hits;
    retired.fires += armed.fires;
  }
  r.armed.clear();
  sync_faults_bit(r);
}

std::uint64_t hit_count(std::string_view site) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  std::uint64_t total = 0;
  if (auto it = r.armed.find(std::string(site)); it != r.armed.end()) {
    total += it->second.hits;
  }
  if (auto it = r.retired.find(std::string(site)); it != r.retired.end()) {
    total += it->second.hits;
  }
  return total;
}

std::uint64_t fire_count(std::string_view site) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  std::uint64_t total = 0;
  if (auto it = r.armed.find(std::string(site)); it != r.armed.end()) {
    total += it->second.fires;
  }
  if (auto it = r.retired.find(std::string(site)); it != r.retired.end()) {
    total += it->second.fires;
  }
  return total;
}

namespace detail {

void apply_spec(std::string_view spec) {
  Registry& r = registry();
  const MutexLock lock(r.mu);
  parse_spec(r, spec);
}

bool hit(const char* site) {
  Registry& r = registry();
  Action action;
  std::string name;
  {
    const MutexLock lock(r.mu);
    auto it = r.armed.find(site);
    if (it == r.armed.end()) return false;
    Armed& a = it->second;
    ++a.hits;
    bool fire = false;
    switch (a.config.trigger) {
      case Trigger::kOnHit:
        fire = a.hits == a.config.n;
        break;
      case Trigger::kEveryNth:
        fire = a.hits % a.config.n == 0;
        break;
      case Trigger::kChance: {
        std::uniform_real_distribution<double> dist(0.0, 1.0);
        fire = dist(a.rng) < a.config.probability;
        break;
      }
    }
    if (!fire) return false;
    ++a.fires;
    telemetry::count(telemetry::Counter::kFailpointFires);
    action = a.config.action;
    name = it->first;
  }
  if (action == Action::kDecline) return true;
  throw_for(action, name);
}

}  // namespace detail

}  // namespace rtd::fail
