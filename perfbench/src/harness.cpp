#include "harness.hpp"

#include <sys/resource.h>

#include <ctime>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

const Clock::time_point kEpoch = Clock::now();

std::uint32_t thread_id() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

// Open spans of the calling thread, innermost last.
thread_local std::vector<std::int64_t> open_stack;

/// Nanoseconds since process start.
std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           kEpoch)
          .count());
}

/// Nearest rank of quantile q among n > 0 sorted samples.
std::size_t rank_of(double q, std::size_t n) {
  const auto rank =
      static_cast<std::size_t>(q * static_cast<double>(n - 1) + 0.5);
  return std::min(rank, n - 1);
}

}  // namespace

double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

double quantile(std::vector<double>& samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return samples[rank_of(q, samples.size())];
}

Summary summarize(std::vector<double> samples, double tail_q) {
  Summary s;
  s.count = samples.size();
  s.tail_q = tail_q;
  s.p50 = quantile(samples, 0.5);
  s.tail = quantile(samples, tail_q);
  if (!samples.empty()) {
    s.beyond_tail = samples.size() - 1 - rank_of(tail_q, samples.size());
  }
  return s;
}

void Outcomes::fail(const std::string& what) {
  ++attempted_;
  ++failed_;
  const std::lock_guard<std::mutex> lock(log_mu_);
  if (logged_++ < 20) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
  }
}

Tracer::Scope::Scope(Tracer& tracer, const char* name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  index_ = tracer.open(name);
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->close(index_);
}

std::int64_t Tracer::open(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_stack.empty() ? -1 : open_stack.back();
  s.tid = thread_id();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto index = static_cast<std::int64_t>(spans_.size());
  spans_.push_back(s);
  open_stack.push_back(index);
  // Stamp last, so the recorder's own bookkeeping stays outside the span.
  spans_.back().begin_ns = now_ns();
  return index;
}

void Tracer::close(std::int64_t index) {
  const std::uint64_t t = now_ns();
  open_stack.pop_back();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.end_ns != 0 && name == s.name) {
      out.push_back(static_cast<double>(s.end_ns - s.begin_ns) * 1e-6);
    }
  }
  return out;
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                  "\"args\":{\"id\":%zu,\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name,
                  static_cast<double>(s.begin_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.begin_ns) * 1e-3, s.tid, i,
                  static_cast<long long>(s.parent));
    out << buf;
  }
  out << "\n]}\n";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
