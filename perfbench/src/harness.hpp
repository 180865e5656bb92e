// Measurement plumbing of the benchmark driver: a monotonic clock, sample
// statistics, an outcome tally and an in-memory span recorder.
//
// Spans are recorded by the driver around each call it makes into the
// library (no code under src/ is instrumented), kept in memory, and written
// once at exit as Chrome trace-event JSON — the same "X"-event, microsecond
// shape rtd::telemetry::trace_json() emits, so library stages and harness
// spans open in one viewer.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// CPU time consumed by the calling thread, in milliseconds.  The kernel
/// leaves out time the thread was not running, including time the
/// hypervisor gave the vCPU to another guest (steal), so a single-threaded
/// call's CPU time does not stretch when the host is busy.
double thread_cpu_ms();

/// Value at quantile q in [0, 1] of `samples` (sorted in place), nearest
/// rank.  Empty input yields 0.
double quantile(std::vector<double>& samples, double q);

inline double median(std::vector<double> samples) {
  return quantile(samples, 0.5);
}

/// A latency series summarised the way the benchmark reports timings: the
/// median and one fixed tail percentile, with the sample count.
struct Summary {
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.0;          ///< the tail's quantile (0.75, 0.95, 0.99)
  std::size_t count = 0;
  std::size_t beyond_tail = 0;  ///< samples above the tail rank
};

Summary summarize(std::vector<double> samples, double tail_q);

/// Fixed-memory uniform sample of a stream of values (reservoir sampling),
/// so a reader's footprint does not grow with its throughput.  One writer
/// thread per reservoir.
template <typename T>
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity, std::uint64_t seed)
      : slots_(capacity), state_(seed | 1) {}

  void add(const T& value) {
    if (seen_ < slots_.size()) {
      slots_[seen_] = value;
    } else {
      // xorshift64: cheap enough for the read path it samples.
      state_ ^= state_ << 13;
      state_ ^= state_ >> 7;
      state_ ^= state_ << 17;
      const std::uint64_t j = state_ % (seen_ + 1);
      if (j < slots_.size()) slots_[j] = value;
    }
    ++seen_;
  }

  /// Values added so far (the sample holds at most capacity of them).
  [[nodiscard]] std::uint64_t seen() const { return seen_; }
  [[nodiscard]] std::size_t sample_size() const {
    return static_cast<std::size_t>(
        std::min<std::uint64_t>(seen_, slots_.size()));
  }
  [[nodiscard]] const T* begin() const { return slots_.data(); }
  [[nodiscard]] const T* end() const { return slots_.data() + sample_size(); }

 private:
  std::vector<T> slots_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_;
};

/// Checked-operation tally behind `attempted`, `failed` and error_rate.
/// Thread-safe: readers and the writer record from their own threads.
class Outcomes {
 public:
  void ok(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what);
  /// Record one check: counts it, and logs `what` when it failed.
  void check(bool passed, const std::string& what) {
    if (passed) {
      ok();
    } else {
      fail(what);
    }
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex log_mu_;
  std::uint64_t logged_ = 0;
};

/// In-memory span recorder.  Disabled recorders cost one branch per span.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::uint64_t begin_ns = 0;
    std::uint64_t end_ns = 0;
    std::int64_t parent = -1;  ///< index into spans(), -1 for a root
    std::uint32_t tid = 0;
  };

  /// RAII span; nests under the innermost open span of the same thread.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_ = nullptr;
    std::int64_t index_ = -1;
  };

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Durations in milliseconds of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;
  [[nodiscard]] std::size_t size() const;

  /// Write every span as {"traceEvents": [...]} with "X" complete events,
  /// ts/dur in microseconds; each event's args carry its parent's index.
  void write_json(const std::string& path) const;

 private:
  std::int64_t open(const char* name);
  void close(std::int64_t index);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

}  // namespace perfbench
