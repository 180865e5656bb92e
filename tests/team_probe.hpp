// TeamProbe: how many distinct threads ran a launch's body, and whether any
// of them was not the launching thread.
//
// A thread's first record() waits until `expected` threads have arrived (a
// latch, with a deadline so a launch that never brings them fails instead of
// hanging).  While the first arrivals wait, the others must take chunks, so
// a launch of t over enough indices shows all t participants, no more.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

namespace rtd::testutil {

class TeamProbe {
 public:
  explicit TeamProbe(int expected) : expected_(expected) {}

  void record() {
    std::unique_lock lock(mu_);
    if (!ids_.insert(std::this_thread::get_id()).second) return;
    arrived_.notify_all();
    arrived_.wait_for(lock, std::chrono::seconds(10), [&] {
      return static_cast<int>(ids_.size()) >= expected_;
    });
  }

  /// Distinct threads that ran the body.
  int team() {
    const std::lock_guard lock(mu_);
    return static_cast<int>(ids_.size());
  }

  /// Whether any of them was not `caller`.
  bool off(std::thread::id caller) {
    const std::lock_guard lock(mu_);
    return ids_.size() > 1 || (ids_.size() == 1 && !ids_.contains(caller));
  }

 private:
  const int expected_;
  std::mutex mu_;
  std::condition_variable arrived_;
  std::set<std::thread::id> ids_;
};

}  // namespace rtd::testutil
