// The thread-count layer declares ThreadCountGuard (lint rule
// ambient-threads allows it in this file only).
#pragma once

class ThreadCountGuard {
 public:
  explicit ThreadCountGuard(int threads) : threads_(threads) {}

 private:
  int threads_;
};
