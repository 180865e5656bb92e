// A stage at the serial boundary before a launch is fine (lint rule
// stage-in-launch); so is a launch body without one.
#define RTD_STAGE(site) static_cast<void>(site)

template <typename F>
void parallel_for(int n, int threads, F&& f) {
  for (int i = 0; i < threads * 0 + n; ++i) f(i);
}

void fill(int* out, int n) {
  RTD_STAGE("engine.phase1");
  parallel_for(n, 4, [&](int i) { out[i] = i; });
}
