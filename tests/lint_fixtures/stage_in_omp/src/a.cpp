// Seeded violation: stages lexically inside OMP parallel regions (the
// braced-block and the single-statement forms, both macro spellings).
// Standalone stubs so the fixture needs no real stage header.
#define RTD_STAGE(site) static_cast<void>(site)
#define RTD_STAGE_AS(name, site) const bool name = (static_cast<void>(site), false)

void braced(int n) {
#pragma omp parallel
  {
    for (int i = 0; i < n; ++i) {
      RTD_STAGE("engine.phase1");  // VIOLATION: fault/span on a worker
    }
    RTD_STAGE_AS(stage, "index.insert");  // VIOLATION: declinable form
  }
}

void single_statement(int* out, int n) {
#pragma omp parallel for schedule(static)
  for (int i = 0; i < n; ++i) RTD_STAGE("fixture.single_stmt");
  out[0] = n;
}

void serial_is_fine() {
  RTD_STAGE("engine.phase2");  // outside any region: not a violation
}
