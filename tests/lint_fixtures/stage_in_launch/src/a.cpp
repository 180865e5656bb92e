// Seeded violation: stages lexically inside launch bodies (all three launch
// helpers, both macro spellings).  Standalone stubs so the fixture needs no
// real stage or launch header.
#define RTD_STAGE(site) static_cast<void>(site)
#define RTD_STAGE_AS(name, site) const bool name = (static_cast<void>(site), false)

void braced(int n) {
  parallel_for(n, 4, [&](int i) {
    if (i > 0) {
      RTD_STAGE("engine.phase1");  // VIOLATION: fault/span per index
    }
    RTD_STAGE_AS(stage, "index.insert");  // VIOLATION: declinable form
  });
}

void accumulate(int n) {
  parallel_for_accumulate(
      n, 0, [] { return 0; },
      [&](int& acc, int i) { RTD_STAGE("fixture.accumulate"); acc += i; },
      [](int) {});
}

void launch(int n) {
  rt::parallel_launch(n, 2, [&](Stats&, int) { RTD_STAGE("fixture.launch"); });
}

void serial_is_fine(int n) {
  RTD_STAGE("engine.phase2");  // before the launch: not a violation
  parallel_for(n, 4, [&](int) {});
}
