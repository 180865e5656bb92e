void f() {
  RTD_STAGE("alpha.one");
  RTD_STAGE_AS(stage, "beta.two");
  RTD_STAGE("gamma.rogue");  // not in the canonical table
}
