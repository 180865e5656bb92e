void f() {
  RTD_STAGE("alpha.one");
  RTD_STAGE("beta.two");
}
