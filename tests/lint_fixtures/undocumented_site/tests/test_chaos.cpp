// coverage dispatch mentions alpha.one and delta.four only
const bool a = site == "alpha.one" || site == "delta.four";
