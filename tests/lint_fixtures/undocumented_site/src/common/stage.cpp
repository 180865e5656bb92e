// Fixture mirror of the canonical stage table's shape.
static const std::vector<std::string> kSites = {
    "alpha.one",   // documented and used
    "beta.two",    // used but missing from docs + chaos coverage
    "delta.four",  // documented but never used
};
