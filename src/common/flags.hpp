// Minimal command-line flag parser for the benchmark and example binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms.  Every
// bench binary runs with no arguments at its default (CI-sized) scale; flags
// let a user grow experiments toward paper scale (see docs/BENCHMARKS.md).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rtd {

class Flags {
 public:
  Flags(int argc, char** argv);

  /// True if --name was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace rtd
