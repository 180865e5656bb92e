// Minimal command-line flag parser for the benchmark and example binaries.
//
// Supports `--name value`, `--name=value` and boolean `--name` forms.  Every
// bench binary runs with no arguments at its default (CI-sized) scale; flags
// let a user grow experiments toward paper scale (see docs/BENCHMARKS.md).
//
// Each binary declares the flags it reads.  Flags::parse_or_exit() answers
// `--help` with that list and rejects any other flag before main() does any
// work, so a misspelled flag never silently runs the default.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace rtd {

/// One flag a binary accepts: its name (without the leading `--`) and a
/// one-line description for `--help`, default value included.
struct FlagSpec {
  const char* name;
  const char* help;
};

class Flags {
 public:
  /// Parse argv against the declared flags.  Flags outside `known` are
  /// recorded in unknown(), not rejected; main() uses parse_or_exit().
  Flags(int argc, char** argv, std::vector<FlagSpec> known);

  /// Parse argv for a binary's main(): `--help` prints usage() to stdout
  /// and exits 0; a flag outside `known` is named on stderr, followed by
  /// usage(), and exits 2.
  [[nodiscard]] static Flags parse_or_exit(int argc, char** argv,
                                           std::vector<FlagSpec> known);

  /// True if the binary declared --name, whether or not it was given.
  [[nodiscard]] bool declared(const std::string& name) const;

  /// True if --name was present (with or without a value).  Reading a
  /// name that was not declared throws std::logic_error: the binary's
  /// --help would not list it and parse_or_exit() would reject it.
  [[nodiscard]] bool has(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// Flags given on the command line that are not declared, in order.
  [[nodiscard]] const std::vector<std::string>& unknown() const {
    return unknown_;
  }

  /// True if `--help` was given.
  [[nodiscard]] bool help_requested() const { return help_; }

  /// The `--help` text: a usage line, then one line per declared flag.
  [[nodiscard]] std::string usage() const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  /// The value of a declared flag, or null when absent.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::string program_;
  std::vector<FlagSpec> known_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  std::vector<std::string> unknown_;
  bool help_ = false;
};

}  // namespace rtd
