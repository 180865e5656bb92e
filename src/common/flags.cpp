#include "common/flags.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace rtd {

Flags::Flags(int argc, char** argv, std::vector<FlagSpec> known)
    : known_(std::move(known)) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    std::string name = arg.substr(0, eq);
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      // `--name value` form: consume the next token unless it is a flag.
      value = argv[++i];
    }
    if (name == "help") {
      help_ = true;
    } else if (!declared(name)) {
      unknown_.push_back(std::move(name));
    } else {
      values_[std::move(name)] = std::move(value);
    }
  }
}

Flags Flags::parse_or_exit(int argc, char** argv,
                           std::vector<FlagSpec> known) {
  Flags flags(argc, argv, std::move(known));
  if (flags.help_requested()) {
    std::fputs(flags.usage().c_str(), stdout);
    std::exit(0);
  }
  if (!flags.unknown().empty()) {
    std::fprintf(stderr, "%s: unknown flag --%s\n%s", flags.program().c_str(),
                 flags.unknown().front().c_str(), flags.usage().c_str());
    std::exit(2);
  }
  return flags;
}

std::string Flags::usage() const {
  std::size_t width = 4;  // "help"
  for (const FlagSpec& f : known_) {
    width = std::max(width, std::string(f.name).size());
  }
  std::string out = "usage: " + program_ + " [flags]\n";
  const auto line = [&](const std::string& name, const char* help) {
    out += "  --" + name + std::string(width + 2 - name.size(), ' ') + help +
           '\n';
  };
  for (const FlagSpec& f : known_) line(f.name, f.help);
  line("help", "print this list and exit");
  return out;
}

bool Flags::declared(const std::string& name) const {
  return std::any_of(known_.begin(), known_.end(),
                     [&](const FlagSpec& f) { return name == f.name; });
}

const std::string* Flags::find(const std::string& name) const {
  if (!declared(name)) {
    throw std::logic_error("flag --" + name + " is read but not declared");
  }
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

std::int64_t Flags::get_int(const std::string& name,
                            std::int64_t fallback) const {
  const std::string* v = find(name);
  if (v == nullptr || v->empty()) return fallback;
  return std::strtoll(v->c_str(), nullptr, 10);
}

double Flags::get_double(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  if (v == nullptr || v->empty()) return fallback;
  return std::strtod(v->c_str(), nullptr);
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  return v->empty() || *v == "1" || *v == "true" || *v == "yes" ||
         *v == "on";
}

}  // namespace rtd
