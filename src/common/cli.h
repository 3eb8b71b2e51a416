// Tiny command-line flag reader for the example/bench executables.
// Flags look like: --arch terapool --size 4096 --verbose
//
// Every flag name a get*/has call asks about is remembered, so a CLI that
// reads all its flags up front can call reject_unknown() to turn a typo or
// a retired flag into an exit-2 error instead of silently running without
// it.
#ifndef PUSCHPOOL_COMMON_CLI_H
#define PUSCHPOOL_COMMON_CLI_H

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace pp::common {

class Cli {
 public:
  Cli(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) args_.emplace_back(argv[i]);
  }

  // Value of "--name value", or fallback if absent.
  std::string get(const std::string& name, const std::string& fallback) const {
    note(name);
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return args_[i + 1];
    }
    return fallback;
  }

  long get_int(const std::string& name, long fallback) const {
    note(name);
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return std::strtol(args_[i + 1].c_str(), nullptr, 10);
    }
    return fallback;
  }

  // Value of "--name" as a validated non-negative 32-bit integer.
  // Malformed or negative values print a readable error and exit 2.
  uint32_t get_u32(const std::string& name, uint32_t fallback) const {
    note(name);
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return parse_u32_or_die(name, args_[i + 1]);
    }
    return fallback;
  }

  // Value of "--name" as a validated double; malformed values print a
  // readable error and exit 2.  Range checks stay at the call site.
  double get_double(const std::string& name, double fallback) const {
    note(name);
    for (size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) return parse_double_or_die(name, args_[i + 1]);
    }
    return fallback;
  }

  // Value of "--name" as a comma-separated list of doubles ("0.5,1,2");
  // same error behavior as get_double().
  std::vector<double> get_double_list(const std::string& name,
                                      const std::string& fallback) const {
    const std::string s = get(name, fallback);
    std::vector<double> out;
    size_t start = 0;
    while (start <= s.size()) {
      const size_t end = s.find(',', start);
      const std::string tok = end == std::string::npos
                                  ? s.substr(start)
                                  : s.substr(start, end - start);
      out.push_back(parse_double_or_die(name, tok));
      if (end == std::string::npos) break;
      start = end + 1;
    }
    return out;
  }

  // Value of "--name" as a comma-separated list of non-negative 32-bit
  // integers ("64,256,1024"); same error behavior as get_u32().
  std::vector<uint32_t> get_u32_list(const std::string& name,
                                     const std::string& fallback) const {
    const std::string s = get(name, fallback);
    std::vector<uint32_t> out;
    size_t start = 0;
    while (start <= s.size()) {
      const size_t end = s.find(',', start);
      const std::string tok = end == std::string::npos
                                  ? s.substr(start)
                                  : s.substr(start, end - start);
      out.push_back(parse_u32_or_die(name, tok));
      if (end == std::string::npos) break;
      start = end + 1;
    }
    return out;
  }

  // Counts (UEs, antennas, beams, cells): get_u32 / get_u32_list that also
  // reject zero, naming the valid range, with the same exit-2 convention -
  // a zero count must not reach the library layer, where it divides by
  // zero or trips a PP_CHECK abort.
  uint32_t get_count(const std::string& name, uint32_t fallback) const {
    return require_count(name, get_u32(name, fallback));
  }
  std::vector<uint32_t> get_count_list(const std::string& name,
                                       const std::string& fallback) const {
    std::vector<uint32_t> out = get_u32_list(name, fallback);
    for (const uint32_t v : out) require_count(name, v);
    return out;
  }

  // Value of "--name" as a comma-separated list of strings
  // ("flat,tdl-a,tdl-c"); empty tokens are preserved so validation stays at
  // the call site.
  std::vector<std::string> get_str_list(const std::string& name,
                                        const std::string& fallback) const {
    const std::string s = get(name, fallback);
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
      const size_t end = s.find(',', start);
      out.push_back(end == std::string::npos ? s.substr(start)
                                             : s.substr(start, end - start));
      if (end == std::string::npos) break;
      start = end + 1;
    }
    return out;
  }

  // True if the bare flag "--name" appears anywhere.
  bool has(const std::string& name) const {
    note(name);
    for (const auto& a : args_) {
      if (a == name) return true;
    }
    return false;
  }

  // Exits 2 naming the first "--" token no get*/has call has asked about.
  // Call it once every flag has been read, before any work starts.
  void reject_unknown() const {
    for (const auto& a : args_) {
      if (a.rfind("--", 0) == 0 &&
          std::find(queried_.begin(), queried_.end(), a) == queried_.end()) {
        std::fprintf(stderr, "unknown flag '%s'\n", a.c_str());
        std::exit(2);
      }
    }
  }

  // First non-flag positional argument, or fallback.
  std::string positional(const std::string& fallback) const {
    for (size_t i = 0; i < args_.size(); ++i) {
      if (args_[i].rfind("--", 0) == 0) {
        ++i;  // skip the flag's value
        continue;
      }
      return args_[i];
    }
    return fallback;
  }

 private:
  static double parse_double_or_die(const std::string& name,
                                    const std::string& tok) {
    char* end = nullptr;
    const double v = std::strtod(tok.c_str(), &end);
    if (tok.empty() || end != tok.c_str() + tok.size()) {
      std::fprintf(stderr, "bad value '%s' for %s\n", tok.c_str(),
                   name.c_str());
      std::exit(2);
    }
    return v;
  }

  static uint32_t parse_u32_or_die(const std::string& name,
                                   const std::string& tok) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(tok.c_str(), &end, 10);
    if (tok.empty() || tok[0] == '-' || end != tok.c_str() + tok.size() ||
        v > 0xfffffffful) {
      std::fprintf(stderr, "bad value '%s' for %s\n", tok.c_str(),
                   name.c_str());
      std::exit(2);
    }
    return static_cast<uint32_t>(v);
  }

  static uint32_t require_count(const std::string& name, uint32_t v) {
    if (v == 0) {
      std::fprintf(stderr, "bad value '0' for %s (must be >= 1)\n",
                   name.c_str());
      std::exit(2);
    }
    return v;
  }

  void note(const std::string& name) const { queried_.push_back(name); }

  std::vector<std::string> args_;
  mutable std::vector<std::string> queried_;  // flag names asked about
};

}  // namespace pp::common

#endif  // PUSCHPOOL_COMMON_CLI_H
