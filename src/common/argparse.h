// A tiny flag parser for bench/example binaries: --name=value / --name value
// / boolean --flag. Unknown flags are an error (typos in sweep scripts must
// not pass silently).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mmrfd {

class ArgParser {
 public:
  ArgParser(std::string program_description);

  /// Registers a flag with a default; returns *this for chaining.
  ArgParser& flag(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Parses argv. Returns false (after printing usage) on --help or error.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get(const std::string& name) const;
  /// The numeric getters throw std::invalid_argument, naming the flag,
  /// unless the whole value parses as the type (decimal, no sign on the
  /// unsigned one) and fits it.
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] std::uint64_t get_uint(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string default_value;
    std::string help;
    std::optional<std::string> value;
  };
  std::string description_;
  std::vector<std::string> order_;
  std::map<std::string, Flag> flags_;
};

}  // namespace mmrfd
