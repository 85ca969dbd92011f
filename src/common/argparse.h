// The one flag reader of every binary: --name=value / --name value / a bare
// boolean --flag. Each flag is bound to a typed variable when it is
// registered, and parse() alone converts and checks the values: a value that
// does not convert whole into its variable's type, an unknown flag or a
// stray argument fails the parse (typos in sweep scripts must not pass
// silently), so a binary reads its flags from plain typed locals.
#pragma once

#include <charconv>
#include <concepts>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace mmrfd {

namespace argparse_detail {

// Each read() takes all of `text` or fails; each show() prints a default.
bool read(std::string_view text, bool& out);
bool read(std::string_view text, double& out);
bool read(std::string_view text, std::string& out);
std::string show(bool value);
std::string show(double value);
std::string show(const std::string& value);

template <typename T>
concept Integer = std::integral<T> && !std::same_as<T, bool>;

/// Decimal, no '+', a '-' only for a signed T, and within T's range.
template <Integer T>
bool read(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && stop == end;
}

/// A comma list: every entry one whole T. The empty text is the empty list.
template <Integer T>
bool read(std::string_view text, std::vector<T>& out) {
  out.clear();
  if (text.empty()) return true;
  for (std::size_t start = 0;;) {
    const std::size_t comma = text.find(',', start);
    if (!read(text.substr(start, comma - start), out.emplace_back())) {
      return false;
    }
    if (comma == std::string_view::npos) return true;
    start = comma + 1;
  }
}

template <Integer T>
std::string show(T value) {
  return std::to_string(value);
}

template <Integer T>
std::string show(const std::vector<T>& values) {
  std::string out;
  for (const T v : values) out += (out.empty() ? "" : ",") + std::to_string(v);
  return out;
}

template <Integer T>
std::string range() {
  return "[" + std::to_string(std::numeric_limits<T>::min()) + ", " +
         std::to_string(std::numeric_limits<T>::max()) + "]";
}

/// What a value of T must look like, for the error line.
template <typename T>
std::string expected() {
  if constexpr (std::same_as<T, bool>) {
    return "one of true, false, 1, 0, yes, no, on, off";
  } else if constexpr (std::same_as<T, double>) {
    return "a number";
  } else if constexpr (std::same_as<T, std::string>) {
    return "a string";
  } else if constexpr (Integer<T>) {
    return "an integer in " + range<T>();
  } else {
    return "a comma list of integers in " + range<typename T::value_type>();
  }
}

}  // namespace argparse_detail

class ArgParser {
 public:
  explicit ArgParser(std::string program_description);

  /// Binds --name to `target`, whose value now is the default --help
  /// prints; parse() stores the command line's value there. T is any
  /// integer type, double, bool, std::string, or a std::vector of an
  /// integer type (a comma list). Returns *this for chaining.
  template <typename T>
  ArgParser& flag(const std::string& name, T& target,
                  const std::string& help) {
    return add(Flag{name, argparse_detail::show(target), help,
                    argparse_detail::expected<T>(), std::same_as<T, bool>,
                    [&target](std::string_view text) {
                      T value{};
                      if (!argparse_detail::read(text, value)) return false;
                      target = std::move(value);
                      return true;
                    }});
  }

  /// Parses argv into the bound variables. std::nullopt: run. Otherwise the
  /// exit status: 0 after printing the usage for --help or -h, 2 after
  /// printing one stderr line that names the offending flag or argument.
  [[nodiscard]] std::optional<int> parse(int argc, const char* const* argv);

  [[nodiscard]] std::string usage() const;

 private:
  struct Flag {
    std::string name;
    std::string default_value;
    std::string help;
    std::string expected;
    bool is_bool;  ///< a bare --name means true
    std::function<bool(std::string_view)> set;
  };
  ArgParser& add(Flag flag);

  std::string description_;
  std::vector<Flag> flags_;  // registration order, which --help keeps
};

}  // namespace mmrfd
