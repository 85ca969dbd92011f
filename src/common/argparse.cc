#include "common/argparse.h"

#include <charconv>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace mmrfd {

namespace {

/// The value of flag `name` as a T, if all of `value` is one.
template <typename T>
T parse_whole(const std::string& name, const std::string& value,
              const char* what) {
  T out{};
  const char* end = value.data() + value.size();
  const auto [stop, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || stop != end) {
    throw std::invalid_argument("--" + name + ": '" + value + "' is not " +
                                what);
  }
  return out;
}

}  // namespace

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

ArgParser& ArgParser::flag(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  if (flags_.emplace(name, Flag{default_value, help, std::nullopt}).second) {
    order_.push_back(name);
  }
  return *this;
}

bool ArgParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected positional argument: %s\n%s",
                   arg.c_str(), usage().c_str());
      return false;
    }
    arg.erase(0, 2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      value = "true";  // boolean flag form
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      std::fprintf(stderr, "unknown flag: --%s\n%s", arg.c_str(),
                   usage().c_str());
      return false;
    }
    it->second.value = value;
  }
  return true;
}

std::string ArgParser::get(const std::string& name) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    throw std::invalid_argument("flag not registered: " + name);
  }
  return it->second.value.value_or(it->second.default_value);
}

std::int64_t ArgParser::get_int(const std::string& name) const {
  return parse_whole<std::int64_t>(name, get(name), "a 64-bit integer");
}

std::uint64_t ArgParser::get_uint(const std::string& name) const {
  return parse_whole<std::uint64_t>(name, get(name),
                                    "an unsigned 64-bit integer");
}

double ArgParser::get_double(const std::string& name) const {
  return parse_whole<double>(name, get(name), "a number");
}

bool ArgParser::get_bool(const std::string& name) const {
  const std::string v = get(name);
  return v == "true" || v == "1" || v == "yes" || v == "on";
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const auto& f = flags_.at(name);
    os << "  --" << name << " (default: " << f.default_value << ")\n      "
       << f.help << "\n";
  }
  return os.str();
}

}  // namespace mmrfd
