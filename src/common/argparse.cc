#include "common/argparse.h"

#include <cstdio>
#include <sstream>

namespace mmrfd {

namespace argparse_detail {

bool read(std::string_view text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

bool read(std::string_view text, double& out) {
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && stop == end;
}

bool read(std::string_view text, std::string& out) {
  out = text;
  return true;
}

std::string show(bool value) { return value ? "true" : "false"; }

std::string show(double value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

std::string show(const std::string& value) { return value; }

}  // namespace argparse_detail

ArgParser::ArgParser(std::string program_description)
    : description_(std::move(program_description)) {}

ArgParser& ArgParser::add(Flag flag) {
  flags_.push_back(std::move(flag));
  return *this;
}

std::optional<int> ArgParser::parse(int argc, const char* const* argv) {
  std::string program = argc > 0 ? argv[0] : "";
  program.erase(0, program.rfind('/') + 1);
  const auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "%s: %s (see --help)\n", program.c_str(),
                 what.c_str());
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      return 0;
    }
    if (!arg.starts_with("--")) {
      return fail("unexpected argument '" + arg + "'");
    }
    arg.erase(0, 2);
    std::optional<std::string> value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg.resize(eq);
    }
    auto it = flags_.begin();
    while (it != flags_.end() && it->name != arg) ++it;
    if (it == flags_.end()) return fail("unknown flag --" + arg);
    const bool next_is_value =
        i + 1 < argc && !std::string_view(argv[i + 1]).starts_with("--");
    if (!value && next_is_value) value = argv[++i];
    if (!value && it->is_bool) value = "true";
    if (!value) return fail("--" + arg + " needs a value");
    if (!it->set(*value)) {
      return fail("--" + arg + ": '" + *value + "' is not " + it->expected);
    }
  }
  return std::nullopt;
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const Flag& f : flags_) {
    os << "  --" << f.name << " (default: " << f.default_value << ")\n      "
       << f.help << "\n";
  }
  return os.str();
}

}  // namespace mmrfd
