#include "util/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <vector>

#include "util/common.hpp"

namespace grx {

namespace {

/// Parses `value` whole with `parse` (a strtol/strtod wrapper); throws
/// CheckError naming the --key=value form when it was given bare, is
/// empty, has trailing characters, or is out of range.
template <typename Parse>
auto parse_number(std::string_view key, const std::string& value, bool bare,
                  Parse parse) {
  char* end = nullptr;
  errno = 0;
  const auto x = parse(value.c_str(), &end);
  if (bare || value.empty() || *end != '\0' || errno == ERANGE) {
    const std::string flag = "--" + std::string(key);
    throw CheckError(flag + (bare ? " has no value" : "=" + value +
                                                          " is not a number") +
                     "; numeric flags take the form " + flag + "=<value>");
  }
  return x;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg.remove_prefix(2);
      auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        flags_.emplace(std::string(arg), Flag{"1", true});
      } else {
        flags_.emplace(std::string(arg.substr(0, eq)),
                       Flag{std::string(arg.substr(eq + 1)), false});
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

bool Cli::has(std::string_view key) const {
  return flags_.find(key) != flags_.end();
}

std::string Cli::get(std::string_view key, std::string_view def) const {
  auto it = flags_.find(key);
  return it == flags_.end() ? std::string(def) : it->second.value;
}

long Cli::get_int(std::string_view key, long def) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  return parse_number(key, it->second.value, it->second.bare,
                      [](const char* s, char** end) {
                        return std::strtol(s, end, 10);
                      });
}

double Cli::get_double(std::string_view key, double def) const {
  auto it = flags_.find(key);
  if (it == flags_.end()) return def;
  return parse_number(key, it->second.value, it->second.bare,
                      [](const char* s, char** end) {
                        return std::strtod(s, end);
                      });
}

}  // namespace grx
