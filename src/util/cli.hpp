// Minimal --key=value command-line parsing for bench and example binaries.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace grx {

/// Parses flags of the form `--key=value` or bare `--flag` (value "1").
/// Positional arguments are collected in order. Unknown flags are kept.
/// The numeric getters take only the `--key=value` form: a bare flag or a
/// value that does not parse whole throws CheckError, so `--batch 16`
/// (which leaves "16" positional) fails loudly instead of running as 1.
class Cli {
 public:
  Cli(int argc, const char* const* argv);

  bool has(std::string_view key) const;
  std::string get(std::string_view key, std::string_view def = "") const;
  long get_int(std::string_view key, long def) const;
  double get_double(std::string_view key, double def) const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  struct Flag {
    std::string value;
    bool bare = false;  ///< given as `--key`, without `=value`
  };
  std::map<std::string, Flag, std::less<>> flags_;
  std::vector<std::string> positional_;
};

}  // namespace grx
