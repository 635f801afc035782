// Minimal command-line flag parsing for the tools/ binaries.
//
// Supports --name=value, --name value, bare boolean --name, and
// positional arguments. Every has()/get*() call records the name it
// asked for, so after a command ran, unread() lists the flags it never
// looked at (typos, or spellings the command does not take).
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace sma {

class Flags {
 public:
  Flags(int argc, const char* const* argv);
  explicit Flags(const std::vector<std::string>& args);

  /// Program name (argv[0]) when constructed from argc/argv.
  const std::string& program() const { return program_; }
  const std::vector<std::string>& positional() const { return positional_; }

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  /// Parse failures fall back to `fallback` and are recorded in errors().
  int get_int(const std::string& name, int fallback) const;
  double get_double(const std::string& name, double fallback) const;
  /// Bare "--x" means true; "--x=false|0|no" means false.
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list ("0,6,12").
  std::vector<int> get_int_list(const std::string& name) const;

  /// Flags present on the command line that no has()/get*() call has
  /// asked for so far, in name order.
  std::vector<std::string> unread() const;

  /// Malformed values seen by the typed getters so far.
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  void parse(const std::vector<std::string>& args);

  std::string program_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> errors_;
  mutable std::set<std::string> read_;
};

}  // namespace sma
