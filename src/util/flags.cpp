#include "util/flags.hpp"

#include <cstdlib>

namespace sma {

Flags::Flags(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  parse(args);
}

Flags::Flags(const std::vector<std::string>& args) { parse(args); }

void Flags::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" only when the next token is not itself a flag;
    // otherwise a bare boolean.
    if (i + 1 < args.size() && args[i + 1].rfind("--", 0) != 0) {
      values_[body] = args[i + 1];
      ++i;
    } else {
      values_[body] = "";
    }
  }
}

bool Flags::has(const std::string& name) const {
  read_.insert(name);
  return values_.count(name) > 0;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int Flags::get_int(const std::string& name, int fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long v = std::strtol(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + name + ": not an integer: " + it->second);
    return fallback;
  }
  return static_cast<int>(v);
}

double Flags::get_double(const std::string& name, double fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0') {
    errors_.push_back("--" + name + ": not a number: " + it->second);
    return fallback;
  }
  return v;
}

bool Flags::get_bool(const std::string& name, bool fallback) const {
  read_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& v = it->second;
  if (v.empty() || v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  errors_.push_back("--" + name + ": not a boolean: " + v);
  return fallback;
}

std::vector<int> Flags::get_int_list(const std::string& name) const {
  read_.insert(name);
  std::vector<int> out;
  const auto it = values_.find(name);
  if (it == values_.end()) return out;
  std::string token;
  auto flush = [&] {
    if (token.empty()) return;
    char* end = nullptr;
    const long v = std::strtol(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0')
      errors_.push_back("--" + name + ": bad list entry: " + token);
    else
      out.push_back(static_cast<int>(v));
    token.clear();
  };
  for (const char ch : it->second) {
    if (ch == ',') flush();
    else token += ch;
  }
  flush();
  return out;
}

std::vector<std::string> Flags::unread() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : values_) {
    (void)value;
    if (read_.count(name) == 0) out.push_back(name);
  }
  return out;
}

}  // namespace sma
