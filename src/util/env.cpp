#include "util/env.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"

namespace ramp {

std::optional<std::string> env_string(const std::string& name) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return std::string(raw);
}

std::uint64_t parse_u64(const std::string& text, const std::string& what) {
  std::uint64_t v = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, v, 10);
  if (ec == std::errc::result_out_of_range) {
    throw InvalidArgument(what + "='" + text +
                          "' overflows a 64-bit unsigned integer");
  }
  if (ec != std::errc{} || ptr != last || text.empty()) {
    throw InvalidArgument("cannot parse " + what + "='" + text +
                          "' as an unsigned integer (digits only; no sign, "
                          "whitespace, or suffix)");
  }
  return v;
}

std::uint64_t env_u64(const std::string& name, std::uint64_t fallback) {
  const auto raw = env_string(name);
  if (!raw) return fallback;
  return parse_u64(*raw, "environment variable " + name);
}

std::size_t env_jobs(const std::string& name, std::size_t fallback) {
  const auto v = env_u64(name, fallback);
  RAMP_REQUIRE(v > 0, "environment variable " + name + " must be at least 1");
  return static_cast<std::size_t>(v);
}

namespace {

std::string to_lower(const std::string& s) {
  std::string lower = s;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char ch) { return static_cast<char>(std::tolower(ch)); });
  return lower;
}

}  // namespace

bool env_on_off(const std::string& name, bool fallback) {
  const auto raw = env_string(name);
  if (!raw) return fallback;
  const std::string lower = to_lower(*raw);
  if (lower == "on" || lower == "1" || lower == "true" || lower == "yes") {
    return true;
  }
  if (lower == "off" || lower == "0" || lower == "false" || lower == "no") {
    return false;
  }
  throw InvalidArgument("environment variable " + name + "='" + *raw +
                        "' is not a switch (use on/1/true/yes or "
                        "off/0/false/no)");
}

std::optional<std::string> env_on_off_or_value(const std::string& name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  const std::string lower = to_lower(*raw);
  if (lower == "off" || lower == "0" || lower == "false" || lower == "no") {
    return std::nullopt;
  }
  if (lower == "on" || lower == "1" || lower == "true" || lower == "yes") {
    return std::string();
  }
  return *raw;
}

std::optional<double> env_double(const std::string& name) {
  const auto raw = env_string(name);
  if (!raw) return std::nullopt;
  char* end = nullptr;
  const double v = std::strtod(raw->c_str(), &end);
  if (end == nullptr || *end != '\0' || raw->empty() || !std::isfinite(v)) {
    throw InvalidArgument("environment variable " + name + "='" + *raw +
                          "' is not a finite number");
  }
  return v;
}

std::string output_dir() {
  return env_string("RAMP_OUT_DIR").value_or("out");
}

}  // namespace ramp
