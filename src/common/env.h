// Strict parsing for environment knobs and tool arguments.
//
// Every PPSSD_* knob and every numeric tool argument goes through these
// helpers, so a typo can never silently mean "off" or 0: a number must
// parse in full, and a switch must be 0 or 1.
#pragma once

#include <charconv>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>

#include "common/check.h"

namespace ppssd {

/// `text` parsed in full as a T (an integer type or double); nullopt for
/// anything else — "", "abc", "0.02abc", "-1" for an unsigned T, or a
/// value out of T's range.
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return out;
}

/// $name parsed as a T; `fallback` when unset or empty. Anything that
/// parse_number rejects fails a PPSSD_CHECK naming the variable and its
/// value.
template <typename T>
[[nodiscard]] T env_number(const char* name, T fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::optional<T> out = parse_number<T>(v);
  PPSSD_CHECK_MSG(out.has_value(),
                  (std::string(name) + "='" + v + "' is not a valid number")
                      .c_str());
  return *out;
}

/// $name as a switch: "1" is on, "0" is off, unset or empty is
/// `fallback`. Any other value ("yes", "10", "true") fails a PPSSD_CHECK
/// naming the variable and its value.
[[nodiscard]] inline bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  const std::string_view s(v);
  PPSSD_CHECK_MSG(s == "0" || s == "1",
                  (std::string(name) + "='" + v + "' must be 0 or 1").c_str());
  return s == "1";
}

}  // namespace ppssd
