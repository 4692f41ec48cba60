// Small string helpers used by the text pipeline, the table writer and
// the command-line front ends.

#ifndef RETINA_COMMON_STRING_UTIL_H_
#define RETINA_COMMON_STRING_UTIL_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "common/status.h"

namespace retina {

/// Splits on a single-character delimiter; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on runs of ASCII whitespace; no empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins parts with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// ASCII lowercase copy.
std::string ToLower(std::string_view s);

/// Strips leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Formats a double with `digits` fractional digits (fixed notation).
std::string FormatDouble(double v, int digits);

namespace string_util_internal {
Status NumberFlagError(std::string_view flag, std::string_view text,
                       bool integer, std::string_view lo, std::string_view hi);
template <typename T>
std::string ToChars(T v) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}
}  // namespace string_util_internal

/// Parses all of `text`, the value of numeric command-line flag `flag`,
/// into `*out`. An integer type takes decimal digits only (no sign, space,
/// prefix or suffix), double takes decimal or exponent notation, and the
/// value must lie in [lo, hi]. Anything else is a one-line InvalidArgument
/// naming the flag, the range and the value; `*out` is then unchanged.
template <typename T>
Status ParseNumberFlag(std::string_view flag, std::string_view text, T lo,
                       T hi, T* out) {
  static_assert(std::is_arithmetic_v<T>);
  constexpr bool kInteger = std::is_integral_v<T>;
  const char* end = text.data() + text.size();
  T v{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  const bool digits_only =
      !kInteger || text.find_first_not_of("0123456789") == text.npos;
  if (digits_only && ec == std::errc() && ptr == end && v >= lo && v <= hi) {
    *out = v;
    return Status::OK();
  }
  return string_util_internal::NumberFlagError(
      flag, text, kInteger, string_util_internal::ToChars(lo),
      string_util_internal::ToChars(hi));
}

}  // namespace retina

#endif  // RETINA_COMMON_STRING_UTIL_H_
