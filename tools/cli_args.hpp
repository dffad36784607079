// Strict numeric option values for the command-line tools: a value parses
// only when all of it is a number that fits the option's type.  Anything
// else — an empty value, trailing characters, a sign on an unsigned
// option, a value out of range — is a usage error (exit 2) that names the
// option, never a silent zero or a wrapped count.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <type_traits>

/// `value`, given for option `opt`, as a T; exits 2 when it is not one.
template <typename T>
T parse_number(const char* opt, const char* value) {
  char* end = nullptr;
  errno = 0;
  bool ok =
      *value != '\0' && !std::isspace(static_cast<unsigned char>(*value));
  T out{};
  if constexpr (std::is_floating_point_v<T>) {
    out = static_cast<T>(std::strtod(value, &end));
  } else if constexpr (std::is_signed_v<T>) {
    const long long x = std::strtoll(value, &end, 10);
    ok = ok && x >= std::numeric_limits<T>::min() &&
         x <= std::numeric_limits<T>::max();
    out = static_cast<T>(x);
  } else {
    ok = ok && *value != '-';  // strtoull would wrap a negative value
    const unsigned long long x = std::strtoull(value, &end, 10);
    ok = ok && x <= std::numeric_limits<T>::max();
    out = static_cast<T>(x);
  }
  if (!ok || errno != 0 || end == value || *end != '\0') {
    std::fprintf(stderr, "%s: invalid value \"%s\"\n", opt, value);
    std::exit(2);
  }
  return out;
}
