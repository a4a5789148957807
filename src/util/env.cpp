#include "util/env.h"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "util/logging.h"
#include "util/strings.h"

namespace coda::util {

Result<long long> parse_strict_int(const std::string& text,
                                   long long min_value) {
  if (text.empty()) {
    return Error{ErrorCode::kParseError, "empty value"};
  }
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size()) {
    return Error{ErrorCode::kParseError,
                 strfmt("'%s' is not an integer", text.c_str())};
  }
  if (errno == ERANGE) {
    return Error{ErrorCode::kParseError,
                 strfmt("'%s' is out of range", text.c_str())};
  }
  if (v < min_value) {
    return Error{ErrorCode::kInvalidArgument,
                 strfmt("%lld is below the minimum %lld", v, min_value)};
  }
  return v;
}

Result<double> parse_strict_double(const std::string& text,
                                   double min_value) {
  if (text.empty()) {
    return Error{ErrorCode::kParseError, "empty value"};
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) {
    return Error{ErrorCode::kParseError,
                 strfmt("'%s' is not a number", text.c_str())};
  }
  if (errno == ERANGE) {
    return Error{ErrorCode::kParseError,
                 strfmt("'%s' is out of range", text.c_str())};
  }
  if (v < min_value) {
    return Error{ErrorCode::kInvalidArgument,
                 strfmt("%g is below the minimum %g", v, min_value)};
  }
  return v;
}

Result<unsigned long long> parse_strict_u64(const std::string& text) {
  // Digits only: strtoull skips leading blanks and wraps a '-' after them.
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return Error{ErrorCode::kParseError,
                 strfmt("'%s' is not an unsigned integer", text.c_str())};
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) {
    return Error{ErrorCode::kParseError,
                 strfmt("'%s' is not an unsigned integer", text.c_str())};
  }
  return v;
}

int env_int(const char* name, int fallback, int min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') {
    return fallback;
  }
  auto parsed = parse_strict_int(raw, min_value);
  if (!parsed.ok()) {
    CODA_LOG_WARN("ignoring %s=%s (%s); using %d", name, raw,
                  parsed.error().message.c_str(), fallback);
    return fallback;
  }
  const long long v = *parsed;
  if (v > std::numeric_limits<int>::max()) {
    CODA_LOG_WARN("ignoring %s=%s (does not fit an int); using %d", name, raw,
                  fallback);
    return fallback;
  }
  return static_cast<int>(v);
}

double env_double(const char* name, double fallback, double min_value) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || raw[0] == '\0') {
    return fallback;
  }
  auto parsed = parse_strict_double(raw, min_value);
  if (!parsed.ok()) {
    CODA_LOG_WARN("ignoring %s=%s (not a number >= %g); using %g", name, raw,
                  min_value, fallback);
    return fallback;
  }
  return *parsed;
}

}  // namespace coda::util
