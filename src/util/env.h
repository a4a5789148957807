// Strict environment-variable parsing shared by every knob that reads a
// number from the environment (CODA_JOBS, the CODA_SERVE_* service limits).
//
// The old pattern — std::atoi and silently falling back — turned typos like
// CODA_JOBS=abc or CODA_JOBS=0 into "use all cores" with no hint that the
// setting was ignored. These helpers demand the whole value parse, enforce a
// lower bound, and log one warning naming the variable and the rejected
// value before falling back.
#pragma once

#include <string>

#include "util/result.h"

namespace coda::util {

// Parses `text` as a base-10 integer. The entire string must be consumed
// (no trailing junk), the value must fit a long long, and it must be
// >= min_value. Fails with kParseError / kInvalidArgument otherwise.
Result<long long> parse_strict_int(const std::string& text,
                                   long long min_value);

// Same contract for doubles: whole-string parse, no overflow (ERANGE),
// value >= min_value. Accepts anything strtod does (including hexfloats).
Result<double> parse_strict_double(const std::string& text, double min_value);

// Full-u64-range strict parse (seeds, job ids). Digits only: a sign or a
// leading blank is rejected up front — strtoull would silently wrap "-1".
Result<unsigned long long> parse_strict_u64(const std::string& text);

// Reads integer env var `name`. Returns `fallback` when the variable is
// unset or empty. When it is set but malformed or below `min_value`, logs a
// warning naming the variable and the rejected value, then returns
// `fallback`.
int env_int(const char* name, int fallback, int min_value = 1);

// Same contract for doubles (used by pacing/rate knobs).
double env_double(const char* name, double fallback, double min_value);

}  // namespace coda::util
