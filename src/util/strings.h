// Small string/formatting helpers (GCC 12 lacks <format>; benches and logs
// use these printf-style wrappers instead).
#pragma once

#include <charconv>
#include <string>
#include <type_traits>
#include <vector>

namespace coda::util {

// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string> split(const std::string& s, char sep);

// Strips ASCII whitespace from both ends.
std::string trim(const std::string& s);

// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

// Renders seconds as a compact human-readable duration ("3.2s", "14m06s",
// "2h15m"); used in bench tables.
std::string format_duration(double seconds);

// Renders a fraction as a percentage with one decimal ("62.1%").
std::string format_percent(double fraction);

// The number writer behind every machine-read text format (reports,
// snapshots, journals). Both append exactly the bytes printf would write —
// "%a" for doubles, "%d"/"%lld"/"%llu"/"%zu" for integers — so the formats
// are unchanged, but without printf's format-string parsing and locale
// machinery. tests/util_test.cpp holds the printf oracle.
void append_hexfloat(std::string* out, double v);

template <typename Int>
void append_decimal(std::string* out, Int v) {
  static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
  char buf[24];  // 20 digits of UINT64_MAX, or a sign and 19 digits
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace coda::util
