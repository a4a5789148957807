#include "util/strings.h"

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <cmath>

#include "util/assert.h"

namespace coda::util {

std::string strfmt(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  CODA_ASSERT(needed >= 0);
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(s.substr(start));
      return out;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string trim(const std::string& s) {
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  size_t b = 0;
  size_t e = s.size();
  while (b < e && is_space(s[b])) {
    ++b;
  }
  while (e > b && is_space(s[e - 1])) {
    --e;
  }
  return s.substr(b, e - b);
}

std::string join(const std::vector<std::string>& parts,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string format_duration(double seconds) {
  if (seconds < 0.0) {
    return "-" + format_duration(-seconds);
  }
  if (seconds < 60.0) {
    return strfmt("%.1fs", seconds);
  }
  if (seconds < 3600.0) {
    const int m = static_cast<int>(seconds / 60.0);
    const int s = static_cast<int>(std::fmod(seconds, 60.0));
    return strfmt("%dm%02ds", m, s);
  }
  const int h = static_cast<int>(seconds / 3600.0);
  const int m = static_cast<int>(std::fmod(seconds, 3600.0) / 60.0);
  return strfmt("%dh%02dm", h, m);
}

std::string format_percent(double fraction) {
  return strfmt("%.1f%%", fraction * 100.0);
}

void append_hexfloat(std::string* out, double v) {
  // Written from the IEEE-754 fields in glibc's "%a" layout: normals as
  // 0x1.<hex>p<exp>, subnormals as 0x0.<hex>p-1022, trailing zero digits
  // dropped. Not std::to_chars(hex): it lives in the shared libstdc++, and
  // some releases of that write subnormals normalized ("1p-1074"), so its
  // bytes would depend on the library loaded at run time.
  constexpr uint64_t kMantissaMask = (uint64_t{1} << 52) - 1;
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  uint64_t mantissa = bits & kMantissaMask;

  char buf[32];  // "-0x1.fffffffffffffp+1023" is 24 bytes
  char* p = buf;
  if (bits >> 63) {
    *p++ = '-';
  }
  if (biased == 0x7ff) {
    std::memcpy(p, mantissa == 0 ? "inf" : "nan", 3);
    out->append(buf, p + 3);
    return;
  }
  *p++ = '0';
  *p++ = 'x';
  *p++ = biased == 0 ? '0' : '1';
  int exponent = biased == 0 ? (mantissa == 0 ? 0 : -1022) : biased - 1023;
  if (mantissa != 0) {
    *p++ = '.';
    for (; mantissa != 0; mantissa = (mantissa << 4) & kMantissaMask) {
      *p++ = "0123456789abcdef"[mantissa >> 48];  // top hex digit
    }
  }
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  exponent = exponent < 0 ? -exponent : exponent;
  p = std::to_chars(p, buf + sizeof(buf), exponent).ptr;
  out->append(buf, p);
}

}  // namespace coda::util
