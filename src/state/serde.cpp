#include "state/serde.h"

#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>

#include "util/strings.h"

namespace coda::state {

namespace {

bool is_space(char c) { return c == ' ' || c == '\t' || c == '\r'; }

std::string_view strip(std::string_view s) {
  while (!s.empty() && is_space(s.front())) {
    s.remove_prefix(1);
  }
  while (!s.empty() && is_space(s.back())) {
    s.remove_suffix(1);
  }
  return s;
}

// Pops the next whitespace-separated token off `*rest`; empty view when the
// line is exhausted.
std::string_view pop_token(std::string_view* rest) {
  std::string_view s = *rest;
  while (!s.empty() && is_space(s.front())) {
    s.remove_prefix(1);
  }
  size_t end = 0;
  while (end < s.size() && !is_space(s[end])) {
    ++end;
  }
  *rest = s.substr(end);
  return s.substr(0, end);
}

// The strto* family needs NUL-terminated input; tokens are short, so a
// stack copy is cheap and keeps the Reader zero-copy elsewhere.
constexpr size_t kMaxNumToken = 63;

bool copy_token(std::string_view token, char* buf) {
  if (token.empty() || token.size() > kMaxNumToken) {
    return false;
  }
  for (size_t i = 0; i < token.size(); ++i) {
    buf[i] = token[i];
  }
  buf[token.size()] = '\0';
  return true;
}

bool parse_f64(std::string_view token, double* out) {
  char buf[kMaxNumToken + 1];
  if (!copy_token(token, buf)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + token.size() || errno == ERANGE) {
    return false;
  }
  *out = value;
  return true;
}

bool parse_u64(std::string_view token, uint64_t* out) {
  char buf[kMaxNumToken + 1];
  if (!copy_token(token, buf) || token[0] == '-' || token[0] == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buf, &end, 10);
  if (end != buf + token.size() || errno == ERANGE) {
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

bool parse_i64(std::string_view token, int64_t* out) {
  char buf[kMaxNumToken + 1];
  if (!copy_token(token, buf)) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(buf, &end, 10);
  if (end != buf + token.size() || errno == ERANGE) {
    return false;
  }
  *out = static_cast<int64_t>(value);
  return true;
}

}  // namespace

void Writer::put_f64(double v) {
  out_.push_back(' ');
  util::append_hexfloat(&out_, v);
}

void Writer::put_u64(uint64_t v) {
  out_.push_back(' ');
  util::append_decimal(&out_, v);
}

void Writer::put_i64(int64_t v) {
  out_.push_back(' ');
  util::append_decimal(&out_, v);
}

void Writer::put_token(std::string_view token) {
  out_.push_back(' ');
  out_.append(token.data(), token.size());
}

bool Reader::next() {
  if (failed_) {
    return false;
  }
  while (pos_ < text_.size()) {
    const size_t eol = text_.find('\n', pos_);
    const size_t end = eol == std::string_view::npos ? text_.size() : eol;
    std::string_view line = strip(text_.substr(pos_, end - pos_));
    pos_ = eol == std::string_view::npos ? text_.size() : eol + 1;
    ++line_no_;
    if (line.empty()) {
      continue;
    }
    rest_ = line;
    key_ = pop_token(&rest_);
    return true;
  }
  key_ = std::string_view();
  rest_ = std::string_view();
  return false;
}

bool Reader::expect(std::string_view key) {
  if (!next()) {
    if (!failed_) {
      fail("unexpected end of input; expected '" + std::string(key) + "'");
    }
    return false;
  }
  if (key_ != key) {
    fail("expected key '" + std::string(key) + "', got '" +
         std::string(key_) + "'");
    return false;
  }
  return true;
}

double Reader::f64() {
  double value = 0.0;
  const std::string_view tok = token();
  if (!failed_ && !parse_f64(tok, &value)) {
    fail("bad float token '" + std::string(tok) + "'");
    return 0.0;
  }
  return value;
}

uint64_t Reader::u64() {
  uint64_t value = 0;
  const std::string_view tok = token();
  if (!failed_ && !parse_u64(tok, &value)) {
    fail("bad unsigned token '" + std::string(tok) + "'");
    return 0;
  }
  return value;
}

int64_t Reader::i64() {
  int64_t value = 0;
  const std::string_view tok = token();
  if (!failed_ && !parse_i64(tok, &value)) {
    fail("bad integer token '" + std::string(tok) + "'");
    return 0;
  }
  return value;
}

int Reader::i32() {
  const int64_t value = i64();
  if (!failed_ && (value < std::numeric_limits<int>::min() ||
                   value > std::numeric_limits<int>::max())) {
    fail("int token " + std::to_string(value) + " out of range");
    return 0;
  }
  return static_cast<int>(value);
}

bool Reader::b() {
  const uint64_t value = u64();
  if (!failed_ && value > 1) {
    fail("bad bool token (want 0/1)");
    return false;
  }
  return value != 0;
}

std::string_view Reader::token() {
  if (failed_) {
    return std::string_view();
  }
  const std::string_view tok = pop_token(&rest_);
  if (tok.empty()) {
    fail("missing value token on line with key '" + std::string(key_) + "'");
  }
  return tok;
}

std::string_view Reader::bytes(size_t n) {
  if (failed_) {
    return std::string_view();
  }
  if (text_.size() - pos_ < n) {
    fail("truncated blob: want " + std::to_string(n) + " bytes, have " +
         std::to_string(text_.size() - pos_));
    return std::string_view();
  }
  const std::string_view out = text_.substr(pos_, n);
  pos_ += n;
  // Blob payloads end mid-line from the reader's perspective; count the
  // newlines they contain so later errors still report useful lines.
  for (char c : out) {
    if (c == '\n') {
      ++line_no_;
    }
  }
  return out;
}

util::Status Reader::status() const {
  if (!failed_) {
    return util::Status::Ok();
  }
  return util::Error{util::ErrorCode::kParseError,
                     "snapshot parse error at line " +
                         std::to_string(line_no_) + ": " + error_};
}

void Reader::fail(const std::string& message) {
  if (failed_) {
    return;
  }
  failed_ = true;
  error_ = message;
}

}  // namespace coda::state
