#include "json_check.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace perfbench {
namespace {

constexpr int kMaxDepth = 256;
constexpr std::size_t kLineKeep = 512;  // enough for any metadata row

/// Character source over a string or a file, remembering the current line
/// (truncated) so metadata rows can be recognised as they stream past.
class Source {
 public:
  explicit Source(const std::string& text) : text_(&text) {}
  explicit Source(std::FILE* f) : file_(f), buf_(1 << 20) {}

  int peek() {
    if (text_ != nullptr) {
      return pos_ < text_->size() ? static_cast<unsigned char>((*text_)[pos_])
                                  : EOF;
    }
    if (pos_ == len_) {
      len_ = std::fread(buf_.data(), 1, buf_.size(), file_);
      pos_ = 0;
      if (len_ == 0) return EOF;
    }
    return static_cast<unsigned char>(buf_[pos_]);
  }

  int get() {
    const int c = peek();
    if (c == EOF) return EOF;
    ++pos_;
    ++offset_;
    if (c == '\n') {
      end_line();
    } else if (line_.size() < kLineKeep) {
      line_.push_back(static_cast<char>(c));
    }
    return c;
  }

  void end_line() {
    scan_line();
    line_.clear();
  }

  std::uint64_t offset() const noexcept { return offset_; }
  std::set<long long>& pids() noexcept { return pids_; }

 private:
  void scan_line() {
    if (line_.find("\"process_name\"") == std::string::npos) return;
    const std::size_t at = line_.find("\"pid\":");
    if (at == std::string::npos) return;
    pids_.insert(std::strtoll(line_.c_str() + at + 6, nullptr, 10));
  }

  const std::string* text_ = nullptr;
  std::FILE* file_ = nullptr;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
  std::uint64_t offset_ = 0;
  std::string line_;
  std::set<long long> pids_;
};

class Parser {
 public:
  explicit Parser(Source& src) : src_(src) {}

  TraceCheck run() {
    TraceCheck out;
    skip_ws();
    bool ok = value(0);
    if (ok) {
      skip_ws();
      if (src_.peek() != EOF) ok = fail("trailing data after the value");
    }
    src_.end_line();
    out.valid = ok;
    out.error = error_;
    out.process_pids = std::move(src_.pids());
    return out;
  }

 private:
  bool fail(const char* what) {
    if (error_.empty()) {
      error_ = std::string(what) + " at byte " +
               std::to_string(src_.offset());
    }
    return false;
  }

  void skip_ws() {
    for (;;) {
      const int c = src_.peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      src_.get();
    }
  }

  bool literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (src_.get() != *p) return fail("bad literal");
    }
    return true;
  }

  bool digits() {
    if (!std::isdigit(src_.peek())) return fail("expected a digit");
    while (std::isdigit(src_.peek())) src_.get();
    return true;
  }

  bool number() {
    if (src_.peek() == '-') src_.get();
    if (src_.peek() == '0') {
      src_.get();
    } else if (!digits()) {
      return false;
    }
    if (src_.peek() == '.') {
      src_.get();
      if (!digits()) return false;
    }
    if (src_.peek() == 'e' || src_.peek() == 'E') {
      src_.get();
      if (src_.peek() == '+' || src_.peek() == '-') src_.get();
      if (!digits()) return false;
    }
    return true;
  }

  bool string() {
    if (src_.get() != '"') return fail("expected a string");
    for (;;) {
      const int c = src_.get();
      if (c == EOF) return fail("unterminated string");
      if (c == '"') return true;
      if (c < 0x20) return fail("control character in string");
      if (c != '\\') continue;
      const int e = src_.get();
      if (e == 'u') {
        for (int i = 0; i < 4; ++i) {
          if (!std::isxdigit(src_.get())) return fail("bad \\u escape");
        }
      } else if (e <= 0 || std::strchr("\"\\/bfnrt", e) == nullptr) {
        return fail("bad escape");
      }
    }
  }

  bool value(int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    switch (src_.peek()) {
      case '{': return object(depth);
      case '[': return array(depth);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object(int depth) {
    src_.get();  // '{'
    skip_ws();
    if (src_.peek() == '}') {
      src_.get();
      return true;
    }
    for (;;) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (src_.get() != ':') return fail("expected ':'");
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      const int c = src_.get();
      if (c == '}') return true;
      if (c != ',') return fail("expected ',' or '}'");
    }
  }

  bool array(int depth) {
    src_.get();  // '['
    skip_ws();
    if (src_.peek() == ']') {
      src_.get();
      return true;
    }
    for (;;) {
      skip_ws();
      if (!value(depth + 1)) return false;
      skip_ws();
      const int c = src_.get();
      if (c == ']') return true;
      if (c != ',') return fail("expected ',' or ']'");
    }
  }

  Source& src_;
  std::string error_;
};

}  // namespace

TraceCheck check_json_text(const std::string& text) {
  Source src(text);
  return Parser(src).run();
}

TraceCheck check_json_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    TraceCheck out;
    out.error = "cannot open " + path;
    return out;
  }
  Source src(f);
  TraceCheck out = Parser(src).run();
  std::fclose(f);
  return out;
}

}  // namespace perfbench
