#include "support/json.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "support/error.h"

namespace revft::json {

Value& Value::set(const std::string& key, Value value) {
  REVFT_CHECK_MSG(kind_ == Kind::kObject, "json: set() on a non-object");
  for (Member& m : members_) {
    if (m.first == key) {
      m.second = std::move(value);
      return m.second;
    }
  }
  members_.emplace_back(key, std::move(value));
  return members_.back().second;
}

const Value* Value::find(const std::string& key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const Member& m : members_)
    if (m.first == key) return &m.second;
  return nullptr;
}

Value& Value::push_back(Value value) {
  REVFT_CHECK_MSG(kind_ == Kind::kArray, "json: push_back() on a non-array");
  elements_.push_back(std::move(value));
  return elements_.back();
}

bool Value::as_bool() const {
  REVFT_CHECK_MSG(kind_ == Kind::kBool, "json: as_bool() kind mismatch");
  return bool_;
}

std::int64_t Value::as_int() const {
  if (kind_ == Kind::kUint) {
    REVFT_CHECK_MSG(uint_ <= static_cast<std::uint64_t>(INT64_MAX),
                    "json: as_int() overflow");
    return static_cast<std::int64_t>(uint_);
  }
  REVFT_CHECK_MSG(kind_ == Kind::kInt, "json: as_int() kind mismatch");
  return int_;
}

std::uint64_t Value::as_uint() const {
  if (kind_ == Kind::kInt) {
    REVFT_CHECK_MSG(int_ >= 0, "json: as_uint() on a negative value");
    return static_cast<std::uint64_t>(int_);
  }
  REVFT_CHECK_MSG(kind_ == Kind::kUint, "json: as_uint() kind mismatch");
  return uint_;
}

double Value::as_double() const {
  switch (kind_) {
    case Kind::kInt:
      return static_cast<double>(int_);
    case Kind::kUint:
      return static_cast<double>(uint_);
    case Kind::kDouble:
      return double_;
    default:
      REVFT_CHECK_MSG(false, "json: as_double() kind mismatch");
      return 0.0;
  }
}

const std::string& Value::as_string() const {
  REVFT_CHECK_MSG(kind_ == Kind::kString, "json: as_string() kind mismatch");
  return string_;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

void dump_to(const Value& v, std::string& out, int indent, int depth) {
  const auto newline = [&](int d) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.kind()) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Kind::kInt: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(v.as_int()));
      out += buf;
      break;
    }
    case Kind::kUint: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(v.as_uint()));
      out += buf;
      break;
    }
    case Kind::kDouble: {
      const double d = v.as_double();
      if (!std::isfinite(d)) {
        out += "null";  // JSON has no inf/nan tokens
      } else {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", d);
        out += buf;
      }
      break;
    }
    case Kind::kString:
      out += '"';
      out += escape(v.as_string());
      out += '"';
      break;
    case Kind::kArray: {
      out += '[';
      const auto& elems = v.elements();
      for (std::size_t i = 0; i < elems.size(); ++i) {
        if (i) out += indent > 0 ? "," : ", ";
        newline(depth + 1);
        dump_to(elems[i], out, indent, depth + 1);
      }
      if (!elems.empty()) newline(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      const auto& mems = v.members();
      for (std::size_t i = 0; i < mems.size(); ++i) {
        if (i) out += indent > 0 ? "," : ", ";
        newline(depth + 1);
        out += '"';
        out += escape(mems[i].first);
        out += "\": ";
        dump_to(mems[i].second, out, indent, depth + 1);
      }
      if (!mems.empty()) newline(depth);
      out += '}';
      break;
    }
  }
}

/// Recursive-descent strict parser.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ParseResult run() {
    ParseResult result;
    skip_ws();
    if (!parse_value(result.value)) {
      result.error = error_;
      result.offset = pos_;
      return result;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      result.error = "trailing characters after document";
      result.offset = pos_;
      return result;
    }
    result.ok = true;
    return result;
  }

 private:
  bool fail(const char* msg) {
    if (error_.empty()) error_ = msg;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool literal(const char* word, std::size_t len) {
    if (text_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  /// Reads the escape \uXXXX at pos_ into `cp`.
  bool parse_hex4(std::uint32_t& cp) {
    if (pos_ + 6 > text_.size()) return fail("truncated \\u escape");
    const char* hex = text_.data() + pos_ + 2;
    if (std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4)
      return fail("bad \\u escape");
    pos_ += 6;
    return true;
  }

  /// Appends code point `cp` (< 0x110000) as UTF-8.
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
      return;
    }
    const int tail = cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;  // 10xxxxxx bytes
    const std::uint32_t lead = (0xFFu << (7 - tail)) & 0xFFu;  // 110/1110/11110
    out += static_cast<char>(lead | cp >> (6 * tail));
    for (int k = tail - 1; k >= 0; --k)
      out += static_cast<char>(0x80u | ((cp >> (6 * k)) & 0x3Fu));
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"')
      return fail("expected string");
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20)
        return fail("raw control character in string");
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("truncated escape");
        const char e = text_[pos_ + 1];
        switch (e) {
          case '"':
            out += '"';
            pos_ += 2;
            break;
          case '\\':
            out += '\\';
            pos_ += 2;
            break;
          case '/':
            out += '/';
            pos_ += 2;
            break;
          case 'b':
            out += '\b';
            pos_ += 2;
            break;
          case 'f':
            out += '\f';
            pos_ += 2;
            break;
          case 'n':
            out += '\n';
            pos_ += 2;
            break;
          case 'r':
            out += '\r';
            pos_ += 2;
            break;
          case 't':
            out += '\t';
            pos_ += 2;
            break;
          case 'u': {
            // Decoded to UTF-8, so the \u00XX escape() writes for a
            // control character reads back as that character.
            std::uint32_t cp = 0;
            if (!parse_hex4(cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {  // needs its low half next
              std::uint32_t low = 0;
              if (text_.compare(pos_, 2, "\\u") != 0 || !parse_hex4(low) ||
                  low < 0xDC00 || low > 0xDFFF)
                return fail("unpaired surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              return fail("unpaired surrogate");
            }
            append_utf8(out, cp);
            break;
          }
          default:
            return fail("bad escape character");
        }
      } else {
        out += c;
        ++pos_;
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
      return fail("malformed number");
    if (text_[pos_] == '0') {
      ++pos_;  // leading zeros are not allowed
    } else {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    bool integral = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      integral = false;
      ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return fail("malformed fraction");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9')
        return fail("malformed exponent");
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9')
        ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    if (integral) {
      errno = 0;
      if (token[0] == '-') {
        char* end = nullptr;
        const long long v = std::strtoll(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          out = Value(static_cast<std::int64_t>(v));
          return true;
        }
      } else {
        char* end = nullptr;
        const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
        if (errno == 0 && end == token.c_str() + token.size()) {
          out = Value(static_cast<std::uint64_t>(v));
          return true;
        }
      }
    }
    out = Value(std::strtod(token.c_str(), nullptr));
    return true;
  }

  bool parse_value(Value& out) {
    if (++depth_ > 256) return fail("nesting too deep");
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of document");
    bool ok = false;
    switch (text_[pos_]) {
      case 'n':
        ok = literal("null", 4);
        if (ok) out = Value(nullptr);
        break;
      case 't':
        ok = literal("true", 4);
        if (ok) out = Value(true);
        break;
      case 'f':
        ok = literal("false", 5);
        if (ok) out = Value(false);
        break;
      case '"': {
        std::string s;
        ok = parse_string(s);
        if (ok) out = Value(std::move(s));
        break;
      }
      case '[': {
        ++pos_;
        out = Value::array();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
          ++pos_;
          ok = true;
          break;
        }
        while (true) {
          Value elem;
          if (!parse_value(elem)) return false;
          out.push_back(std::move(elem));
          skip_ws();
          if (pos_ >= text_.size()) return fail("unterminated array");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == ']') {
            ++pos_;
            ok = true;
            break;
          }
          return fail("expected ',' or ']' in array");
        }
        break;
      }
      case '{': {
        ++pos_;
        out = Value::object();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
          ++pos_;
          ok = true;
          break;
        }
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) return false;
          if (out.find(key) != nullptr) return fail("duplicate object key");
          skip_ws();
          if (pos_ >= text_.size() || text_[pos_] != ':')
            return fail("expected ':' in object");
          ++pos_;
          Value member;
          if (!parse_value(member)) return false;
          out.set(key, std::move(member));
          skip_ws();
          if (pos_ >= text_.size()) return fail("unterminated object");
          if (text_[pos_] == ',') {
            ++pos_;
            continue;
          }
          if (text_[pos_] == '}') {
            ++pos_;
            ok = true;
            break;
          }
          return fail("expected ',' or '}' in object");
        }
        break;
      }
      default:
        ok = parse_number(out);
    }
    --depth_;
    return ok;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(*this, out, indent, 0);
  return out;
}

ParseResult parse(const std::string& text) { return Parser(text).run(); }

}  // namespace revft::json
