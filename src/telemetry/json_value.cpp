#include "telemetry/json_value.h"

#include <fstream>
#include <sstream>
#include <utility>

#include "support/parse.h"

namespace radiomc::telemetry {

namespace {
const JsonValue kNullSentinel;
}  // namespace

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const noexcept {
  const JsonValue* v = find(key);
  return v != nullptr ? *v : kNullSentinel;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}
JsonValue JsonValue::make_number(double d,
                                 std::optional<std::uint64_t> exact) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.num_ = d;
  v.u64_ = exact;
  return v;
}
JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.str_ = std::move(s);
  return v;
}
JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.arr_ = std::move(items);
  return v;
}
JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.obj_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonParseResult run() {
    JsonParseResult r;
    JsonValue v;
    if (!parse_value(&v)) {
      r.error = error_;
      return r;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing garbage after document");
      r.error = error_;
      return r;
    }
    r.ok = true;
    r.value = std::move(v);
    return r;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  bool fail(const std::string& what) {
    if (error_.empty())
      error_ = what + " at byte " + std::to_string(pos_);
    return false;
  }

  bool expect(char c) {
    if (pos_ >= text_.size() || text_[pos_] != c)
      return fail(std::string("expected '") + c + "'");
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue* out) {
    skip_ws();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
      case '[': {
        if (depth_ == kMaxDepth) return fail("nesting deeper than 512");
        ++depth_;
        const bool ok =
            text_[pos_] == '{' ? parse_object(out) : parse_array(out);
        --depth_;
        return ok;
      }
      case '"': {
        std::string s;
        if (!parse_string(&s)) return false;
        *out = JsonValue::make_string(std::move(s));
        return true;
      }
      case 't':
        if (text_.substr(pos_, 4) != "true") return fail("bad literal");
        pos_ += 4;
        *out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (text_.substr(pos_, 5) != "false") return fail("bad literal");
        pos_ += 5;
        *out = JsonValue::make_bool(false);
        return true;
      case 'n':
        if (text_.substr(pos_, 4) != "null") return fail("bad literal");
        pos_ += 4;
        *out = JsonValue::make_null();
        return true;
      default: return parse_number(out);
    }
  }

  bool parse_object(JsonValue* out) {
    if (!expect('{')) return false;
    std::vector<std::pair<std::string, JsonValue>> members;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = JsonValue::make_object(std::move(members));
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (!expect(':')) return false;
      JsonValue v;
      if (!parse_value(&v)) return false;
      members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        *out = JsonValue::make_object(std::move(members));
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  bool parse_array(JsonValue* out) {
    if (!expect('[')) return false;
    std::vector<JsonValue> items;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = JsonValue::make_array(std::move(items));
      return true;
    }
    for (;;) {
      JsonValue v;
      if (!parse_value(&v)) return false;
      items.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        *out = JsonValue::make_array(std::move(items));
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_string(std::string* out) {
    if (!expect('"')) return false;
    std::string s;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        *out = std::move(s);
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        return fail("raw control character in string");
      }
      if (c != '\\') {
        s += c;
        continue;
      }
      if (pos_ >= text_.size()) return fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': s += '"'; break;
        case '\\': s += '\\'; break;
        case '/': s += '/'; break;
        case 'b': s += '\b'; break;
        case 'f': s += '\f'; break;
        case 'n': s += '\n'; break;
        case 'r': s += '\r'; break;
        case 't': s += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("bad \\u escape digit");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by our writers; a lone surrogate encodes as-is).
          if (cp < 0x80) {
            s += static_cast<char>(cp);
          } else if (cp < 0x800) {
            s += static_cast<char>(0xC0 | (cp >> 6));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            s += static_cast<char>(0xE0 | (cp >> 12));
            s += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            s += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: return fail("unknown escape");
      }
    }
    return fail("unterminated string");
  }

  bool is_digit_at(std::size_t i) const {
    return i < text_.size() && text_[i] >= '0' && text_[i] <= '9';
  }
  void skip_digits() {
    while (is_digit_at(pos_)) ++pos_;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(JsonValue* out) {
    const std::size_t start = pos_;
    const bool negative = text_[pos_] == '-';
    if (negative) ++pos_;
    if (!is_digit_at(pos_))
      return fail(negative ? "expected a digit after '-'" : "expected a value");
    if (text_[pos_] == '0' && is_digit_at(pos_ + 1))
      return fail("leading zero in number");
    skip_digits();
    const std::size_t int_end = pos_;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!is_digit_at(pos_)) return fail("expected a digit after '.'");
      skip_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!is_digit_at(pos_)) return fail("expected a digit in exponent");
      skip_digits();
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    const bool digits_only = !negative && pos_ == int_end;
    const std::optional<double> d = parse_f64(token);
    if (!d) {
      pos_ = start;
      return fail("number out of range");
    }
    *out = JsonValue::make_number(
        *d, digits_only ? parse_u64(token) : std::nullopt);
    return true;
  }

  // Bounds the recursion, so a line of 10^6 '[' fails instead of
  // overflowing the stack; the writers nest a handful of levels.
  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::string error_;
};

}  // namespace

JsonParseResult parse_json(std::string_view text) {
  return Parser(text).run();
}

JsonParseResult parse_json_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    JsonParseResult r;
    r.error = "cannot open " + path;
    return r;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  JsonParseResult r = parse_json(buf.str());
  if (!r.ok) r.error = path + ": " + r.error;
  return r;
}

}  // namespace radiomc::telemetry
