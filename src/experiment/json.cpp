#include "experiment/json.hpp"

#include <charconv>
#include <cstdint>
#include <utility>

#include "common/contracts.hpp"

namespace stopwatch::experiment {

bool parse_double_strict(std::string_view s, double& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool JsonValue::as_bool() const {
  SW_EXPECTS(kind_ == Kind::kBool);
  return bool_;
}

double JsonValue::as_number() const {
  SW_EXPECTS(kind_ == Kind::kNumber);
  return number_;
}

const std::string& JsonValue::as_string() const {
  SW_EXPECTS(kind_ == Kind::kString);
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  SW_EXPECTS(kind_ == Kind::kArray);
  return items_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

/// Recursive-descent parser over the full document. Depth-limited so a
/// hostile or corrupted report cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  bool run(JsonValue& out, std::string& error) {
    if (!parse_value(out, 0)) {
      error = error_ + " at offset " + std::to_string(pos_);
      return false;
    }
    skip_whitespace();
    if (pos_ != text_.size()) {
      error = "trailing characters at offset " + std::to_string(pos_);
      return false;
    }
    return true;
  }

 private:
  static constexpr int kMaxDepth = 64;

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool fail(std::string message) {
    error_ = std::move(message);
    return false;
  }

  bool consume(char expected) {
    if (pos_ >= text_.size() || text_[pos_] != expected) {
      return fail(std::string("expected '") + expected + "'");
    }
    ++pos_;
    return true;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      return fail("invalid literal");
    }
    pos_ += literal.size();
    return true;
  }

  bool parse_value(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    skip_whitespace();
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(out, depth);
      case '[':
        return parse_array(out, depth);
      case '"':
        out.kind_ = JsonValue::Kind::kString;
        return parse_string(out.string_);
      case 't':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = true;
        return consume_literal("true");
      case 'f':
        out.kind_ = JsonValue::Kind::kBool;
        out.bool_ = false;
        return consume_literal("false");
      case 'n':
        out.kind_ = JsonValue::Kind::kNull;
        return consume_literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_object(JsonValue& out, int depth) {
    out.kind_ = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_whitespace();
      std::string key;
      if (!parse_string(key)) return false;
      skip_whitespace();
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.members_.emplace_back(std::move(key), std::move(value));
      skip_whitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume('}');
    }
  }

  bool parse_array(JsonValue& out, int depth) {
    out.kind_ = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_whitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!parse_value(value, depth + 1)) return false;
      out.items_.push_back(std::move(value));
      skip_whitespace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      return consume(']');
    }
  }

  bool parse_hex4(std::uint32_t& out) {
    if (pos_ + 4 > text_.size()) return fail("truncated \\u escape");
    out = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<std::size_t>(i)];
      out <<= 4;
      if (c >= '0' && c <= '9') {
        out |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        out |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        out |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        return fail("invalid \\u escape");
      }
    }
    pos_ += 4;
    return true;
  }

  static void append_utf8(std::uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xc0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xe0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (cp & 0x3f));
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        ++pos_;
        continue;
      }
      ++pos_;
      if (pos_ >= text_.size()) return fail("truncated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          std::uint32_t cp = 0;
          if (!parse_hex4(cp)) return false;
          if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: must be followed by \uDC00-\uDFFF.
            if (text_.substr(pos_, 2) != "\\u") {
              return fail("unpaired surrogate");
            }
            pos_ += 2;
            std::uint32_t low = 0;
            if (!parse_hex4(low)) return false;
            if (low < 0xdc00 || low > 0xdfff) {
              return fail("invalid low surrogate");
            }
            cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
          } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            return fail("unpaired surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default:
          return fail("invalid escape character");
      }
    }
    return fail("unterminated string");
  }

  bool parse_number(JsonValue& out) {
    out.kind_ = JsonValue::Kind::kNumber;
    const auto [ptr, ec] = std::from_chars(
        text_.data() + pos_, text_.data() + text_.size(), out.number_);
    if (ec != std::errc{} || ptr == text_.data() + pos_) {
      return fail("invalid number");
    }
    pos_ = static_cast<std::size_t>(ptr - text_.data());
    return true;
  }

  std::string_view text_;
  std::size_t pos_{0};
  std::string error_;
};

bool JsonValue::parse(std::string_view text, JsonValue& out,
                      std::string& error) {
  out = JsonValue();
  JsonParser parser(text);
  return parser.run(out, error);
}

}  // namespace stopwatch::experiment
