#include "common/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace limcap {

namespace {

const Json& NullJson() {
  static const Json kNull;
  return kNull;
}

/// Recursive-descent parser over a string_view cursor. Depth-bounded so a
/// hostile frame cannot blow the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    LIMCAP_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr std::size_t kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(std::size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == 'n') {
      if (ConsumeWord("null")) return Json();
      return Error("invalid literal");
    }
    if (c == 't') {
      if (ConsumeWord("true")) return Json(true);
      return Error("invalid literal");
    }
    if (c == 'f') {
      if (ConsumeWord("false")) return Json(false);
      return Error("invalid literal");
    }
    if (c == '"') return ParseString();
    if (c == '[') return ParseArray(depth);
    if (c == '{') return ParseObject(depth);
    if (c == '-' || (std::isdigit(static_cast<unsigned char>(c)) != 0)) {
      return ParseNumber();
    }
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<Json> ParseString() {
    LIMCAP_ASSIGN_OR_RETURN(std::string text, ParseRawString());
    return Json(std::move(text));
  }

  Result<std::string> ParseRawString() {
    if (!Consume('"')) return Error("expected '\"'");
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char escape = text_[pos_++];
        switch (escape) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = text_[pos_++];
              code <<= 4U;
              if (h >= '0' && h <= '9') {
                code |= static_cast<unsigned>(h - '0');
              } else if (h >= 'a' && h <= 'f') {
                code |= static_cast<unsigned>(h - 'a' + 10);
              } else if (h >= 'A' && h <= 'F') {
                code |= static_cast<unsigned>(h - 'A' + 10);
              } else {
                return Error("invalid \\u escape");
              }
            }
            // UTF-8 encode the BMP code point (surrogate pairs are not
            // combined — the protocol never emits them).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xC0 | (code >> 6U));
              out += static_cast<char>(0x80 | (code & 0x3FU));
            } else {
              out += static_cast<char>(0xE0 | (code >> 12U));
              out += static_cast<char>(0x80 | ((code >> 6U) & 0x3FU));
              out += static_cast<char>(0x80 | (code & 0x3FU));
            }
            break;
          }
          default:
            return Error("invalid escape");
        }
        continue;
      }
      out += c;
    }
    return Error("unterminated string");
  }

  Result<Json> ParseNumber() {
    const std::size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    std::string literal(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(literal.c_str(), &end);
    if (end != literal.c_str() + literal.size() || !std::isfinite(value)) {
      return Error("invalid number '" + literal + "'");
    }
    return Json(value);
  }

  Result<Json> ParseArray(std::size_t depth) {
    Consume('[');
    Json out = Json::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return out;
    while (true) {
      LIMCAP_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      out.Append(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return out;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<Json> ParseObject(std::size_t depth) {
    Consume('{');
    Json out = Json::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return out;
    while (true) {
      SkipWhitespace();
      LIMCAP_ASSIGN_OR_RETURN(std::string key, ParseRawString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      LIMCAP_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      out.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume('}')) return out;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void DumpString(const std::string& text, std::string* out) {
  *out += '"';
  for (char c : text) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(c));
          *out += buffer;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

void DumpNumber(double value, std::string* out) {
  // JSON has no NaN or infinity; they render as null.
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  // Integral values (the common case: ids, counters) render without a
  // fraction; everything else uses %.17g, enough to round-trip a double.
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%lld",
                  static_cast<long long>(value));
    *out += buffer;
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  *out += buffer;
}

void DumpValue(const Json& value, std::string* out) {
  switch (value.kind()) {
    case Json::Kind::kNull:
      *out += "null";
      return;
    case Json::Kind::kBool:
      *out += value.AsBool() ? "true" : "false";
      return;
    case Json::Kind::kNumber:
      DumpNumber(value.AsNumber(), out);
      return;
    case Json::Kind::kString:
      DumpString(value.AsString(), out);
      return;
    case Json::Kind::kArray: {
      *out += '[';
      bool first = true;
      for (const Json& element : value.array()) {
        if (!first) *out += ',';
        first = false;
        DumpValue(element, out);
      }
      *out += ']';
      return;
    }
    case Json::Kind::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, element] : value.object()) {
        if (!first) *out += ',';
        first = false;
        DumpString(key, out);
        *out += ':';
        DumpValue(element, out);
      }
      *out += '}';
      return;
    }
  }
}

}  // namespace

Json& Json::operator=(const Json& other) {
  if (this == &other) return *this;
  kind_ = other.kind_;
  bool_ = other.bool_;
  number_ = other.number_;
  string_ = other.string_;
  array_ = other.array_;
  object_ = other.object_ != nullptr
                ? std::make_unique<Object>(*other.object_)
                : nullptr;
  return *this;
}

Json::Object& Json::object() {
  if (object_ == nullptr) object_ = std::make_unique<Object>();
  return *object_;
}

const Json::Object& Json::object() const {
  static const Object kEmpty;
  return object_ != nullptr ? *object_ : kEmpty;
}

Json& Json::Set(const std::string& key, Json value) {
  kind_ = Kind::kObject;
  object()[key] = std::move(value);
  return *this;
}

void Json::Append(Json value) {
  kind_ = Kind::kArray;
  array_.push_back(std::move(value));
}

const Json& Json::Get(std::string_view key) const {
  if (!is_object() || object_ == nullptr) return NullJson();
  auto it = object_->find(std::string(key));
  return it == object_->end() ? NullJson() : it->second;
}

bool Json::Has(std::string_view key) const {
  return is_object() && object_ != nullptr &&
         object_->count(std::string(key)) > 0;
}

Result<std::uint64_t> Json::GetUnsigned(std::string_view key,
                                        std::uint64_t fallback) const {
  const Json& value = Get(key);
  if (value.is_null()) return fallback;
  constexpr double kTwoTo64 = 18446744073709551616.0;
  const double number = value.AsNumber(-1);
  // Written so NaN fails every comparison and lands in the error.
  if (!(number >= 0 && number < kTwoTo64 && number == std::floor(number))) {
    std::string message(key);
    message += " must be a whole number in [0, 2^64)";
    return Status::InvalidArgument(message);
  }
  return static_cast<std::uint64_t>(number);
}

std::string Json::Dump() const {
  std::string out;
  DumpValue(*this, &out);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  Parser parser(text);
  return parser.ParseDocument();
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull: return true;
    case Kind::kBool: return bool_ == other.bool_;
    case Kind::kNumber: return number_ == other.number_;
    case Kind::kString: return string_ == other.string_;
    case Kind::kArray: return array_ == other.array_;
    case Kind::kObject: return object() == other.object();
  }
  return false;
}

}  // namespace limcap
