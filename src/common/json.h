#ifndef LIMCAP_COMMON_JSON_H_
#define LIMCAP_COMMON_JSON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace limcap {

/// A minimal JSON document model for the serve protocol (and any other
/// machine interface that needs structured requests): null, bool, number
/// (double), string, array, object. Small by design — no streaming, no
/// comments, no non-finite numbers — because every frame on the wire is a
/// short control or result message, never bulk data. Dump() renders a
/// non-finite number as null.
///
/// Objects keep their keys sorted (std::map), so Dump() is canonical:
/// two equal documents render byte-identically, which the protocol tests
/// and golden files rely on.
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : kind_(Kind::kNull) {}
  Json(bool value) : kind_(Kind::kBool), bool_(value) {}  // NOLINT
  Json(double value) : kind_(Kind::kNumber), number_(value) {}  // NOLINT
  Json(int value) : kind_(Kind::kNumber), number_(value) {}  // NOLINT
  Json(unsigned value) : kind_(Kind::kNumber), number_(value) {}  // NOLINT
  Json(std::int64_t value)  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  Json(std::uint64_t value)  // NOLINT
      : kind_(Kind::kNumber), number_(static_cast<double>(value)) {}
  Json(std::string value)  // NOLINT
      : kind_(Kind::kString), string_(std::move(value)) {}
  Json(const char* value) : kind_(Kind::kString), string_(value) {}  // NOLINT
  Json(Array value) : kind_(Kind::kArray), array_(std::move(value)) {}  // NOLINT
  Json(Object value) : kind_(Kind::kObject) {  // NOLINT
    object_ = std::make_unique<Object>(std::move(value));
  }

  Json(const Json& other) { *this = other; }
  Json& operator=(const Json& other);
  Json(Json&&) noexcept = default;
  Json& operator=(Json&&) noexcept = default;

  static Json MakeArray() { return Json(Array{}); }
  static Json MakeObject() { return Json(Object{}); }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool AsBool(bool fallback = false) const {
    return is_bool() ? bool_ : fallback;
  }
  double AsNumber(double fallback = 0) const {
    return is_number() ? number_ : fallback;
  }
  const std::string& AsString() const { return string_; }

  Array& array() { return array_; }
  const Array& array() const { return array_; }
  Object& object();
  const Object& object() const;

  /// Object member access. Get returns null for a missing key (or on a
  /// non-object), so readers chain lookups without branching.
  Json& Set(const std::string& key, Json value);
  void Append(Json value);
  const Json& Get(std::string_view key) const;
  bool Has(std::string_view key) const;

  /// Typed member readers with fallbacks — the protocol's tolerant-read
  /// convention: absent or mistyped fields take the fallback.
  double GetNumber(std::string_view key, double fallback = 0) const {
    return Get(key).AsNumber(fallback);
  }
  bool GetBool(std::string_view key, bool fallback = false) const {
    return Get(key).AsBool(fallback);
  }
  std::string GetString(std::string_view key,
                        std::string fallback = std::string()) const {
    const Json& value = Get(key);
    return value.is_string() ? value.AsString() : std::move(fallback);
  }
  /// The checked reader for peer-supplied counts and ids: `fallback` when
  /// the member is absent or null, InvalidArgument unless it is a whole
  /// number in [0, 2^64) — the values a cast to uint64_t keeps defined.
  Result<std::uint64_t> GetUnsigned(std::string_view key,
                                    std::uint64_t fallback = 0) const;

  /// Serializes canonically (sorted keys, no whitespace, shortest
  /// round-tripping number form).
  std::string Dump() const;

  /// Parses one document; trailing non-whitespace is an error.
  static Result<Json> Parse(std::string_view text);

  bool operator==(const Json& other) const;
  bool operator!=(const Json& other) const { return !(*this == other); }

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  Array array_;
  /// Behind a pointer so Json stays movable despite the recursive map
  /// value type (libstdc++ std::map requires a complete mapped_type).
  std::unique_ptr<Object> object_;
};

}  // namespace limcap

#endif  // LIMCAP_COMMON_JSON_H_
