#ifndef LIMCAP_COMMON_STRING_UTIL_H_
#define LIMCAP_COMMON_STRING_UTIL_H_

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace limcap {

/// Concatenates `parts` into one string, sized once. Use it where a
/// literal would lead a `+` chain (`"v" + std::to_string(i)`): that
/// operator inserts the literal at the front of its right operand, and
/// GCC 12 reports a false -Wrestrict on the insert once Release builds
/// inline it.
std::string StrCat(std::initializer_list<std::string_view> parts);

/// Joins the elements of `parts` with `sep`, calling `ToString`-like
/// stringification via std::string conversion of each element.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Joins an arbitrary range with `sep` using a projection functor.
template <typename Range, typename Fn>
std::string JoinMapped(const Range& range, std::string_view sep, Fn fn) {
  std::string out;
  bool first = true;
  for (const auto& item : range) {
    if (!first) out.append(sep);
    first = false;
    out += fn(item);
  }
  return out;
}

/// Splits `text` on `sep`, trimming ASCII whitespace from each piece.
/// Empty pieces are preserved (except that splitting an empty string
/// yields an empty vector).
std::vector<std::string> SplitAndTrim(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// True when `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

}  // namespace limcap

#endif  // LIMCAP_COMMON_STRING_UTIL_H_
