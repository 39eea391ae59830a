#include "common/string_util.h"

#include <cctype>

namespace limcap {

std::string StrCat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (std::string_view part : parts) size += part.size();
  std::string out;
  out.reserve(size);
  for (std::string_view part : parts) out.append(part);
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  return JoinMapped(parts, sep, [](const std::string& s) { return s; });
}

std::string_view Trim(std::string_view text) {
  std::size_t begin = 0;
  while (begin < text.size() &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  std::size_t end = text.size();
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return text.substr(begin, end - begin);
}

std::vector<std::string> SplitAndTrim(std::string_view text, char sep) {
  std::vector<std::string> out;
  if (text.empty()) return out;
  std::size_t start = 0;
  while (true) {
    std::size_t pos = text.find(sep, start);
    std::string_view piece = (pos == std::string_view::npos)
                                 ? text.substr(start)
                                 : text.substr(start, pos - start);
    out.emplace_back(Trim(piece));
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

}  // namespace limcap
