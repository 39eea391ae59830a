#include "analysis/diagnostics.h"
#include "common/string_util.h"

#include <algorithm>
#include <numeric>

namespace limcap::analysis {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
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
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xF];
          out += hex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string Plural(std::size_t n, const char* noun) {
  std::string out = std::to_string(n) + " " + noun;
  if (n != 1) out += "s";
  return out;
}

}  // namespace

const char* SeverityToString(Severity severity) {
  switch (severity) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kNote:
      return "note";
  }
  return "unknown";
}

std::string CodeName(Code code) {
  int number = static_cast<int>(code);
  std::string digits = std::to_string(number);
  return "LC" + std::string(3 - digits.size(), '0') + digits;
}

Severity DefaultSeverity(Code code) {
  switch (code) {
    case Code::kArityClash:
    case Code::kUnsafeHeadVariable:
    case Code::kNonGroundFact:
    case Code::kViewArityMismatch:
    case Code::kUnbindableViewAtom:
      return Severity::kError;
    // Never-fire findings are warnings, not errors: a *full* Π(Q, V)
    // legitimately contains dead rules (removing them is exactly
    // Section 6's optimization), so linting an unoptimized program must
    // not fail. LC020 stays an error because an unbindable view atom is
    // a capability-contract violation no evaluation order can mend.
    case Code::kRuleNeverFires:
    case Code::kUndeclaredPredicate:
    case Code::kGoalUnreachableRule:
    case Code::kUnproduciblePredicate:
    case Code::kUnfetchableView:
    // Binding-flow channel verdicts are warnings for the same reason:
    // full programs legitimately carry channels the query never feeds;
    // dropping them is the kPrune gate's optimization, not a bug.
    case Code::kStaticallyIrrelevantChannel:
    case Code::kUnreachableChannel:
      return Severity::kWarning;
    case Code::kSingletonVariable:
    case Code::kRecursiveProgram:
    case Code::kStaticBounds:
      return Severity::kNote;
  }
  return Severity::kError;
}

void DiagnosticBag::Add(Diagnostic diagnostic) {
  diagnostics_.push_back(std::move(diagnostic));
}

Diagnostic& DiagnosticBag::Report(Code code, std::string message,
                                  Location location) {
  Diagnostic diagnostic;
  diagnostic.code = code;
  diagnostic.severity = DefaultSeverity(code);
  diagnostic.message = std::move(message);
  diagnostic.location = std::move(location);
  diagnostics_.push_back(std::move(diagnostic));
  return diagnostics_.back();
}

std::size_t DiagnosticBag::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == severity) ++n;
  }
  return n;
}

void DiagnosticBag::Sort() {
  std::stable_sort(diagnostics_.begin(), diagnostics_.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     if (a.location.rule != b.location.rule) {
                       return a.location.rule < b.location.rule;
                     }
                     if (a.location.atom != b.location.atom) {
                       return a.location.atom < b.location.atom;
                     }
                     return static_cast<int>(a.code) <
                            static_cast<int>(b.code);
                   });
}

std::string DiagnosticBag::RenderText() const {
  std::string out;
  for (const Diagnostic& d : diagnostics_) {
    out += SeverityToString(d.severity);
    out += StrCat({"[", CodeName(d.code), "] ", d.message, "\n"});
    const Location& loc = d.location;
    if (loc.rule != Location::kNone || !loc.context.empty()) {
      out += "  --> ";
      if (loc.rule != Location::kNone) {
        out += "rule " + std::to_string(loc.rule);
        if (loc.atom != Location::kNone) {
          out += ", body atom " + std::to_string(loc.atom);
        }
        if (loc.line > 0) out += " (line " + std::to_string(loc.line) + ")";
        if (!loc.context.empty()) out += ": ";
      }
      out += loc.context + "\n";
    }
    for (const std::string& note : d.notes) {
      out += "  note: " + note + "\n";
    }
  }
  out += Plural(errors(), "error") + ", " + Plural(warnings(), "warning") +
         ", " + Plural(notes(), "note") + "\n";
  return out;
}

std::string DiagnosticBag::RenderJson() const {
  std::string out = "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : diagnostics_) {
    if (!first) out += ",";
    first = false;
    out += "{\"code\":\"" + CodeName(d.code) + "\"";
    out += ",\"severity\":\"" + std::string(SeverityToString(d.severity)) +
           "\"";
    out += ",\"message\":\"" + JsonEscape(d.message) + "\"";
    out += ",\"rule\":" + std::to_string(d.location.rule);
    out += ",\"atom\":" + std::to_string(d.location.atom);
    out += ",\"line\":" + std::to_string(d.location.line);
    out += ",\"column\":" + std::to_string(d.location.column);
    out += ",\"context\":\"" + JsonEscape(d.location.context) + "\"";
    out += ",\"notes\":[";
    for (std::size_t i = 0; i < d.notes.size(); ++i) {
      if (i > 0) out += ",";
      out += StrCat({"\"", JsonEscape(d.notes[i]), "\""});
    }
    out += "]}";
  }
  out += "],\"errors\":" + std::to_string(errors());
  out += ",\"warnings\":" + std::to_string(warnings());
  out += ",\"notes\":" + std::to_string(notes());
  out += "}";
  return out;
}

Status DiagnosticBag::ToStatus() const {
  const std::size_t n = errors();
  if (n == 0) return Status::OK();
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity != Severity::kError) continue;
    std::string message = CodeName(d.code) + ": " + d.message;
    if (n > 1) {
      message += " (and " + std::to_string(n - 1) + " more error" +
                 (n > 2 ? "s" : "") + ")";
    }
    return Status::InvalidArgument(std::move(message));
  }
  return Status::OK();
}

}  // namespace limcap::analysis
