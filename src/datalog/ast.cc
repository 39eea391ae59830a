#include "datalog/ast.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <unordered_set>

#include "common/string_util.h"

namespace limcap::datalog {

namespace {

void CollectVariables(const Atom& atom, std::vector<std::string>* out,
                      std::unordered_set<std::string>* seen) {
  for (const Term& term : atom.terms) {
    if (term.is_variable() && seen->insert(term.var()).second) {
      out->push_back(term.var());
    }
  }
}

/// True when a string constant can be printed bare and re-parse to the
/// same string: it must lex as an identifier and not look like a
/// variable (no leading upper-case or underscore).
bool IsBareSafeString(const std::string& text) {
  if (text.empty()) return false;
  unsigned char first = static_cast<unsigned char>(text[0]);
  if (!(std::islower(first) || first == '$')) return false;
  for (char c : text) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (!(std::isalnum(uc) || c == '_' || c == '$' || c == '^')) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string Term::ToString() const {
  if (is_variable_) return var_;
  if (!value_.is_string()) return value_.ToString();
  const std::string& text = value_.str();
  if (IsBareSafeString(text)) return text;
  std::string quoted = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += c;
  }
  quoted += '"';
  return quoted;
}

std::vector<std::string> Atom::Variables() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  CollectVariables(*this, &out, &seen);
  return out;
}

std::string Atom::ToString() const {
  return predicate + "(" +
         JoinMapped(terms, ", ", [](const Term& t) { return t.ToString(); }) +
         ")";
}

std::vector<std::string> Rule::Variables() const {
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  CollectVariables(head, &out, &seen);
  for (const Atom& atom : body) CollectVariables(atom, &out, &seen);
  return out;
}

std::string Rule::ToString() const {
  if (is_fact()) return head.ToString() + ".";
  return head.ToString() + " :- " +
         JoinMapped(body, ", ", [](const Atom& a) { return a.ToString(); }) +
         ".";
}

std::string Rule::CanonicalString() const {
  std::map<std::string, std::string> renaming;
  for (const std::string& var : Variables()) {
    renaming.emplace(var, StrCat({"V", std::to_string(renaming.size())}));
  }
  auto rename_atom = [&renaming](const Atom& atom) {
    Atom out = atom;
    for (Term& term : out.terms) {
      if (term.is_variable()) term = Term::Var(renaming.at(term.var()));
    }
    return out;
  };
  Rule canonical;
  canonical.head = rename_atom(head);
  for (const Atom& atom : body) canonical.body.push_back(rename_atom(atom));
  return canonical.ToString();
}

std::set<std::string> Program::IdbPredicates() const {
  std::set<std::string> out;
  for (const Rule& rule : rules_) out.insert(rule.head.predicate);
  return out;
}

std::set<std::string> Program::EdbPredicates() const {
  std::set<std::string> idb = IdbPredicates();
  std::set<std::string> out;
  for (const Rule& rule : rules_) {
    for (const Atom& atom : rule.body) {
      if (idb.count(atom.predicate) == 0) out.insert(atom.predicate);
    }
  }
  return out;
}

std::set<std::string> Program::AllPredicates() const {
  std::set<std::string> out;
  for (const Rule& rule : rules_) {
    out.insert(rule.head.predicate);
    for (const Atom& atom : rule.body) out.insert(atom.predicate);
  }
  return out;
}

Result<std::vector<std::pair<std::string, std::size_t>>>
Program::PredicateArities() const {
  std::map<std::string, std::size_t> arities;
  auto record = [&arities](const Atom& atom) -> Status {
    auto [it, inserted] = arities.emplace(atom.predicate, atom.arity());
    if (!inserted && it->second != atom.arity()) {
      return Status::InvalidArgument(
          "predicate " + atom.predicate + " used with arities " +
          std::to_string(it->second) + " and " + std::to_string(atom.arity()));
    }
    return Status::OK();
  };
  for (const Rule& rule : rules_) {
    LIMCAP_RETURN_NOT_OK(record(rule.head));
    for (const Atom& atom : rule.body) {
      LIMCAP_RETURN_NOT_OK(record(atom));
    }
  }
  return std::vector<std::pair<std::string, std::size_t>>(arities.begin(),
                                                          arities.end());
}

std::string Program::ToString() const {
  std::string out;
  for (const Rule& rule : rules_) {
    out += rule.ToString();
    out += '\n';
  }
  return out;
}

std::vector<std::string> Program::CanonicalRuleStrings() const {
  std::vector<std::string> out;
  out.reserve(rules_.size());
  for (const Rule& rule : rules_) out.push_back(rule.CanonicalString());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace limcap::datalog
