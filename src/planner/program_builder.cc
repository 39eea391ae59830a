#include "planner/program_builder.h"

#include <cctype>
#include <map>

namespace limcap::planner {

namespace {

using datalog::Atom;
using datalog::Program;
using datalog::Rule;
using datalog::Term;

/// The alpha-rule / domain-rule body shared by one template's rules:
/// domain atoms for the template's bound positions followed by the EDB
/// view atom.
std::vector<Atom> ViewRuleBody(const SourceView& view,
                               std::size_t template_index,
                               const DomainMap& domains) {
  std::vector<Atom> body;
  for (std::size_t i :
       view.templates()[template_index].BoundPositions()) {
    const std::string& attribute = view.schema().attribute(i);
    body.push_back(Atom{domains.DomainOf(attribute),
                        {Term::Var(AttributeVariable(attribute))}});
  }
  Atom edb;
  edb.predicate = view.name();
  for (const std::string& attribute : view.schema().attributes()) {
    edb.terms.push_back(Term::Var(AttributeVariable(attribute)));
  }
  body.push_back(std::move(edb));
  return body;
}

}  // namespace

bool IsGoalPredicate(std::string_view name, std::string_view goal) {
  return name.substr(0, goal.size()) == goal &&
         (name.size() == goal.size() || name[goal.size()] == '$');
}

std::string AlphaPredicate(const SourceView& view,
                           const BuilderOptions& options) {
  return view.name() + options.alpha_suffix;
}

std::string AttributeVariable(const std::string& attribute) {
  if (!attribute.empty() &&
      (std::isupper(static_cast<unsigned char>(attribute[0])) ||
       attribute[0] == '_')) {
    return attribute;
  }
  return "X_" + attribute;
}

Result<Program> BuildProgram(const Query& query,
                             const std::vector<SourceView>& views,
                             const DomainMap& domains,
                             const BuilderOptions& options) {
  std::map<std::string, const SourceView*> by_name;
  for (const SourceView& view : views) by_name.emplace(view.name(), &view);

  Program program;

  // Input values per attribute; an attribute listed with several values
  // yields one connection rule per combination.
  std::map<std::string, std::vector<Value>> input_values;
  for (const InputAssignment& input : query.inputs()) {
    input_values[input.attribute].push_back(input.value);
  }

  // Step 1: connection rules.
  std::size_t connection_index = 0;
  for (const Connection& connection : query.connections()) {
    // Resolve the connection's views.
    std::vector<const SourceView*> connection_views;
    for (const std::string& name : connection.view_names()) {
      auto it = by_name.find(name);
      if (it == by_name.end()) {
        return Status::InvalidArgument(
            "connection " + connection.ToString() +
            " references view not passed to the builder: " + name);
      }
      connection_views.push_back(it->second);
    }
    // Input attributes that actually occur in this connection, with their
    // value lists; enumerate every combination.
    std::vector<std::pair<std::string, std::vector<Value>>> choices;
    for (const auto& [attribute, values] : input_values) {
      bool occurs = false;
      for (const SourceView* view : connection_views) {
        if (view->schema().Contains(attribute)) {
          occurs = true;
          break;
        }
      }
      if (occurs) choices.emplace_back(attribute, values);
    }
    std::vector<std::size_t> pick(choices.size(), 0);
    while (true) {
      std::map<std::string, Value> chosen;
      for (std::size_t i = 0; i < choices.size(); ++i) {
        chosen.emplace(choices[i].first, choices[i].second[pick[i]]);
      }
      Rule rule;
      rule.head.predicate = options.goal_predicate;
      for (const std::string& output : query.outputs()) {
        rule.head.terms.push_back(Term::Var(AttributeVariable(output)));
      }
      for (const SourceView* view : connection_views) {
        Atom atom;
        atom.predicate = AlphaPredicate(*view, options);
        for (const std::string& attribute : view->schema().attributes()) {
          auto it = chosen.find(attribute);
          if (it != chosen.end()) {
            atom.terms.push_back(Term::Constant(it->second));
          } else {
            atom.terms.push_back(Term::Var(AttributeVariable(attribute)));
          }
        }
        rule.body.push_back(std::move(atom));
      }
      if (options.per_connection_goals) {
        // Tagged twin of the rule for per-connection provenance.
        Rule tagged = rule;
        tagged.head.predicate = options.goal_predicate + "$c" +
                                std::to_string(connection_index);
        program.AddRule(std::move(tagged));
      }
      program.AddRule(std::move(rule));
      // Advance the combination odometer.
      std::size_t i = 0;
      for (; i < pick.size(); ++i) {
        if (++pick[i] < choices[i].second.size()) break;
        pick[i] = 0;
      }
      if (i == pick.size()) break;
    }
    ++connection_index;
  }

  // Step 2: alpha-rule and domain rules per view — one group per
  // template (the single-template case is the paper's Section 3.1).
  for (const SourceView& view : views) {
    for (std::size_t t = 0; t < view.templates().size(); ++t) {
      std::vector<Atom> body = ViewRuleBody(view, t, domains);

      Rule alpha;
      alpha.head.predicate = AlphaPredicate(view, options);
      for (const std::string& attribute : view.schema().attributes()) {
        alpha.head.terms.push_back(Term::Var(AttributeVariable(attribute)));
      }
      alpha.body = body;
      program.AddRule(std::move(alpha));

      for (std::size_t i : view.templates()[t].FreePositions()) {
        const std::string& attribute = view.schema().attribute(i);
        Rule domain_rule;
        domain_rule.head.predicate = domains.DomainOf(attribute);
        domain_rule.head.terms.push_back(
            Term::Var(AttributeVariable(attribute)));
        domain_rule.body = body;
        program.AddRule(std::move(domain_rule));
      }
    }
  }

  // Step 3: fact rules for the input assignments.
  for (const InputAssignment& input : query.inputs()) {
    Rule fact;
    fact.head.predicate = domains.DomainOf(input.attribute);
    fact.head.terms.push_back(Term::Constant(input.value));
    program.AddRule(std::move(fact));
  }

  return program;
}

Status AddCachedTupleRules(const SourceView& view, const relational::Row& row,
                           const DomainMap& domains,
                           const BuilderOptions& options,
                           datalog::Program* program) {
  if (row.size() != view.schema().arity()) {
    return Status::InvalidArgument(
        "cached tuple arity " + std::to_string(row.size()) +
        " != view arity " + std::to_string(view.schema().arity()) + " for " +
        view.name());
  }
  Rule alpha_fact;
  alpha_fact.head.predicate = AlphaPredicate(view, options);
  for (const Value& value : row) {
    alpha_fact.head.terms.push_back(datalog::Term::Constant(value));
  }
  program->AddRule(std::move(alpha_fact));
  for (std::size_t i = 0; i < row.size(); ++i) {
    AddDomainKnowledgeRule(view.schema().attribute(i), row[i], domains,
                           program);
  }
  return Status::OK();
}

void AddDomainKnowledgeRule(const std::string& attribute, const Value& value,
                            const DomainMap& domains,
                            datalog::Program* program) {
  Rule fact;
  fact.head.predicate = domains.DomainOf(attribute);
  fact.head.terms.push_back(datalog::Term::Constant(value));
  program->AddRule(std::move(fact));
}

}  // namespace limcap::planner
