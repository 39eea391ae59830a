#include "planner/query.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "datalog/ast.h"

namespace limcap::planner {

bool Connection::ContainsView(const std::string& name) const {
  return std::find(view_names_.begin(), view_names_.end(), name) !=
         view_names_.end();
}

std::string Connection::ToString() const {
  return "{" + Join(view_names_, ", ") + "}";
}

AttributeSet Query::InputAttributes() const {
  AttributeSet out;
  for (const InputAssignment& input : inputs_) out.insert(input.attribute);
  return out;
}

AttributeSet Query::OutputAttributes() const {
  return AttributeSet(outputs_.begin(), outputs_.end());
}

std::vector<Value> Query::InputValuesFor(const std::string& attribute) const {
  std::vector<Value> values;
  for (const InputAssignment& input : inputs_) {
    if (input.attribute == attribute) values.push_back(input.value);
  }
  return values;
}

Status Query::Validate(const capability::SourceCatalog& catalog,
                       const DomainMap& domains) const {
  AttributeSet input_attributes = InputAttributes();

  for (const InputAssignment& input : inputs_) {
    if (catalog.HasAttribute(input.attribute)) continue;
    // Accept a user-side attribute that feeds a shared domain.
    bool shares_domain = false;
    for (const std::string& attribute : catalog.AllAttributes()) {
      if (domains.SameDomain(input.attribute, attribute)) {
        shares_domain = true;
        break;
      }
    }
    if (!shares_domain) {
      return Status::InvalidArgument(
          "input attribute not in any view (and not sharing a domain with "
          "one): " +
          input.attribute);
    }
  }
  std::set<std::string> output_set;
  for (const std::string& output : outputs_) {
    if (!catalog.HasAttribute(output)) {
      return Status::InvalidArgument("output attribute not in any view: " +
                                     output);
    }
    if (!output_set.insert(output).second) {
      return Status::InvalidArgument("duplicate output attribute: " + output);
    }
    if (input_attributes.count(output) > 0) {
      return Status::InvalidArgument(
          "attribute is both input and output: " + output);
    }
  }
  if (connections_.empty()) {
    return Status::InvalidArgument("query has no connections");
  }
  for (const Connection& connection : connections_) {
    if (connection.size() == 0) {
      return Status::InvalidArgument("empty connection");
    }
    std::set<std::string> seen;
    for (const std::string& name : connection.view_names()) {
      if (!catalog.Contains(name)) {
        return Status::InvalidArgument("connection names unknown view: " +
                                       name);
      }
      if (!seen.insert(name).second) {
        return Status::InvalidArgument(
            "connection repeats view (connections are sets of distinct "
            "views): " +
            name);
      }
    }
    LIMCAP_ASSIGN_OR_RETURN(AttributeSet attrs,
                            ConnectionAttributes(connection, catalog));
    for (const std::string& output : outputs_) {
      if (attrs.count(output) == 0) {
        return Status::InvalidArgument(
            "output attribute " + output + " does not appear in connection " +
            connection.ToString());
      }
    }
  }
  return Status::OK();
}

std::string Query::ToString() const {
  // Values render in re-parseable form (quoted when not identifier-safe)
  // so ToString round-trips through ParseQuery.
  std::string inputs = JoinMapped(
      inputs_, ", ", [](const InputAssignment& input) {
        return input.attribute + " = " +
               datalog::Term::Constant(input.value).ToString();
      });
  std::string connections = JoinMapped(
      connections_, ", ",
      [](const Connection& connection) { return connection.ToString(); });
  return "<{" + inputs + "}, {" + Join(outputs_, ", ") + "}, {" + connections +
         "}>";
}

Result<AttributeSet> ConnectionAttributes(
    const Connection& connection, const capability::SourceCatalog& catalog) {
  AttributeSet out;
  for (const std::string& name : connection.view_names()) {
    LIMCAP_ASSIGN_OR_RETURN(const capability::SourceView* view,
                            catalog.FindView(name));
    AttributeSet attrs = view->Attributes();
    out.insert(attrs.begin(), attrs.end());
  }
  return out;
}

}  // namespace limcap::planner
