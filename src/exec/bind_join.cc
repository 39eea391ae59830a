#include "exec/bind_join.h"

#include <memory>
#include <set>

#include "capability/source.h"
#include "relational/operators.h"

namespace limcap::exec {

namespace {

using capability::AttributeSet;
using capability::Source;
using capability::SourceQuery;
using capability::SourceView;
using relational::IdRow;
using relational::Relation;

}  // namespace

Status ExecuteBindJoinChain(const capability::SourceCatalog& catalog,
                            const std::vector<std::string>& sequence,
                            const std::map<std::string, Value>& inputs,
                            const std::vector<std::string>& outputs,
                            capability::AccessLog* log,
                            relational::Relation* answer) {
  // Everything in the chain encodes against the answer's dictionary; the
  // input constants are interned once here and flow as ids from then on.
  const ValueDictionaryPtr& dict = answer->dict_ptr();
  std::map<std::string, ValueId> input_ids;
  for (const auto& [attribute, value] : inputs) {
    input_ids.emplace(attribute, dict->Intern(value));
  }

  // The running intermediate result; starts as the join identity.
  Relation intermediate(relational::Schema::MakeUnsafe({}), dict);
  intermediate.InsertIdsUnsafe({});

  for (const std::string& view_name : sequence) {
    LIMCAP_ASSIGN_OR_RETURN(Source * source, catalog.Find(view_name));
    const SourceView& view = source->view();
    auto shared_view = std::make_shared<const SourceView>(view);

    // Pick the first template satisfiable from the attributes available
    // at this point of the sequence (the executable sequence guarantees
    // one exists).
    AttributeSet available;
    for (const auto& [attribute, value] : inputs) available.insert(attribute);
    for (const std::string& attribute :
         intermediate.schema().attributes()) {
      available.insert(attribute);
    }
    auto template_index = view.SatisfiedTemplate(available);
    if (!template_index.has_value()) {
      return Status::Internal("executable sequence broken: no template of " +
                              view_name + " satisfiable");
    }

    // Each bound position takes its id from the input constants or from a
    // column of the intermediate result. BoundPositions ascend, so the
    // query positions come out in canonical order.
    std::vector<uint32_t> bound_positions;
    std::vector<ValueId> fixed_ids;       // input-bound id, by bound index
    std::vector<std::size_t> row_columns; // intermediate column, or npos
    constexpr std::size_t kFromInput = ~std::size_t{0};
    std::vector<std::size_t> key_columns; // intermediate columns, in order
    for (std::size_t i :
         view.templates()[*template_index].BoundPositions()) {
      const std::string& attribute = view.schema().attribute(i);
      bound_positions.push_back(static_cast<uint32_t>(i));
      auto input = input_ids.find(attribute);
      if (input != input_ids.end()) {
        fixed_ids.push_back(input->second);
        row_columns.push_back(kFromInput);
      } else {
        auto column = intermediate.schema().IndexOf(attribute);
        if (!column.has_value()) {
          return Status::Internal(
              "executable sequence broken: attribute " + attribute +
              " of view " + view_name + " is not bound");
        }
        fixed_ids.push_back(0);
        row_columns.push_back(*column);
        key_columns.push_back(*column);
      }
    }

    // Issue one source query per distinct binding combination — all id
    // comparisons, no value materialization.
    const uint32_t channel = log->AddChannel(shared_view, bound_positions, dict);
    Relation fetched(view.schema(), dict);
    std::set<IdRow> asked;
    IdRow key(key_columns.size());
    IdRow row_ids;
    for (std::size_t pos = 0; pos < intermediate.size(); ++pos) {
      for (std::size_t c = 0; c < key_columns.size(); ++c) {
        key[c] = intermediate.IdAt(pos, key_columns[c]);
      }
      if (!asked.insert(key).second) continue;

      SourceQuery query;
      query.positions = bound_positions;
      query.dict = dict;
      query.ids.reserve(bound_positions.size());
      std::size_t next_key = 0;
      for (std::size_t b = 0; b < bound_positions.size(); ++b) {
        query.ids.push_back(row_columns[b] == kFromInput
                                ? fixed_ids[b]
                                : key[next_key++]);
      }
      LIMCAP_ASSIGN_OR_RETURN(Relation tuples, source->Execute(query));
      if (tuples.dict_ptr() != dict) {
        // Foreign-dictionary answer (non-conforming source): re-key once
        // at ingest.
        tuples = tuples.WithDictionary(dict);
      }

      log->Append(channel, /*round=*/0, query.ids, tuples.size());
      for (std::size_t t = 0; t < tuples.size(); ++t) {
        // Enforce input assignments on the view's other attributes (the
        // source query only bound B(v)).
        bool matches = true;
        for (const auto& [attribute, id] : input_ids) {
          auto column = view.schema().IndexOf(attribute);
          if (column.has_value() && tuples.IdAt(t, *column) != id) {
            matches = false;
            break;
          }
        }
        if (!matches) continue;
        tuples.GatherRowIds(t, &row_ids);
        if (fetched.InsertIdsUnsafe(row_ids)) log->AddReturned(row_ids);
      }
    }

    intermediate = relational::NaturalJoin(intermediate, fetched);
    if (intermediate.empty()) break;
  }

  if (intermediate.empty()) return Status::OK();
  LIMCAP_ASSIGN_OR_RETURN(Relation projected,
                          relational::Project(intermediate, outputs));
  IdRow row;
  for (std::size_t pos = 0; pos < projected.size(); ++pos) {
    projected.GatherRowIds(pos, &row);
    answer->InsertIdsUnsafe(row);
  }
  return Status::OK();
}

}  // namespace limcap::exec
