#include "capability/in_memory_source.h"

#include <cstdlib>

namespace limcap::capability {

Result<InMemorySource> InMemorySource::Make(SourceView view,
                                            relational::Relation data) {
  if (!(data.schema() == view.schema())) {
    return Status::InvalidArgument("data schema " + data.schema().ToString() +
                                   " != view schema " +
                                   view.schema().ToString() + " for " +
                                   view.name());
  }
  return InMemorySource(std::move(view), std::move(data));
}

InMemorySource InMemorySource::MakeUnsafe(SourceView view,
                                          relational::Relation data) {
  auto source = Make(std::move(view), std::move(data));
  if (!source.ok()) std::abort();
  return std::move(source).value();
}

Result<relational::Relation> InMemorySource::Execute(
    const SourceQuery& query) {
  // The fetch scheduler may call Execute from several threads, and
  // ProbeEachIds builds column indexes in data_ lazily on first use.
  std::lock_guard<std::mutex> lock(*mutex_);
  // Validate positions (queries built via SourceQuery::Make always pass;
  // engine-built queries are checked here).
  for (uint32_t pos : query.positions) {
    if (pos >= view_.schema().arity()) {
      return Status::InvalidArgument(
          "query binds position " + std::to_string(pos) +
          " outside the schema of view " + view_.name());
    }
  }
  // Enforce the binding patterns: some template must be satisfied.
  if (!query.SatisfiedTemplate(view_).has_value()) {
    return Status::CapabilityViolation(
        "query to " + view_.name() +
        " satisfies none of its templates: " + view_.ToString());
  }
  ValueDictionaryPtr out_dict =
      query.dict != nullptr ? query.dict : std::make_shared<ValueDictionary>();
  relational::Relation out(view_.schema(), std::move(out_dict));
  columns_.assign(query.positions.begin(), query.positions.end());
  if (data_.dict_ptr() == query.dict) {
    // The source data already encodes against the caller's dictionary:
    // the whole answer path is id-to-id.
    key_.assign(query.ids.begin(), query.ids.end());
    data_.ProbeEachIds(columns_, key_, [&](std::size_t pos) {
      data_.GatherRowIds(pos, &row_);
      out.InsertIdsUnsafe(row_);
      return true;
    });
    return out;
  }
  // Translate the session-encoded key into the source's private
  // dictionary; a value this source never stored cannot match any tuple.
  key_.clear();
  for (std::size_t i = 0; i < query.ids.size(); ++i) {
    ValueId local;
    if (!data_.dict().Lookup(query.dict->Get(query.ids[i]), &local)) {
      return out;
    }
    key_.push_back(local);
  }
  row_.resize(view_.schema().arity());
  data_.ProbeEachIds(columns_, key_, [&](std::size_t pos) {
    // The single Value→id translation of the interned execution path:
    // returned tuples are interned into the caller's dictionary here, in
    // column order.
    for (std::size_t c = 0; c < row_.size(); ++c) {
      row_[c] = out.dict().Intern(data_.dict().Get(data_.IdAt(pos, c)));
    }
    out.InsertIdsUnsafe(row_);
    return true;
  });
  return out;
}

}  // namespace limcap::capability
