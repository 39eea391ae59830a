#include "exec/fingerprint.h"

#include <span>
#include <sstream>

namespace limcap::exec {

std::string OrderedFingerprint(const ExecResult& exec) {
  std::ostringstream out;
  out << "rounds=" << exec.rounds << " budget=" << exec.budget_exhausted
      << " dict=" << exec.session_dict->size() << "\n";
  relational::IdRow row;
  out << "answer:";
  for (std::size_t pos = 0; pos < exec.answer.size(); ++pos) {
    exec.answer.GatherRowIds(pos, &row);
    out << " <";
    for (ValueId id : row) out << id << ",";
    out << ">";
  }
  out << "\n";
  for (const capability::AccessRecord record : exec.log.records()) {
    out << record.source() << " round=" << record.round() << " q=[";
    const std::span<const uint32_t> positions = record.positions();
    const std::span<const ValueId> ids = record.query_ids();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      out << positions[i] << ":" << ids[i] << ",";
    }
    out << "] returned=" << record.tuples_returned()
        << " new=" << record.new_tuples() << " ids=";
    for (std::size_t k = 0; k < record.new_tuples(); ++k) {
      out << "<";
      for (ValueId id : record.returned_ids(k)) out << id << ",";
      out << ">";
    }
    out << " bindings=";
    for (std::size_t k = 0; k < record.num_new_bindings(); ++k) {
      out << record.binding_attribute(k) << "=" << record.binding_id(k) << ",";
    }
    if (!record.error().empty()) out << " error=" << record.error();
    out << "\n";
  }
  for (const std::string& predicate : exec.store.Predicates()) {
    out << predicate << ":";
    for (datalog::RowView fact : exec.store.Facts(predicate)) {
      out << " <";
      for (std::size_t i = 0; i < fact.size(); ++i) out << fact[i] << ",";
      out << ">";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace limcap::exec
