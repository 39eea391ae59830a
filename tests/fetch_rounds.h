// Builds fetch rounds for scheduler tests: requests bind one attribute of
// a source's view to a value, one channel per (source, attribute).

#ifndef LIMCAP_TESTS_FETCH_ROUNDS_H_
#define LIMCAP_TESTS_FETCH_ROUNDS_H_

#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <utility>

#include "capability/source.h"
#include "common/value.h"
#include "common/value_dictionary.h"
#include "runtime/fetch_scheduler.h"

namespace limcap::testutil {

class RoundBuilder {
 public:
  /// Registers channels with `scheduler` and interns values into `dict`,
  /// which must be the scheduler's session dictionary.
  RoundBuilder(runtime::FetchScheduler* scheduler, ValueDictionaryPtr dict)
      : scheduler_(scheduler), dict_(std::move(dict)) {}

  /// Appends a request asking `source` for `attribute` = `value`, hedged
  /// at `hedge_delay_ms` (infinity: not hedged).
  void Ask(capability::Source* source, const std::string& value,
           double hedge_delay_ms = std::numeric_limits<double>::infinity(),
           const std::string& attribute = "A") {
    auto [it, inserted] = channels_.try_emplace({source, attribute}, 0);
    if (inserted) {
      auto position = source->view().schema().IndexOf(attribute);
      if (!position.has_value()) std::abort();
      it->second = scheduler_->AddChannel(
          source, {static_cast<uint32_t>(*position)});
    }
    const ValueId id = dict_->Intern(Value::String(value));
    round_.Add(it->second, {&id, 1});
    if (hedge_delay_ms != std::numeric_limits<double>::infinity() ||
        !round_.hedge_delay_ms.empty()) {
      round_.hedge_delay_ms.resize(round_.size() - 1,
                                   std::numeric_limits<double>::infinity());
      round_.hedge_delay_ms.push_back(hedge_delay_ms);
    }
  }

  const runtime::FetchRound& round() const { return round_; }

  /// Runs the round through the scheduler and starts an empty one.
  runtime::FetchOutcomes Run() {
    runtime::FetchOutcomes out;
    scheduler_->ExecuteRound(round_, &out);
    round_.Clear();
    return out;
  }

 private:
  runtime::FetchScheduler* scheduler_;
  ValueDictionaryPtr dict_;
  std::map<std::pair<capability::Source*, std::string>, uint32_t> channels_;
  runtime::FetchRound round_;
};

}  // namespace limcap::testutil

#endif  // LIMCAP_TESTS_FETCH_ROUNDS_H_
