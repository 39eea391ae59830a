// Parser robustness: random byte soup and randomly mutated valid inputs
// must never crash any of the three text front ends — they either parse
// or return a clean error status.

#include <gtest/gtest.h>

#include <string>

#include "capability/catalog_text.h"
#include "common/rng.h"
#include "datalog/parser.h"
#include "planner/query_parser.h"

namespace limcap {
namespace {

std::string RandomBytes(Rng* rng, std::size_t length) {
  // Printable-ish ASCII plus the structural characters the grammars use.
  static const char kAlphabet[] =
      "abcXYZ019 _$^(){}<>[],=.:-|\"\\%/\n\t";
  std::string out;
  for (std::size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng->Below(sizeof(kAlphabet) - 1)];
  }
  return out;
}

std::string Mutate(std::string text, Rng* rng) {
  int edits = 1 + static_cast<int>(rng->Below(4));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    std::size_t pos = rng->Below(text.size());
    switch (rng->Below(3)) {
      case 0:
        text.erase(pos, 1);
        break;
      case 1:
        text.insert(pos, 1, "(){}<>,=."[rng->Below(9)]);
        break;
      default:
        text[pos] = static_cast<char>('!' + rng->Below(90));
        break;
    }
  }
  return text;
}

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrash) {
  Rng rng(GetParam() * 2654435761u + 99);
  for (int i = 0; i < 50; ++i) {
    std::string soup = RandomBytes(&rng, 1 + rng.Below(120));
    auto p1 = datalog::ParseProgram(soup);
    auto p2 = capability::ParseCatalog(soup);
    auto p3 = planner::ParseQuery(soup);
    // Reaching here without crashing is the assertion; statuses must be
    // either OK or a structured error, never empty messages on failure.
    if (!p1.ok()) {
      EXPECT_FALSE(p1.status().message().empty());
    }
    if (!p2.ok()) {
      EXPECT_FALSE(p2.status().message().empty());
    }
    if (!p3.ok()) {
      EXPECT_FALSE(p3.status().message().empty());
    }
  }
}

TEST_P(ParserFuzz, MutatedValidInputsNeverCrash) {
  Rng rng(GetParam() * 40503 + 7);
  const std::string datalog_seed =
      "ans(P) :- v1^(t1, C), v3^(C, A, P).\nsong(t1).\n";
  const std::string catalog_seed =
      "source v1(Song, Cd) [bf] { (t1, c1) (t2, c3) }\n";
  const std::string query_seed =
      "<{Song = t1}, {Price}, {{v1, v3}, {v2, v4}}>";
  for (int i = 0; i < 60; ++i) {
    (void)datalog::ParseProgram(Mutate(datalog_seed, &rng));
    (void)capability::ParseCatalog(Mutate(catalog_seed, &rng));
    (void)planner::ParseQuery(Mutate(query_seed, &rng));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{10}));

}  // namespace
}  // namespace limcap
