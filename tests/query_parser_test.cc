#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/string_util.h"
#include "exec/query_answerer.h"
#include "paperdata/paper_examples.h"
#include "planner/query_parser.h"

namespace limcap::planner {
namespace {

TEST(QueryParserTest, ParsesThePaperQuery) {
  auto query = ParseQuery(
      "<{Song = t1}, {Price}, {{v1, v3}, {v1, v4}, {v2, v3}, {v2, v4}}>");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->inputs().size(), 1u);
  EXPECT_EQ(query->inputs()[0].attribute, "Song");
  EXPECT_EQ(query->inputs()[0].value, Value::String("t1"));
  EXPECT_EQ(query->outputs(), (std::vector<std::string>{"Price"}));
  EXPECT_EQ(query->connections().size(), 4u);
  EXPECT_EQ(query->connections()[1].ToString(), "{v1, v4}");
}

TEST(QueryParserTest, TypedValuesAndEmptyInputs) {
  auto query = ParseQuery(
      "<{Fare = 250, Rating = 4.5, Title = \"two words\"}, {A, B},"
      " {{v1}}>");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->inputs()[0].value, Value::Int64(250));
  EXPECT_EQ(query->inputs()[1].value, Value::Double(4.5));
  EXPECT_EQ(query->inputs()[2].value, Value::String("two words"));

  auto no_inputs = ParseQuery("<{}, {A}, {{v1, v2}}>");
  ASSERT_TRUE(no_inputs.ok()) << no_inputs.status();
  EXPECT_TRUE(no_inputs->inputs().empty());
}

TEST(QueryParserTest, CommentsAndWhitespace) {
  auto query = ParseQuery(
      "% the paper's Example 4.1 query\n"
      "<{A = a0},   // selection\n"
      " {D},\n"
      " {{v1, v3}, {v2, v3}}>\n");
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->connections().size(), 2u);
}

TEST(QueryParserTest, Errors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("{Song = t1}, {Price}, {{v1}}").ok());  // no <>
  EXPECT_FALSE(ParseQuery("<{Song t1}, {Price}, {{v1}}>").ok());  // no =
  EXPECT_FALSE(ParseQuery("<{Song = t1}, {Price}>").ok());  // 2 sections
  EXPECT_FALSE(ParseQuery("<{Song = t1}, {Price}, {v1}>").ok());  // flat
  EXPECT_FALSE(ParseQuery("<{}, {A}, {{v1}}> trailing").ok());
  auto bad = ParseQuery("<{A = }, {B}, {{v}}>");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line"), std::string::npos);
}

TEST(QueryParserTest, RoundTripsPaperExamples) {
  for (const auto& example :
       {paperdata::MakeExample21(), paperdata::MakeExample41(),
        paperdata::MakeExample51(), paperdata::MakeExample52()}) {
    auto reparsed = ParseQuery(example.query.ToString());
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status() << " for " << example.query.ToString();
    EXPECT_EQ(reparsed->ToString(), example.query.ToString());
  }
}

TEST(QueryParserTest, ParsedQueryExecutes) {
  auto example = paperdata::MakeExample21();
  auto query = ParseQuery(
      "<{Song = t1}, {Price}, {{v1, v3}, {v1, v4}, {v2, v3}, {v2, v4}}>");
  ASSERT_TRUE(query.ok());
  exec::QueryAnswerer answerer(&example.catalog, example.domains);
  auto report = answerer.Answer(*query);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->exec.answer.size(), 3u);
}

class RandomQueryRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryRoundTrip, ToStringParsesBack) {
  Rng rng(GetParam() * 53 + 7);
  std::vector<InputAssignment> inputs;
  int input_count = static_cast<int>(rng.Below(4));
  for (int i = 0; i < input_count; ++i) {
    Value value;
    switch (rng.Below(4)) {
      case 0:
        value = Value::Int64(rng.Range(-100, 100));
        break;
      case 1:
        value = Value::Double(double(rng.Range(0, 50)) + 0.5);
        break;
      case 2:
        value = Value::String(StrCat({"v", std::to_string(rng.Below(9))}));
        break;
      default:
        value = Value::String(StrCat({"needs quoting ", std::to_string(i)}));
        break;
    }
    inputs.push_back({StrCat({"In", std::to_string(i)}), std::move(value)});
  }
  std::vector<std::string> outputs;
  int output_count = 1 + static_cast<int>(rng.Below(3));
  for (int i = 0; i < output_count; ++i) {
    outputs.push_back(StrCat({"Out", std::to_string(i)}));
  }
  std::vector<Connection> connections;
  int connection_count = 1 + static_cast<int>(rng.Below(3));
  for (int c = 0; c < connection_count; ++c) {
    std::vector<std::string> names;
    int size = 1 + static_cast<int>(rng.Below(3));
    for (int v = 0; v < size; ++v) {
      names.push_back(StrCat({"v", std::to_string(c * 3 + v + 1)}));
    }
    connections.emplace_back(std::move(names));
  }
  Query query(std::move(inputs), std::move(outputs), std::move(connections));
  auto reparsed = ParseQuery(query.ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status() << "\n"
                             << query.ToString();
  EXPECT_EQ(reparsed->ToString(), query.ToString());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryRoundTrip,
                         ::testing::Range(uint64_t{0}, uint64_t{20}));

}  // namespace
}  // namespace limcap::planner
