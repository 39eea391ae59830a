#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <unordered_set>

#include "bench_report.h"
#include "common/hash.h"
#include "common/json.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/text_table.h"
#include "common/value.h"
#include "common/value_dictionary.h"

namespace limcap {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::InvalidArgument("bad view");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad view");
  EXPECT_EQ(status.ToString(), "Invalid argument: bad view");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0;
       code <= static_cast<int>(StatusCode::kProtocolError); ++code) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(code)),
                 "Unknown");
  }
}

TEST(StatusTest, CapabilityViolationIsDistinct) {
  Status status = Status::CapabilityViolation("must bind Cd");
  EXPECT_EQ(status.code(), StatusCode::kCapabilityViolation);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
}

Status FailsWhenNegative(int x) {
  LIMCAP_RETURN_NOT_OK(x < 0 ? Status::OutOfRange("negative")
                             : Status::OK());
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkMacro) {
  EXPECT_TRUE(FailsWhenNegative(3).ok());
  EXPECT_EQ(FailsWhenNegative(-1).code(), StatusCode::kOutOfRange);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(result.value_or(-1), -1);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  LIMCAP_ASSIGN_OR_RETURN(int half, Half(x));
  return Half(half);
}

TEST(ResultTest, AssignOrReturnMacro) {
  ASSERT_TRUE(Quarter(8).ok());
  EXPECT_EQ(Quarter(8).value(), 2);
  EXPECT_FALSE(Quarter(6).ok());
  EXPECT_FALSE(Quarter(3).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> result(std::make_unique<int>(7));
  ASSERT_TRUE(result.ok());
  std::unique_ptr<int> owned = std::move(result).value();
  EXPECT_EQ(*owned, 7);
}

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_TRUE(Value::Int64(3).is_int64());
  EXPECT_TRUE(Value::Double(2.5).is_double());
  EXPECT_TRUE(Value::String("x").is_string());
}

TEST(ValueTest, Accessors) {
  EXPECT_EQ(Value::Int64(-9).int64(), -9);
  EXPECT_DOUBLE_EQ(Value::Double(1.25).dbl(), 1.25);
  EXPECT_EQ(Value::String("abc").str(), "abc");
}

TEST(ValueTest, EqualityIsKindAware) {
  EXPECT_EQ(Value::Int64(1), Value::Int64(1));
  EXPECT_NE(Value::Int64(1), Value::Double(1.0));
  EXPECT_NE(Value::String("1"), Value::Int64(1));
  EXPECT_NE(Value::Null(), Value::Int64(0));
}

TEST(ValueTest, TotalOrder) {
  std::set<Value> values = {Value::String("b"), Value::Int64(2),
                            Value::Int64(1), Value::String("a"),
                            Value::Null()};
  EXPECT_EQ(values.size(), 5u);
  EXPECT_TRUE(Value::Int64(1) < Value::Int64(2));
  // Kind order: null < int < double < string.
  EXPECT_TRUE(Value::Null() < Value::Int64(0));
  EXPECT_TRUE(Value::Int64(99) < Value::Double(0.0));
  EXPECT_TRUE(Value::Double(99.0) < Value::String(""));
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Int64(42).ToString(), "42");
  EXPECT_EQ(Value::String("t1").ToString(), "t1");
  EXPECT_EQ(Value::Double(2.5).ToString(), "2.5");
  EXPECT_EQ(Value::Double(0.1).ToString(), "0.1");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  std::unordered_set<Value> values;
  for (int i = 0; i < 100; ++i) values.insert(Value::Int64(i % 10));
  EXPECT_EQ(values.size(), 10u);
}

TEST(ValueDictionaryTest, InternIsIdempotent) {
  ValueDictionary dict;
  ValueId a = dict.Intern(Value::String("t1"));
  ValueId b = dict.Intern(Value::String("t1"));
  ValueId c = dict.Intern(Value::String("t2"));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Get(a), Value::String("t1"));
  EXPECT_EQ(dict.Get(c), Value::String("t2"));
}

TEST(ValueDictionaryTest, LookupWithoutInterning) {
  ValueDictionary dict;
  ValueId id = 99;
  EXPECT_FALSE(dict.Lookup(Value::Int64(5), &id));
  ValueId interned = dict.Intern(Value::Int64(5));
  ASSERT_TRUE(dict.Lookup(Value::Int64(5), &id));
  EXPECT_EQ(id, interned);
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"only"}, "|"), "only");
}

TEST(StringUtilTest, JoinMapped) {
  std::vector<int> numbers = {1, 2, 3};
  EXPECT_EQ(JoinMapped(numbers, "+",
                       [](int n) { return std::to_string(n); }),
            "1+2+3");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtilTest, SplitAndTrim) {
  auto pieces = SplitAndTrim("a, b ,c", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[1], "b");
  EXPECT_EQ(pieces[2], "c");
  EXPECT_TRUE(SplitAndTrim("", ',').empty());
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("v1^", "v1"));
  EXPECT_FALSE(StartsWith("v", "v1"));
}

TEST(HashTest, HashRangeDiffersOnOrder) {
  std::vector<int> a = {1, 2, 3};
  std::vector<int> b = {3, 2, 1};
  EXPECT_NE(HashRange(a.begin(), a.end()), HashRange(b.begin(), b.end()));
  EXPECT_EQ(HashRange(a.begin(), a.end()), HashRange(a.begin(), a.end()));
}

TEST(TextTableTest, AlignsColumns) {
  TextTable table({"Source", "Must Bind"});
  table.AddRow({"v1", "Song"});
  table.AddRow({"v300", "Cd"});
  std::string rendered = table.ToString();
  EXPECT_NE(rendered.find("Source | Must Bind"), std::string::npos);
  EXPECT_NE(rendered.find("v300"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.Below(10), 10u);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(9);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t x = rng.Range(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo |= (x == -2);
    saw_hi |= (x == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(JsonTest, GetUnsignedChecksTheRange) {
  auto parsed = Json::Parse(
      R"({"zero":0,"big":18446744073709549568,"neg":-1,"frac":1.5,)"
      R"("huge":1e300,"two64":18446744073709551616,"text":"7","nul":null})");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetUnsigned("zero").value_or(9), 0u);
  EXPECT_EQ(parsed->GetUnsigned("big").value_or(0), 18446744073709549568u);
  EXPECT_EQ(parsed->GetUnsigned("absent", 5).value_or(0), 5u);
  EXPECT_EQ(parsed->GetUnsigned("nul", 6).value_or(0), 6u);
  for (const char* bad : {"neg", "frac", "huge", "two64", "text"}) {
    auto value = parsed->GetUnsigned(bad);
    ASSERT_FALSE(value.ok()) << bad;
    EXPECT_EQ(value.status().code(), StatusCode::kInvalidArgument);
  }
  Json nan = Json::MakeObject();
  nan.Set("n", std::nan(""));
  EXPECT_FALSE(nan.GetUnsigned("n").ok());
}

TEST(JsonTest, NonFiniteNumbersDumpAsNull) {
  Json message = Json::MakeObject();
  message.Set("nan", std::nan(""));
  message.Set("inf", -HUGE_VAL);
  EXPECT_EQ(message.Dump(), "{\"inf\":null,\"nan\":null}");
  EXPECT_TRUE(Json::Parse(message.Dump()).ok());
}

TEST(BenchReportTest, ControlCharactersAndNanParseBack) {
  benchreport::Reporter reporter("report");
  reporter.AddRow("row\x01\x1f\n\"quoted\"")
      .Set("ratio", std::nan(""))
      .Set("count", 3.0)
      .Set("note", std::string("tab\there"));
  reporter.Invariant("bell\a", true);
  auto parsed = Json::Parse(reporter.Render());
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("bench"), "report");
  EXPECT_EQ(parsed->GetNumber("failures", -1), 0);
  const Json& row = parsed->Get("rows").array().at(0);
  EXPECT_EQ(row.GetString("name"), "row\x01\x1f\n\"quoted\"");
  EXPECT_TRUE(row.Get("ratio").is_null());
  EXPECT_EQ(row.GetNumber("count"), 3);
  EXPECT_EQ(row.GetString("note"), "tab\there");
  const Json& invariant = parsed->Get("invariants").array().at(0);
  EXPECT_EQ(invariant.GetString("name"), "bell\a");
  EXPECT_TRUE(invariant.GetBool("passed"));
}

}  // namespace
}  // namespace limcap
