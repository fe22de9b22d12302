#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <variant>
#include <vector>

#include "sql/parser.h"
#include "storage/value.h"

namespace dbfa {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).as_int(), 7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::Str("abc").as_string(), "abc");
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value::Int(1), Value::Int(2));
  EXPECT_EQ(Value::Int(5), Value::Int(5));
  EXPECT_LT(Value::Str("a"), Value::Str("b"));
  EXPECT_LT(Value::Real(1.5), Value::Real(2.0));
}

TEST(ValueTest, CrossNumericCompare) {
  EXPECT_EQ(Value::Compare(Value::Int(2), Value::Real(2.0)), 0);
  EXPECT_LT(Value::Int(1), Value::Real(1.5));
  EXPECT_LT(Value::Real(0.5), Value::Int(1));
}

TEST(ValueTest, NullSortsFirstNumbersBeforeStrings) {
  EXPECT_LT(Value::Null(), Value::Int(-100));
  EXPECT_LT(Value::Null(), Value::Str(""));
  EXPECT_LT(Value::Int(999999), Value::Str("0"));
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-3).ToString(), "-3");
  EXPECT_EQ(Value::Str("hi").ToString(), "hi");
  EXPECT_EQ(Value::Str("it's").ToSqlLiteral(), "'it''s'");
  EXPECT_EQ(Value::Int(3).ToSqlLiteral(), "3");
}

TEST(ValueTest, SqlLiteralRoundTripsThroughParser) {
  // parse(ToSqlLiteral(v)) == v, type included: ints stay INT, whole-number
  // doubles stay DOUBLE, and doubles beyond six significant digits keep
  // every bit.
  std::vector<Value> values = {
      Value::Int(0),          Value::Int(5673),
      Value::Int(-42),        Value::Real(5673.0),
      Value::Real(-5673.0),   Value::Real(0.0),
      Value::Real(-0.0),
      Value::Real(12345.67),  Value::Real(0.1),
      Value::Real(-2.5e-7),   Value::Real(1e20),
      Value::Real(123456789.0), Value::Real(3.141592653589793),
      Value::Real(4.9e-324),  Value::Real(1.7976931348623157e308),
  };
  for (const Value& v : values) {
    std::string literal = v.ToSqlLiteral();
    auto stmt = sql::ParseStatement("INSERT INTO t VALUES (" + literal + ")");
    ASSERT_TRUE(stmt.ok()) << literal << ": " << stmt.status().ToString();
    const auto& insert = std::get<sql::InsertStmt>(*stmt);
    ASSERT_EQ(insert.rows.size(), 1u);
    ASSERT_EQ(insert.rows[0].size(), 1u);
    const Value& back = insert.rows[0][0];
    EXPECT_EQ(back.type(), v.type()) << literal;
    if (v.type() == ValueType::kDouble) {
      double want = v.as_double();
      double got = back.as_double();
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0) << literal;
    } else {
      EXPECT_EQ(back.as_int(), v.as_int()) << literal;
    }
  }
  EXPECT_EQ(Value::Real(5673.0).ToSqlLiteral(), "5673.0");
  EXPECT_EQ(Value::Real(12345.67).ToSqlLiteral(), "12345.67");
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(42).Hash(), Value::Int(42).Hash());
  EXPECT_EQ(Value::Int(42).Hash(), Value::Real(42.0).Hash())
      << "integral doubles must hash like ints for hash joins";
  EXPECT_EQ(Value::Str("x").Hash(), Value::Str("x").Hash());
}

TEST(RecordTest, LexicographicCompare) {
  Record a = {Value::Int(1), Value::Str("b")};
  Record b = {Value::Int(1), Value::Str("c")};
  Record c = {Value::Int(1)};
  EXPECT_LT(CompareRecords(a, b), 0);
  EXPECT_EQ(CompareRecords(a, a), 0);
  EXPECT_LT(CompareRecords(c, a), 0) << "prefix sorts first";
}

TEST(RecordTest, ToString) {
  Record r = {Value::Int(1), Value::Str("Joe"), Value::Null()};
  EXPECT_EQ(RecordToString(r), "(1, Joe, NULL)");
}

}  // namespace
}  // namespace dbfa
