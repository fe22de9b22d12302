#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "oracles/tokenize_reference.h"
#include "sql/parser.h"
#include "sql/token.h"
#include "workload/fleet.h"
#include "workload/synthetic.h"

namespace dbfa::sql {
namespace {

// ---- tokenizer -----------------------------------------------------------

TEST(TokenizerTest, BasicTokens) {
  auto tokens = Tokenize("SELECT a, b FROM t WHERE x <= 10.5 AND y <> 'o''k'");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> texts;
  for (const Token& t : *tokens) texts.push_back(t.text);
  EXPECT_EQ((*tokens)[0].text, "SELECT");
  // Find the <= symbol and the escaped string.
  bool saw_le = false;
  bool saw_str = false;
  for (const Token& t : *tokens) {
    if (t.type == TokenType::kSymbol && t.text == "<=") saw_le = true;
    if (t.type == TokenType::kString && t.text == "o'k") saw_str = true;
  }
  EXPECT_TRUE(saw_le);
  EXPECT_TRUE(saw_str);
}

TEST(TokenizerTest, NumbersAndNegation) {
  auto tokens = Tokenize("42 3.5 1e3 7");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].type, TokenType::kInteger);
  EXPECT_EQ((*tokens)[0].int_value, 42);
  EXPECT_EQ((*tokens)[1].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*tokens)[1].float_value, 3.5);
  EXPECT_EQ((*tokens)[2].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ((*tokens)[2].float_value, 1000.0);
}

TEST(TokenizerTest, NotEqualsNormalized) {
  auto tokens = Tokenize("a != b");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].text, "<>");
}

TEST(TokenizerTest, RejectsUnterminatedStringAndBadChars) {
  EXPECT_FALSE(Tokenize("'oops").ok());
  EXPECT_FALSE(Tokenize("a @ b").ok());
}

// ---- tokenizer vs. the reference tokenizer --------------------------------

/// Tokenize must reproduce the reference tokenizer exactly: every token's
/// type, text, integer value, float bits and offset, or the same error.
void ExpectTokenizesLikeReference(std::string_view sql) {
  auto got = Tokenize(sql);
  auto want = oracle::TokenizeReference(sql);
  ASSERT_EQ(got.ok(), want.ok()) << sql;
  if (!want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString()) << sql;
    return;
  }
  ASSERT_EQ(got->size(), want->size()) << sql;
  for (size_t i = 0; i < got->size(); ++i) {
    const Token& g = (*got)[i];
    const Token& w = (*want)[i];
    EXPECT_EQ(g.type, w.type) << sql << " token " << i;
    EXPECT_EQ(g.text, w.text) << sql << " token " << i;
    EXPECT_EQ(g.int_value, w.int_value) << sql << " token " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(g.float_value),
              std::bit_cast<uint64_t>(w.float_value))
        << sql << " token " << i;
    EXPECT_EQ(g.position, w.position) << sql << " token " << i;
  }
}

TEST(TokenizerDifferentialTest, SyntheticWorkloadLog) {
  auto db = Database::Open(DatabaseOptions{});
  ASSERT_TRUE(db.ok());
  SyntheticWorkload workload(db->get(), "Accounts", 17);
  ASSERT_TRUE(workload.Setup(200).ok());
  ASSERT_TRUE(workload.Run(400, OpMix{}, /*logged=*/true).ok());
  const auto& entries = (*db)->audit_log().entries();
  ASSERT_GT(entries.size(), 600u);
  for (const AuditEntry& entry : entries) {
    ExpectTokenizesLikeReference(entry.sql);
  }
}

TEST(TokenizerDifferentialTest, FleetLogs) {
  FleetOptions options;
  options.instances = 4;
  options.seed_rows = 60;
  options.attack_rate = 0.2;
  auto fleet = FleetSimulator::Make(options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  for (int tick = 0; tick < 6; ++tick) {
    for (size_t i = 0; i < (*fleet)->size(); ++i) {
      ASSERT_TRUE((*fleet)->Tick(i).ok());
    }
  }
  size_t statements = 0;
  for (size_t i = 0; i < (*fleet)->size(); ++i) {
    for (const AuditEntry& entry : (*fleet)->Log(i).entries()) {
      ExpectTokenizesLikeReference(entry.sql);
      ++statements;
    }
  }
  EXPECT_GT(statements, 200u);
}

TEST(TokenizerDifferentialTest, EdgeCases) {
  // String bodies: '' escapes, empty bodies, unterminated strings.
  ExpectTokenizesLikeReference("'it''s'");
  ExpectTokenizesLikeReference("''");
  ExpectTokenizesLikeReference("''''");
  ExpectTokenizesLikeReference("'a''''b' 'c'");
  ExpectTokenizesLikeReference("'oops");
  ExpectTokenizesLikeReference("'");
  ExpectTokenizesLikeReference("'trailing escape''");
  // Operators: != normalised to <>, split operators, unknown characters.
  ExpectTokenizesLikeReference("a != b");
  ExpectTokenizesLikeReference("a<=b>=c<>d");
  ExpectTokenizesLikeReference("x < = y");
  ExpectTokenizesLikeReference("<");
  ExpectTokenizesLikeReference("!");
  ExpectTokenizesLikeReference("a @ b");
  ExpectTokenizesLikeReference("@");
  ExpectTokenizesLikeReference(std::string("a\0b", 3));
  ExpectTokenizesLikeReference("SELECT\x80 1");
  // Numbers, including literals beyond int64 and double range.
  ExpectTokenizesLikeReference("1e3 1E+5 2.5e-3 007 12.50");
  ExpectTokenizesLikeReference("1e");
  ExpectTokenizesLikeReference("1e+");
  ExpectTokenizesLikeReference("1.");
  ExpectTokenizesLikeReference(".5");
  ExpectTokenizesLikeReference("9223372036854775807");
  ExpectTokenizesLikeReference("9223372036854775808");
  ExpectTokenizesLikeReference("123456789012345678901234567890");
  ExpectTokenizesLikeReference("1e999");
  ExpectTokenizesLikeReference("1e-999");
  ExpectTokenizesLikeReference("1e-310");
  // Identifiers with '#', blank input, a multi-row INSERT.
  ExpectTokenizesLikeReference("Tbl#1 a#b _x#");
  ExpectTokenizesLikeReference("");
  ExpectTokenizesLikeReference("   \t\n");
  ExpectTokenizesLikeReference(
      "INSERT INTO t VALUES (1, 'x''y', 2.5), (2, '', -3);");

  // The out-of-range literals keep their saturated values.
  auto big = Tokenize("9223372036854775808 1e999 1e-999");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ((*big)[0].int_value, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE(std::isinf((*big)[1].float_value));
  EXPECT_EQ((*big)[2].float_value, 0.0);
}

// ---- expressions -----------------------------------------------------------

class SingleRowBinding : public ColumnBinding {
 public:
  std::optional<Value> Lookup(std::string_view name) const override {
    if (name == "name" || name == "c.name") return Value::Str("Christine");
    if (name == "city") return Value::Str("Chicago");
    if (name == "age") return Value::Int(34);
    if (name == "score") return Value::Real(2.5);
    if (name == "missing_val") return Value::Null();
    return std::nullopt;
  }
};

bool Holds(const std::string& text) {
  auto e = ParseExpression(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
  if (!e.ok()) return false;
  SingleRowBinding binding;
  auto r = EvalPredicate(**e, binding);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.ok() && *r;
}

TEST(ExprTest, Comparisons) {
  EXPECT_TRUE(Holds("age = 34"));
  EXPECT_TRUE(Holds("age <> 35"));
  EXPECT_TRUE(Holds("age < 35"));
  EXPECT_TRUE(Holds("age >= 34"));
  EXPECT_FALSE(Holds("age > 34"));
  EXPECT_TRUE(Holds("name = 'Christine'"));
  EXPECT_TRUE(Holds("score = 2.5"));
  EXPECT_TRUE(Holds("age = 34.0")) << "cross numeric comparison";
}

TEST(ExprTest, BooleanConnectives) {
  EXPECT_TRUE(Holds("age = 34 AND city = 'Chicago'"));
  EXPECT_FALSE(Holds("age = 34 AND city = 'Boston'"));
  EXPECT_TRUE(Holds("age = 0 OR city = 'Chicago'"));
  EXPECT_TRUE(Holds("NOT age = 0"));
  EXPECT_TRUE(Holds("age = 1 OR age = 2 OR age = 34"));
  EXPECT_TRUE(Holds("(age = 34 OR age = 1) AND NOT city = 'X'"));
}

TEST(ExprTest, LikeAndBetweenAndIn) {
  EXPECT_TRUE(Holds("name LIKE 'Chris%'"));
  EXPECT_FALSE(Holds("name NOT LIKE 'Chris%'"));
  EXPECT_TRUE(Holds("age BETWEEN 30 AND 40"));
  EXPECT_FALSE(Holds("age BETWEEN 40 AND 50"));
  EXPECT_TRUE(Holds("age NOT BETWEEN 40 AND 50"));
  EXPECT_TRUE(Holds("age IN (1, 34, 99)"));
  EXPECT_TRUE(Holds("age NOT IN (1, 2)"));
  EXPECT_TRUE(Holds("city IN ('Chicago', 'NY')"));
}

TEST(ExprTest, NullSemantics) {
  EXPECT_FALSE(Holds("missing_val = 5")) << "NULL comparison is not true";
  EXPECT_FALSE(Holds("missing_val <> 5")) << "NULL comparison is not true";
  EXPECT_TRUE(Holds("missing_val IS NULL"));
  EXPECT_FALSE(Holds("missing_val IS NOT NULL"));
  EXPECT_TRUE(Holds("age IS NOT NULL"));
}

TEST(ExprTest, ArithmeticAndFunctions) {
  EXPECT_TRUE(Holds("age * 2 = 68"));
  EXPECT_TRUE(Holds("age + 1 - 5 = 30"));
  EXPECT_TRUE(Holds("age / 2 = 17.0"));
  EXPECT_TRUE(Holds("LENGTH(name) = 9"));
  EXPECT_TRUE(Holds("LENGTH(city) > 6"));
  EXPECT_TRUE(Holds("ABS(0 - age) = 34"));
  EXPECT_TRUE(Holds("-age = -34"));
}

TEST(ExprTest, QualifiedColumn) { EXPECT_TRUE(Holds("c.name LIKE 'C%'")); }

TEST(ExprTest, UnknownColumnIsError) {
  auto e = ParseExpression("nope = 1");
  ASSERT_TRUE(e.ok());
  SingleRowBinding binding;
  EXPECT_FALSE(EvalPredicate(**e, binding).ok());
}

TEST(ExprTest, ToSqlRoundTrip) {
  for (const char* text :
       {"((age = 34) AND (name LIKE 'C%'))", "(LENGTH(name) > 10)",
        "((a + (b * 2)) >= 7)", "(x IS NOT NULL)"}) {
    auto e = ParseExpression(text);
    ASSERT_TRUE(e.ok()) << text;
    std::string rendered = (*e)->ToSql();
    auto reparsed = ParseExpression(rendered);
    ASSERT_TRUE(reparsed.ok()) << rendered;
    EXPECT_EQ((*reparsed)->ToSql(), rendered);
  }
}

TEST(ExprTest, CollectColumns) {
  auto e = ParseExpression("a = 1 AND b LIKE 'x%' OR LENGTH(c) < d");
  ASSERT_TRUE(e.ok());
  std::vector<std::string> cols;
  CollectColumns(**e, &cols);
  EXPECT_EQ(cols, (std::vector<std::string>{"a", "b", "c", "d"}));
}

// ---- statements ----------------------------------------------------------------

TEST(ParserTest, CreateTableFull) {
  auto stmt = ParseStatement(
      "CREATE TABLE Lineorder (lo_orderkey INT NOT NULL, lo_shipmode "
      "VARCHAR(10), lo_revenue DOUBLE, PRIMARY KEY (lo_orderkey), "
      "FOREIGN KEY (lo_orderkey) REFERENCES Orders (o_id))");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& create = std::get<CreateTableStmt>(*stmt);
  EXPECT_EQ(create.schema.name, "Lineorder");
  ASSERT_EQ(create.schema.columns.size(), 3u);
  EXPECT_FALSE(create.schema.columns[0].nullable);
  EXPECT_EQ(create.schema.columns[1].max_length, 10u);
  EXPECT_EQ(create.schema.primary_key,
            std::vector<std::string>{"lo_orderkey"});
  ASSERT_EQ(create.schema.foreign_keys.size(), 1u);
  EXPECT_EQ(create.schema.foreign_keys[0].ref_table, "Orders");
}

TEST(ParserTest, CreateIndex) {
  auto stmt = ParseStatement("CREATE INDEX idx_name ON Customer (Name, City)");
  ASSERT_TRUE(stmt.ok());
  const auto& ci = std::get<CreateIndexStmt>(*stmt);
  EXPECT_EQ(ci.index_name, "idx_name");
  EXPECT_EQ(ci.table, "Customer");
  EXPECT_EQ(ci.columns, (std::vector<std::string>{"Name", "City"}));
}

TEST(ParserTest, InsertMultiRow) {
  auto stmt = ParseStatement(
      "INSERT INTO t VALUES (1, 'a', NULL, 2.5), (2, 'b', 'x', -1)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& ins = std::get<InsertStmt>(*stmt);
  ASSERT_EQ(ins.rows.size(), 2u);
  EXPECT_EQ(ins.rows[0][0], Value::Int(1));
  EXPECT_TRUE(ins.rows[0][2].is_null());
  EXPECT_EQ(ins.rows[1][3], Value::Int(-1));
}

TEST(ParserTest, UpdateWithWhere) {
  auto stmt =
      ParseStatement("UPDATE Product SET Price = 99, Name = 'x' WHERE PID = 7");
  ASSERT_TRUE(stmt.ok());
  const auto& up = std::get<UpdateStmt>(*stmt);
  ASSERT_EQ(up.assignments.size(), 2u);
  EXPECT_EQ(up.assignments[0].first, "Price");
  EXPECT_EQ(up.assignments[0].second, Value::Int(99));
  ASSERT_NE(up.where, nullptr);
}

TEST(ParserTest, DeleteVariants) {
  auto with_where =
      ParseStatement("DELETE FROM Customer WHERE Name LIKE 'Chris%'");
  ASSERT_TRUE(with_where.ok());
  EXPECT_NE(std::get<DeleteStmt>(*with_where).where, nullptr);
  auto without = ParseStatement("DELETE FROM Customer");
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(std::get<DeleteStmt>(*without).where, nullptr);
}

TEST(ParserTest, SelectWithJoinGroupOrderLimit) {
  auto stmt = ParseStatement(
      "SELECT d_year, SUM(lo_revenue * lo_discount) AS revenue "
      "FROM lineorder AS l JOIN date AS d ON l.lo_orderdate = d.d_datekey "
      "WHERE lo_quantity < 25 GROUP BY d_year ORDER BY revenue DESC LIMIT 5");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const auto& sel = std::get<SelectStmt>(*stmt);
  ASSERT_EQ(sel.items.size(), 2u);
  EXPECT_EQ(sel.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(sel.items[1].alias, "revenue");
  EXPECT_EQ(sel.from.alias, "l");
  ASSERT_EQ(sel.joins.size(), 1u);
  EXPECT_EQ(sel.joins[0].left_column, "l.lo_orderdate");
  EXPECT_EQ(sel.group_by, std::vector<std::string>{"d_year"});
  ASSERT_EQ(sel.order_by.size(), 1u);
  EXPECT_TRUE(sel.order_by[0].descending);
  EXPECT_EQ(sel.limit, 5);
  EXPECT_TRUE(sel.HasAggregates());
}

TEST(ParserTest, SelectStarAndCountStar) {
  auto star = ParseStatement("SELECT * FROM t WHERE RowStatus = 'DELETED'");
  ASSERT_TRUE(star.ok());
  EXPECT_TRUE(std::get<SelectStmt>(*star).items[0].star);
  auto count = ParseStatement("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(std::get<SelectStmt>(*count).items[0].agg, AggFunc::kCount);
}

TEST(ParserTest, VacuumAndDrop) {
  ASSERT_TRUE(ParseStatement("VACUUM t").ok());
  ASSERT_TRUE(ParseStatement("DROP TABLE t;").ok());
}

TEST(ParserTest, StatementToSqlRoundTrips) {
  for (const char* text : {
           "DELETE FROM Customer WHERE (City = 'Chicago')",
           "INSERT INTO t VALUES (1, 'x', NULL)",
           "UPDATE t SET a = 1 WHERE (b > 2)",
           "SELECT * FROM t",
           "DROP TABLE t",
           "VACUUM t",
       }) {
    auto stmt = ParseStatement(text);
    ASSERT_TRUE(stmt.ok()) << text;
    std::string sql = StatementToSql(*stmt);
    auto reparsed = ParseStatement(sql);
    ASSERT_TRUE(reparsed.ok()) << sql;
    EXPECT_EQ(StatementToSql(*reparsed), sql);
  }
}

TEST(ParserTest, RejectsMalformedStatements) {
  EXPECT_FALSE(ParseStatement("SELECT FROM t").ok());
  EXPECT_FALSE(ParseStatement("DELETE Customer").ok());
  EXPECT_FALSE(ParseStatement("INSERT INTO t (1)").ok());
  EXPECT_FALSE(ParseStatement("CREATE TABLE t ()").ok());
  EXPECT_FALSE(ParseStatement("SELECT * FROM t extra garbage tokens").ok());
  EXPECT_FALSE(ParseStatement("").ok());
  EXPECT_FALSE(ParseStatement("UPDATE t SET").ok());
}

TEST(ParserTest, StatementKindNames) {
  EXPECT_STREQ(StatementKind(*ParseStatement("SELECT * FROM t")), "SELECT");
  EXPECT_STREQ(StatementKind(*ParseStatement("DELETE FROM t")), "DELETE");
  EXPECT_STREQ(StatementKind(*ParseStatement("VACUUM t")), "VACUUM");
}

}  // namespace
}  // namespace dbfa::sql
