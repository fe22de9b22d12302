#include "oracles/detective_reference.h"

#include <optional>
#include <string>
#include <variant>

#include "common/strings.h"
#include "sql/parser.h"

namespace dbfa::oracle {
namespace {

/// The table a logged statement modifies, or nullptr for statements that
/// cannot attribute a carved record.
const std::string* ModifiedTable(const sql::Statement& stmt) {
  if (const auto* del = std::get_if<sql::DeleteStmt>(&stmt)) {
    return &del->table;
  }
  if (const auto* up = std::get_if<sql::UpdateStmt>(&stmt)) return &up->table;
  if (const auto* ins = std::get_if<sql::InsertStmt>(&stmt)) {
    return &ins->table;
  }
  if (const auto* drop = std::get_if<sql::DropTableStmt>(&stmt)) {
    return &drop->table;
  }
  return nullptr;
}

/// A logged WHERE clause attributes a deleted record when it is absent
/// (the statement hit every row) or evaluates true on the record.
bool PredicateMatches(const sql::ExprPtr& where,
                      const sql::RecordBinding& binding) {
  if (where == nullptr) return true;
  auto match = sql::EvalPredicate(*where, binding);
  return match.ok() && *match;
}

bool DeletedAttributed(const sql::Statement& stmt,
                       const sql::RecordBinding& binding) {
  if (std::holds_alternative<sql::DropTableStmt>(stmt)) return true;
  if (const auto* del = std::get_if<sql::DeleteStmt>(&stmt)) {
    return PredicateMatches(del->where, binding);
  }
  // The pre-image of a logged UPDATE is also a legitimate deleted record:
  // its values satisfy the UPDATE's predicate.
  if (const auto* up = std::get_if<sql::UpdateStmt>(&stmt)) {
    return PredicateMatches(up->where, binding);
  }
  return false;
}

/// Whether `where` names a column of `schema` that one of `up`'s SET
/// clauses assigns, resolving each name as `binding` would.
bool ReadsSetColumn(const sql::Expr& where, const sql::UpdateStmt& up,
                    const TableSchema& schema) {
  std::vector<std::string> columns;
  Record positions;
  for (size_t i = 0; i < schema.columns.size(); ++i) {
    columns.push_back(schema.columns[i].name);
    positions.push_back(Value::Int(static_cast<int64_t>(i)));
  }
  sql::RecordBinding position_of(columns, positions, schema.name);
  std::vector<std::string> read;
  sql::CollectColumns(where, &read);
  for (const std::string& name : read) {
    std::optional<Value> pos = position_of.Lookup(name);
    if (!pos.has_value()) continue;
    for (const auto& [col, value] : up.assignments) {
      if (schema.ColumnIndex(col) == pos->as_int()) return true;
    }
  }
  return false;
}

bool ActiveAttributed(const sql::Statement& stmt, const TableSchema& schema,
                      const Record& values, const sql::RecordBinding& binding) {
  if (const auto* ins = std::get_if<sql::InsertStmt>(&stmt)) {
    for (const Record& row : ins->rows) {
      if (CompareRecords(row, values) == 0) return true;
    }
    return false;
  }
  // The post-image of a logged UPDATE: all SET values must be present. It
  // differs from its pre-image only in SET columns, so it must also satisfy
  // a WHERE that reads none of them.
  if (const auto* up = std::get_if<sql::UpdateStmt>(&stmt)) {
    if (up->assignments.empty()) return false;
    for (const auto& [col, value] : up->assignments) {
      int ci = schema.ColumnIndex(col);
      if (ci < 0 || !(values[static_cast<size_t>(ci)] == value)) return false;
    }
    return up->where == nullptr || ReadsSetColumn(*up->where, *up, schema) ||
           PredicateMatches(up->where, binding);
  }
  return false;
}

}  // namespace

Result<std::vector<UnattributedModification>>
FindUnattributedModificationsReference(const CarveResult& disk,
                                       const AuditLog& log,
                                       size_t* deleted_checked,
                                       size_t* active_checked) {
  std::vector<sql::Statement> statements;
  for (const AuditEntry& entry : log.entries()) {
    auto stmt = sql::ParseStatement(entry.sql);
    if (stmt.ok()) statements.push_back(std::move(stmt).value());
  }

  std::vector<UnattributedModification> out;
  size_t deleted_count = 0;
  size_t active_count = 0;
  for (const CarvedRecord& r : disk.records) {
    auto schema_it = disk.schemas.find(r.object_id);
    if (schema_it == disk.schemas.end()) continue;
    const TableSchema& schema = schema_it->second;
    if (!r.typed || r.values.size() != schema.columns.size()) continue;
    std::vector<std::string> columns;
    for (const Column& c : schema.columns) columns.push_back(c.name);
    sql::RecordBinding binding(columns, r.values, schema.name);

    const bool deleted = r.status == RowStatus::kDeleted;
    ++(deleted ? deleted_count : active_count);
    bool attributed = false;
    for (const sql::Statement& stmt : statements) {
      const std::string* table = ModifiedTable(stmt);
      if (table == nullptr || !EqualsIgnoreCase(*table, schema.name)) continue;
      attributed = deleted ? DeletedAttributed(stmt, binding)
                           : ActiveAttributed(stmt, schema, r.values, binding);
      if (attributed) break;
    }
    if (attributed) continue;
    if (deleted) {
      out.push_back({UnattributedModification::Kind::kDelete, schema.name,
                     r.values, r.page_id, r.slot,
                     "no logged DELETE/UPDATE predicate matches this "
                     "deleted record"});
    } else {
      out.push_back({UnattributedModification::Kind::kInsert, schema.name,
                     r.values, r.page_id, r.slot,
                     "no logged INSERT/UPDATE produces this record"});
    }
  }
  if (deleted_checked != nullptr) *deleted_checked = deleted_count;
  if (active_checked != nullptr) *active_checked = active_count;
  return out;
}

}  // namespace dbfa::oracle
