// The tuple-at-a-time meta-query executor, kept as the differential
// oracle for the production engine (src/metaquery/spill_executor.h): every
// name is re-resolved per row, every operator materializes its input, and
// aggregation uses an ordered map. tests/metaquery_differential_test.cc
// pits the engine against this oracle across budgets, thread counts and
// batch sizes. Compiled into test targets only.
//
// The one change from the historical implementation is the join hash
// table: buckets keep right-relation scan order, so duplicate-key matches
// are emitted in a defined order the engine shares (the historical
// unordered_multimap order was unspecified).
#ifndef DBFA_TESTS_ORACLES_METAQUERY_REFERENCE_H_
#define DBFA_TESTS_ORACLES_METAQUERY_REFERENCE_H_

#include <map>
#include <memory>
#include <string>

#include "metaquery/exec_common.h"
#include "metaquery/session.h"

namespace dbfa::oracle {

/// Executes `stmt` over the relations `lookup` resolves.
Result<QueryTable> ExecuteReference(
    const sql::SelectStmt& stmt,
    const metaquery_internal::RelationResolver& lookup);

/// The oracle's own relation namespace: case-insensitive names, last
/// registration wins — the session's rules, without a session.
class ReferenceCatalog {
 public:
  void Register(const std::string& name, std::shared_ptr<Relation> relation);

  /// Parses and executes one SELECT statement.
  Result<QueryTable> Query(const std::string& select_sql) const;

 private:
  std::map<std::string, std::shared_ptr<Relation>> relations_;  // lower key
};

}  // namespace dbfa::oracle

#endif  // DBFA_TESTS_ORACLES_METAQUERY_REFERENCE_H_
