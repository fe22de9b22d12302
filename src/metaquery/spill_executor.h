// The meta-query executor — the one engine behind MetaQuerySession. It
// runs scan -> join -> filter -> aggregate/project -> order/limit as a
// chain of streaming operators, with every column reference bound to a
// flat index at plan time. Under MetaQueryOptions::memory_budget_bytes
// every unbounded intermediate is governed by the budget: row sets that
// outgrow it move to checksummed spill files (common/spill_manager.h),
// ORDER BY runs an external merge sort, joins fall back to a recursive
// grace hash join, and GROUP BY re-partitions oversized group tables.
// Budget 0 never spills and skips all footprint accounting.
//
// Results are bit-identical for every query at every (budget, thread
// count, batch size) combination — the construction is documented in
// docs/spilling.md and enforced by the differential test against the
// tuple-at-a-time reference oracle in tests/oracles/.
#ifndef DBFA_METAQUERY_SPILL_EXECUTOR_H_
#define DBFA_METAQUERY_SPILL_EXECUTOR_H_

#include "common/spill_manager.h"
#include "common/thread_pool.h"
#include "metaquery/exec_common.h"
#include "metaquery/session.h"

namespace dbfa::metaquery_internal {

/// Executes `stmt` under options.memory_budget_bytes (0 = unbounded).
/// Spill files live in a unique directory under options.spill_dir (system
/// temp when empty), created on the first spill and removed on every exit
/// path. `pool`, when non-null, runs spilled partitions concurrently. When
/// `stats` is non-null it receives the query's spill counters.
Result<QueryTable> ExecuteOutOfCore(const sql::SelectStmt& stmt,
                                    const RelationResolver& lookup,
                                    const MetaQueryOptions& options,
                                    ThreadPool* pool, SpillStats* stats);

}  // namespace dbfa::metaquery_internal

#endif  // DBFA_METAQUERY_SPILL_EXECUTOR_H_
