// Input-generation helpers shared by the workload drivers. Everything here
// runs before or between timed cases, never inside one.
#ifndef PIPEBENCH_GEN_H_
#define PIPEBENCH_GEN_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/artifacts.h"
#include "core/config_io.h"
#include "engine/database.h"

namespace pipebench {

/// Inserts rows with ids first_id .. first_id + count - 1 into `table`
/// (Id, Owner, City, Balance[, Note]) through logged multi-row INSERT
/// statements. Owners and cities come from the synthetic OLTP workload's
/// value domain, so its predicates (Owner = .. AND City = ..) reach these
/// rows too. `note_len` > 0 adds a Note string of that length. A non-empty
/// `owner` replaces the random owner.
dbfa::Status BulkInsert(dbfa::Database* db, const std::string& table,
                        int64_t first_id, int count, size_t note_len,
                        dbfa::Rng* rng, const std::string& owner = "");

/// Where the live row with primary key `id` sits; its values go to
/// `values` when given.
dbfa::Result<dbfa::RowPointer> FindRow(dbfa::Database* db,
                                       const std::string& table, int64_t id,
                                       dbfa::Record* values = nullptr);

/// Live rows of `table`, counted by the engine.
dbfa::Result<size_t> CountActive(dbfa::Database* db, const std::string& table);

/// The carver configuration of a built-in dialect.
dbfa::CarverConfig ConfigFor(const std::string& dialect);

/// Empty when the two carves hold the same artifacts (every collection, in
/// order; stats excluded), otherwise the first difference.
std::string DiffArtifacts(const dbfa::CarveResult& expected,
                          const dbfa::CarveResult& actual);

/// Bytes of the regular files under `dir`.
size_t DirBytes(const std::string& dir);

/// Runs make(i) for i in [0, n) on `pool` and stores the results in
/// order; returns the first error, or an empty string.
template <typename T, typename Make>
std::string GenerateAll(dbfa::ThreadPool* pool, size_t n, std::vector<T>* out,
                        Make make) {
  out->assign(n, T{});
  std::string error;
  std::mutex mu;
  pool->ParallelFor(n, [&](size_t i) {
    auto made = make(i);
    if (made.ok()) {
      (*out)[i] = std::move(*made);
    } else {
      std::lock_guard<std::mutex> lock(mu);
      if (error.empty()) error = made.status().ToString();
    }
  });
  return error;
}

/// First column as an integer id; -1 when it is not one.
int64_t IdOf(const dbfa::Record& values);

}  // namespace pipebench

#endif  // PIPEBENCH_GEN_H_
