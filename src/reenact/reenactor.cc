#include "reenact/reenactor.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"
#include "sql/parser.h"

namespace dbfa {
namespace {

/// Column-name list of a schema, for binding WHERE predicates.
std::vector<std::string> ColumnNames(const TableSchema& schema) {
  std::vector<std::string> names;
  names.reserve(schema.columns.size());
  for (const Column& c : schema.columns) names.push_back(c.name);
  return names;
}

/// Rows of `table` matching `where` (nullptr = all) in the replayed engine
/// right now — the pre-images a DELETE/UPDATE is about to consume.
Result<std::vector<Record>> MatchingRows(Database* db,
                                         const std::string& table,
                                         const sql::ExprPtr& where) {
  const TableInfo* info = db->catalog().Find(table);
  if (info == nullptr) return std::vector<Record>{};
  TableHeap* heap = db->heap(table);
  if (heap == nullptr) return std::vector<Record>{};
  std::vector<std::string> names = ColumnNames(info->schema);
  std::vector<Record> rows;
  Status scan = heap->Scan([&](RowPointer, const Record& r) {
    if (where != nullptr) {
      sql::RecordBinding binding(names, r, info->schema.name);
      DBFA_ASSIGN_OR_RETURN(bool match, sql::EvalPredicate(*where, binding));
      if (!match) return Status::Ok();
    }
    rows.push_back(r);
    return Status::Ok();
  });
  DBFA_RETURN_IF_ERROR(scan);
  return rows;
}

/// Appends `entry`'s footprint, captured just before the entry runs: the
/// only point where DELETE/UPDATE pre-images exist.
Status CaptureFootprint(Database* db, const AuditEntry& entry,
                        std::vector<TransactionFootprint>* footprints) {
  TransactionFootprint fp;
  fp.seq = entry.seq;
  fp.timestamp = entry.timestamp;
  fp.sql = entry.sql;
  auto stmt = sql::ParseStatement(entry.sql);
  if (stmt.ok()) {
    if (const auto* ins = std::get_if<sql::InsertStmt>(&*stmt)) {
      std::string key = ToLower(ins->table);
      for (const Record& row : ins->rows) {
        fp.writes.push_back({EffectKind::kInsert, key, row});
      }
    } else if (const auto* del = std::get_if<sql::DeleteStmt>(&*stmt)) {
      std::string key = ToLower(del->table);
      fp.reads.push_back(key);
      DBFA_ASSIGN_OR_RETURN(auto rows, MatchingRows(db, del->table,
                                                    del->where));
      for (Record& row : rows) {
        fp.writes.push_back({EffectKind::kDelete, key, std::move(row)});
      }
    } else if (const auto* up = std::get_if<sql::UpdateStmt>(&*stmt)) {
      std::string key = ToLower(up->table);
      fp.reads.push_back(key);
      DBFA_ASSIGN_OR_RETURN(auto rows, MatchingRows(db, up->table,
                                                    up->where));
      const TableInfo* info = db->catalog().Find(up->table);
      for (Record& row : rows) {
        Record after = row;
        if (info != nullptr) {
          for (const auto& [column, value] : up->assignments) {
            int index = info->schema.ColumnIndex(column);
            if (index >= 0) after[static_cast<size_t>(index)] = value;
          }
        }
        fp.writes.push_back(
            {EffectKind::kUpdateBefore, key, std::move(row)});
        fp.writes.push_back({EffectKind::kUpdateAfter, key,
                             std::move(after)});
      }
    } else if (const auto* sel = std::get_if<sql::SelectStmt>(&*stmt)) {
      fp.reads.push_back(ToLower(sel->from.table));
      for (const sql::JoinClause& join : sel->joins) {
        fp.reads.push_back(ToLower(join.table.table));
      }
    }
  }
  footprints->push_back(std::move(fp));
  return Status::Ok();
}

std::string FingerprintOf(
    const std::map<std::string, std::vector<Record>>& tables) {
  std::string out = "dbfa-state-fingerprint v1\n";
  for (const auto& [key, rows] : tables) {
    out += "table " + key + "\n";
    for (const Record& r : rows) {
      out += "row " + RecordToString(r) + "\n";
    }
  }
  out += "end\n";
  return out;
}

}  // namespace

const char* EffectKindName(EffectKind kind) {
  switch (kind) {
    case EffectKind::kInsert:
      return "insert";
    case EffectKind::kDelete:
      return "delete";
    case EffectKind::kUpdateBefore:
      return "update-before";
    case EffectKind::kUpdateAfter:
      return "update-after";
  }
  return "?";
}

const char* EvidenceVerdictName(EvidenceVerdict verdict) {
  switch (verdict) {
    case EvidenceVerdict::kConfirmed:
      return "confirmed";
    case EvidenceVerdict::kContradicted:
      return "contradicted";
    case EvidenceVerdict::kMissing:
      return "missing";
    case EvidenceVerdict::kUnverifiable:
      return "unverifiable";
  }
  return "?";
}

std::string RowEffect::ToString() const {
  return StrFormat("%s %s %s", EffectKindName(kind), table.c_str(),
                   RecordToString(values).c_str());
}

std::string TransactionFootprint::ToString() const {
  std::string out = StrFormat(
      "seq %llu ts %lld [%s] %s", static_cast<unsigned long long>(seq),
      static_cast<long long>(timestamp), EvidenceVerdictName(verdict),
      sql.c_str());
  if (!evidence.empty()) out += " — " + evidence;
  for (const RowEffect& w : writes) out += "\n    " + w.ToString();
  return out;
}


std::string StatementOutcome::ToString() const {
  if (applied) {
    return StrFormat("seq %llu ts %lld row-id %llu: %s",
                     static_cast<unsigned long long>(seq),
                     static_cast<long long>(timestamp),
                     static_cast<unsigned long long>(row_id_before),
                     sql.c_str());
  }
  return StrFormat("seq %llu ts %lld REJECTED (%s): %s",
                   static_cast<unsigned long long>(seq),
                   static_cast<long long>(timestamp), error.c_str(),
                   sql.c_str());
}

Result<std::string> ReenactedState::Fingerprint() const {
  return CanonicalFingerprint(db.get());
}

Result<std::map<std::string, std::vector<Record>>> ActiveRowsByTable(
    Database* db) {
  std::map<std::string, std::vector<Record>> out;
  for (const auto& [key, info] : db->catalog().tables()) {
    std::vector<Record>& rows = out[key];
    TableHeap* heap = db->heap(info.schema.name);
    if (heap == nullptr) continue;  // registered but never materialized
    DBFA_RETURN_IF_ERROR(heap->Scan([&rows](RowPointer, const Record& r) {
      rows.push_back(r);
      return Status::Ok();
    }));
    std::sort(rows.begin(), rows.end(), [](const Record& a, const Record& b) {
      return CompareRecords(a, b) < 0;
    });
  }
  return out;
}

Result<std::string> CanonicalFingerprint(Database* db) {
  DBFA_ASSIGN_OR_RETURN(auto tables, ActiveRowsByTable(db));
  return FingerprintOf(tables);
}

DatabaseOptions ReferenceOptionsFor(const CarverConfig& config) {
  DatabaseOptions options;
  // The carver config carries the full layout parameter set; using it as
  // custom_params reproduces the instance's storage dialect exactly even
  // for engines outside the built-in eight.
  options.custom_params = config.params;
  return options;
}

Result<ReenactedState> Reenactor::Replay(const AuditLog& log,
                                         const ReplayOptions& options) const {
  bool full = options.upto_seq == 0 && options.skip_seqs.empty() &&
              !options.stop_on_error && !options.before_statement;
  return Run(log, options, full ? std::make_shared<ClaimedHistory>() : nullptr);
}

Result<std::shared_ptr<const ClaimedHistory>> Reenactor::History(
    const AuditLog& log) const {
  const std::vector<AuditEntry>& entries = log.entries();
  {
    MutexLock lock(&memo_mu_);
    if (memo_ != nullptr &&
        std::equal(entries.begin(), entries.end(), memo_->outcomes.begin(),
                   memo_->outcomes.end(),
                   [](const AuditEntry& e, const StatementOutcome& o) {
                     return e.seq == o.seq && e.timestamp == o.timestamp &&
                            e.sql == o.sql;
                   })) {
      return memo_;
    }
  }
  auto history = std::make_shared<ClaimedHistory>();
  DBFA_RETURN_IF_ERROR(Run(log, ReplayOptions{}, history).status());
  return std::shared_ptr<const ClaimedHistory>(std::move(history));
}

Result<ReenactedState> Reenactor::Run(
    const AuditLog& log, const ReplayOptions& options,
    std::shared_ptr<ClaimedHistory> history) const {
  ++replays_;
  ReenactedState state;
  DBFA_ASSIGN_OR_RETURN(state.db, Database::Open(base_));
  // The replayed engine's own log would only echo the input history.
  state.db->audit_log().SetEnabled(false);
  state.outcomes.reserve(log.entries().size());
  for (const AuditEntry& entry : log.entries()) {
    if (options.upto_seq != 0 && entry.seq > options.upto_seq) continue;
    if (options.skip_seqs.count(entry.seq) != 0) continue;
    StatementOutcome outcome;
    outcome.seq = entry.seq;
    outcome.timestamp = entry.timestamp;
    outcome.sql = entry.sql;
    outcome.row_id_before = state.db->next_row_id();
    // Replay under the claimed clock so storage LSNs carry claimed times.
    state.db->clock().Set(entry.timestamp);
    if (options.before_statement) {
      DBFA_RETURN_IF_ERROR(options.before_statement(state.db.get(), entry));
    }
    if (history != nullptr && history->capture_status.ok()) {
      history->capture_status =
          CaptureFootprint(state.db.get(), entry, &history->footprints);
    }
    auto result = state.db->ExecuteSql(entry.sql);
    if (result.ok()) {
      outcome.applied = true;
      ++state.applied;
    } else {
      outcome.error = result.status().ToString();
      ++state.failed;
    }
    bool stop = options.stop_on_error && !outcome.applied;
    state.outcomes.push_back(std::move(outcome));
    if (stop) break;
  }
  if (history != nullptr) {
    history->outcomes = state.outcomes;
    DBFA_ASSIGN_OR_RETURN(history->final_rows,
                          ActiveRowsByTable(state.db.get()));
    for (const auto& [key, info] : state.db->catalog().tables()) {
      history->schemas.emplace(key, info.schema);
    }
    history->fingerprint = FingerprintOf(history->final_rows);
    MutexLock lock(&memo_mu_);
    memo_ = std::move(history);
  }
  return state;
}

}  // namespace dbfa
