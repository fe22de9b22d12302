#include "oracles/reenact_reference.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>
#include <utility>

#include "common/strings.h"
#include "sql/parser.h"
#include "sql/statement.h"

namespace dbfa::oracle {
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

/// Carved evidence for one table: display-rendered record sets. Rendering
/// through RecordToString makes replayed and carved rows comparable without
/// caring about physical representation.
struct TableEvidence {
  std::unordered_set<std::string> active;
  std::unordered_set<std::string> deleted;
};

std::map<std::string, TableEvidence> IndexEvidence(const CarveResult& disk) {
  std::map<std::string, TableEvidence> by_table;
  std::map<uint32_t, std::string> names;
  for (const auto& [object_id, schema] : disk.schemas) {
    names[object_id] = ToLower(schema.name);
  }
  for (const CarvedRecord& r : disk.records) {
    if (!r.typed) continue;
    auto it = names.find(r.object_id);
    if (it == names.end()) continue;
    TableEvidence& ev = by_table[it->second];
    if (r.status == RowStatus::kActive) {
      ev.active.insert(RecordToString(r.values));
    } else {
      ev.deleted.insert(RecordToString(r.values));
    }
  }
  return by_table;
}

/// "col = literal" (or "col IS NULL") comparison term.
std::string EqualityTerm(const std::string& column, const Value& value) {
  if (value.is_null()) return column + " IS NULL";
  return column + " = " + value.ToSqlLiteral();
}

/// WHERE clause pinning `record` down by the `key_indexes` columns.
std::string KeyWhere(const TableSchema& schema,
                     const std::vector<size_t>& key_indexes,
                     const Record& record) {
  std::string where;
  for (size_t index : key_indexes) {
    if (!where.empty()) where += " AND ";
    where += EqualityTerm(schema.columns[index].name, record[index]);
  }
  return where;
}

std::string InsertSql(const std::string& table, const Record& record) {
  std::string values;
  for (const Value& v : record) {
    if (!values.empty()) values += ", ";
    values += v.ToSqlLiteral();
  }
  return StrFormat("INSERT INTO %s VALUES (%s)", table.c_str(),
                   values.c_str());
}

/// Primary-key column indexes, or empty when the schema has no usable key
/// (no declared key, or a key column missing from the column list).
std::vector<size_t> KeyIndexes(const TableSchema& schema) {
  std::vector<size_t> indexes;
  for (const std::string& column : schema.primary_key) {
    int index = schema.ColumnIndex(column);
    if (index < 0) return {};
    indexes.push_back(static_cast<size_t>(index));
  }
  return indexes;
}

/// Rendered key of `record` under `key_indexes` (full row when empty).
std::string KeyOf(const std::vector<size_t>& key_indexes,
                  const Record& record) {
  if (key_indexes.empty()) return RecordToString(record);
  Record key;
  key.reserve(key_indexes.size());
  for (size_t index : key_indexes) {
    if (index < record.size()) key.push_back(record[index]);
  }
  return RecordToString(key);
}

}  // namespace

Result<ProvenanceReport> AnalyzeReference(const Reenactor& reenactor,
                                          const AuditLog& log,
                                          const CarveResult& disk) {
  ProvenanceReport report;

  // Phase 1: replay, capturing each statement's footprint against the
  // claimed state it executes in. The before_statement hook sees the engine
  // immediately before the entry runs, which is the only point where
  // DELETE/UPDATE pre-images exist.
  ReplayOptions replay_options;
  replay_options.before_statement = [&report](Database* db,
                                              const AuditEntry& entry) {
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
    report.transactions.push_back(std::move(fp));
    return Status::Ok();
  };
  DBFA_ASSIGN_OR_RETURN(ReenactedState state,
                        reenactor.Replay(log, replay_options));

  // The hook ran once per replayed entry, in order; fold in the outcomes.
  for (size_t i = 0;
       i < state.outcomes.size() && i < report.transactions.size(); ++i) {
    report.transactions[i].applied = state.outcomes[i].applied;
  }

  // Phase 2: join footprints against carved evidence. A write's *final*
  // effect (still live in the fully-replayed claimed state) must appear in
  // the carved active records; superseded effects should appear as carved
  // delete-marked records where the dialect preserves them.
  std::map<std::string, TableEvidence> evidence = IndexEvidence(disk);
  DBFA_ASSIGN_OR_RETURN(auto final_tables, ActiveRowsByTable(state.db.get()));
  std::map<std::string, std::unordered_set<std::string>> final_rows;
  for (const auto& [table, rows] : final_tables) {
    std::unordered_set<std::string>& set = final_rows[table];
    for (const Record& r : rows) set.insert(RecordToString(r));
  }

  for (TransactionFootprint& fp : report.transactions) {
    if (!fp.applied || fp.writes.empty()) {
      fp.verdict = EvidenceVerdict::kUnverifiable;
      if (!fp.applied) fp.evidence = "statement did not replay";
      ++report.unverifiable;
      continue;
    }
    size_t confirmed_effects = 0;
    std::string contradiction;
    std::string missing;
    for (const RowEffect& w : fp.writes) {
      std::string rendered = RecordToString(w.values);
      auto ev_it = evidence.find(w.table);
      const TableEvidence* ev =
          ev_it == evidence.end() ? nullptr : &ev_it->second;
      bool in_active = ev != nullptr && ev->active.count(rendered) != 0;
      bool in_deleted = ev != nullptr && ev->deleted.count(rendered) != 0;
      bool is_post_image = w.kind == EffectKind::kInsert ||
                           w.kind == EffectKind::kUpdateAfter;
      if (is_post_image) {
        auto fr = final_rows.find(w.table);
        bool still_final = fr != final_rows.end() &&
                           fr->second.count(rendered) != 0;
        if (still_final) {
          if (in_active) {
            ++confirmed_effects;
          } else if (missing.empty()) {
            missing = StrFormat("claimed row %s not carved from %s",
                                rendered.c_str(), w.table.c_str());
          }
        } else if (in_deleted) {
          ++confirmed_effects;  // superseded version survives delete-marked
        }
      } else {  // pre-image of a DELETE or UPDATE
        if (in_active) {
          auto fr = final_rows.find(w.table);
          bool resurrected = fr != final_rows.end() &&
                             fr->second.count(rendered) != 0;
          // Live in storage *and* not supposed to be live at the end:
          // storage contradicts the logged delete/update.
          if (!resurrected && contradiction.empty()) {
            contradiction =
                StrFormat("row %s still active in storage despite logged %s",
                          rendered.c_str(), EffectKindName(w.kind));
          }
        } else if (in_deleted) {
          ++confirmed_effects;
        }
      }
    }
    if (!contradiction.empty()) {
      fp.verdict = EvidenceVerdict::kContradicted;
      fp.evidence = contradiction;
      ++report.contradicted;
    } else if (!missing.empty()) {
      fp.verdict = EvidenceVerdict::kMissing;
      fp.evidence = missing;
      ++report.missing;
    } else if (confirmed_effects > 0) {
      fp.verdict = EvidenceVerdict::kConfirmed;
      fp.evidence = StrFormat("%zu of %zu row effects located in storage",
                              confirmed_effects, fp.writes.size());
      ++report.confirmed;
    } else {
      fp.verdict = EvidenceVerdict::kUnverifiable;
      fp.evidence = "no surviving storage evidence for this statement";
      ++report.unverifiable;
    }
  }
  return report;
}

Result<RecoveryScript> PlanReference(const Reenactor& reenactor,
                                     const AuditLog& log,
                                     const CarveResult& disk) {
  RecoveryScript script;
  DBFA_ASSIGN_OR_RETURN(ReenactedState state, reenactor.Replay(log));
  DBFA_ASSIGN_OR_RETURN(auto claimed_tables,
                        ActiveRowsByTable(state.db.get()));

  // Carved reality: typed active records from parsed slots (orphans from
  // the raw scan have no live slot and are not part of the current state).
  std::map<std::string, std::vector<Record>> actual_tables;
  std::map<std::string, const TableSchema*> carved_schema;
  for (const auto& [object_id, schema] : disk.schemas) {
    if (disk.dropped_objects.count(object_id) != 0) continue;
    carved_schema[ToLower(schema.name)] = &schema;
  }
  for (const CarvedRecord& r : disk.records) {
    if (!r.typed || r.status != RowStatus::kActive) continue;
    if (r.slot == CarvedRecord::kOrphanSlot) continue;
    auto schema_it = disk.schemas.find(r.object_id);
    if (schema_it == disk.schemas.end()) continue;
    if (disk.dropped_objects.count(r.object_id) != 0) continue;
    actual_tables[ToLower(schema_it->second.name)].push_back(r.values);
  }

  std::set<std::string> table_keys;
  for (const auto& [key, rows] : claimed_tables) table_keys.insert(key);
  for (const auto& [key, rows] : actual_tables) table_keys.insert(key);

  std::vector<std::string> deletes;
  std::vector<std::string> updates;
  std::vector<std::string> inserts;
  for (const std::string& table : table_keys) {
    // Schema preference: the replayed engine's catalog (it knows the
    // claimed state), falling back to the carved catalog records.
    const TableSchema* schema = nullptr;
    const TableInfo* info = state.db->catalog().Find(table);
    if (info != nullptr) {
      schema = &info->schema;
    } else {
      auto it = carved_schema.find(table);
      if (it != carved_schema.end()) schema = it->second;
    }
    if (schema == nullptr) continue;
    std::vector<size_t> key_indexes = KeyIndexes(*schema);

    // Bucket both sides by key. With a primary key each bucket holds the
    // row version(s) for that key; without one, buckets are full-row
    // multisets and alterations surface as a missing + extraneous pair.
    std::map<std::string, std::vector<Record>> claimed_by_key;
    std::map<std::string, std::vector<Record>> actual_by_key;
    auto claimed_it = claimed_tables.find(table);
    if (claimed_it != claimed_tables.end()) {
      for (const Record& r : claimed_it->second) {
        claimed_by_key[KeyOf(key_indexes, r)].push_back(r);
      }
    }
    auto actual_it = actual_tables.find(table);
    if (actual_it != actual_tables.end()) {
      for (const Record& r : actual_it->second) {
        actual_by_key[KeyOf(key_indexes, r)].push_back(r);
      }
    }

    std::set<std::string> keys;
    for (const auto& [key, rows] : claimed_by_key) keys.insert(key);
    for (const auto& [key, rows] : actual_by_key) keys.insert(key);
    for (const std::string& key : keys) {
      auto c_it = claimed_by_key.find(key);
      auto a_it = actual_by_key.find(key);
      const std::vector<Record>* claimed_rows =
          c_it == claimed_by_key.end() ? nullptr : &c_it->second;
      const std::vector<Record>* actual_rows =
          a_it == actual_by_key.end() ? nullptr : &a_it->second;

      if (claimed_rows != nullptr && actual_rows != nullptr &&
          !key_indexes.empty() && claimed_rows->size() == 1 &&
          actual_rows->size() == 1) {
        const Record& claimed = (*claimed_rows)[0];
        const Record& actual = (*actual_rows)[0];
        if (CompareRecords(claimed, actual) == 0) continue;
        // Same key, different payload: repair in place, touching only the
        // columns tampering altered.
        std::string set_clause;
        for (size_t i = 0; i < schema->columns.size() &&
                           i < claimed.size() && i < actual.size();
             ++i) {
          if (Value::Compare(claimed[i], actual[i]) == 0) continue;
          if (!set_clause.empty()) set_clause += ", ";
          set_clause += schema->columns[i].name + " = " +
                        (claimed[i].is_null() ? std::string("NULL")
                                              : claimed[i].ToSqlLiteral());
        }
        updates.push_back(StrFormat("UPDATE %s SET %s WHERE %s",
                                    schema->name.c_str(), set_clause.c_str(),
                                    KeyWhere(*schema, key_indexes, actual)
                                        .c_str()));
        script.corruptions.push_back(
            {RowCorruption::Kind::kAltered, table, claimed, actual});
        continue;
      }

      // Multiset reconciliation (and the rare duplicate-key case): delete
      // every surplus actual copy, insert every deficit claimed copy.
      size_t claimed_count = claimed_rows == nullptr ? 0
                                                     : claimed_rows->size();
      size_t actual_count = actual_rows == nullptr ? 0 : actual_rows->size();
      if (actual_count > claimed_count) {
        const Record& actual = (*actual_rows)[0];
        // One DELETE removes every copy matched by the full-row (or key)
        // predicate; claimed copies are re-inserted below.
        std::string where =
            key_indexes.empty()
                ? [&] {
                    std::string terms;
                    for (size_t i = 0;
                         i < schema->columns.size() && i < actual.size();
                         ++i) {
                      if (!terms.empty()) terms += " AND ";
                      terms += EqualityTerm(schema->columns[i].name,
                                            actual[i]);
                    }
                    return terms;
                  }()
                : KeyWhere(*schema, key_indexes, actual);
        deletes.push_back(StrFormat("DELETE FROM %s WHERE %s",
                                    schema->name.c_str(), where.c_str()));
        // The delete removed every matched copy; re-insert the claimed ones.
        if (claimed_rows != nullptr) {
          for (const Record& r : *claimed_rows) {
            inserts.push_back(InsertSql(schema->name, r));
          }
        }
        for (size_t i = claimed_rows == nullptr ? 0 : claimed_rows->size();
             i < actual_count; ++i) {
          script.corruptions.push_back({RowCorruption::Kind::kExtraneous,
                                        table, Record{}, (*actual_rows)[0]});
        }
      } else if (claimed_count > actual_count) {
        for (size_t i = actual_count; i < claimed_count; ++i) {
          const Record& claimed = (*claimed_rows)[i];
          inserts.push_back(InsertSql(schema->name, claimed));
          script.corruptions.push_back(
              {RowCorruption::Kind::kMissing, table, claimed, Record{}});
        }
      }
    }
  }

  std::sort(deletes.begin(), deletes.end());
  std::sort(updates.begin(), updates.end());
  std::sort(inserts.begin(), inserts.end());
  script.statements.reserve(deletes.size() + updates.size() + inserts.size());
  for (auto& s : deletes) script.statements.push_back(std::move(s));
  for (auto& s : updates) script.statements.push_back(std::move(s));
  for (auto& s : inserts) script.statements.push_back(std::move(s));
  return script;
}

Result<RecoveryVerification> VerifyReference(const Reenactor& reenactor,
                                             const RecoveryScript& script,
                                             const AuditLog& log,
                                             const CarveResult& disk) {
  RecoveryVerification verification;
  DBFA_ASSIGN_OR_RETURN(ReenactedState claimed, reenactor.Replay(log));
  DBFA_ASSIGN_OR_RETURN(verification.claimed_fingerprint,
                        claimed.Fingerprint());
  DBFA_ASSIGN_OR_RETURN(
      auto recovered, RecoveryPlanner(reenactor).MaterializeCarvedState(disk));
  for (const std::string& statement : script.statements) {
    DBFA_RETURN_IF_ERROR(recovered->ExecuteSql(statement).status());
  }
  DBFA_ASSIGN_OR_RETURN(verification.recovered_fingerprint,
                        CanonicalFingerprint(recovered.get()));
  verification.byte_identical =
      verification.claimed_fingerprint == verification.recovered_fingerprint;
  return verification;
}

Result<LogValidationReport> ValidateReference(const Reenactor& reenactor,
                                              const AuditLog& log,
                                              const CarveResult& disk) {
  LogValidationReport report;

  // Detectors 1+2: log-internal and storage-order analysis.
  LogEventAnalyzer analyzer(&disk, &log);
  DBFA_ASSIGN_OR_RETURN(report.timeline, analyzer.Analyze());
  std::set<uint64_t> flagged;
  for (const BackdateFinding& f : report.timeline.findings) {
    flagged.insert(f.seq);
  }

  // Detector 3: replay the claimed history; the outcome trail records the
  // row id the counter held before each statement — the id an honest
  // history would have stamped on that INSERT's record.
  DBFA_ASSIGN_OR_RETURN(ReenactedState state, reenactor.Replay(log));
  struct MatchedInsert {
    const StatementOutcome* outcome;
    uint64_t carved_row_id;
  };
  std::vector<MatchedInsert> matched;
  for (const StatementOutcome& outcome : state.outcomes) {
    if (!outcome.applied) continue;
    auto stmt = sql::ParseStatement(outcome.sql);
    if (!stmt.ok()) continue;
    const auto* ins = std::get_if<sql::InsertStmt>(&*stmt);
    if (ins == nullptr || ins->rows.size() != 1) continue;
    uint32_t object_id = disk.ObjectIdByName(ins->table);
    if (object_id == 0) continue;
    for (const CarvedRecord& r : disk.records) {
      if (r.object_id != object_id || r.row_id == 0 || !r.typed) continue;
      if (CompareRecords(r.values, ins->rows[0]) == 0) {
        matched.push_back({&outcome, r.row_id});
        break;
      }
    }
  }
  report.inserts_matched = matched.size();
  std::stable_sort(matched.begin(), matched.end(),
                   [](const MatchedInsert& a, const MatchedInsert& b) {
                     if (a.outcome->timestamp != b.outcome->timestamp) {
                       return a.outcome->timestamp < b.outcome->timestamp;
                     }
                     return a.outcome->seq < b.outcome->seq;
                   });
  std::vector<uint64_t> carved_ids;
  carved_ids.reserve(matched.size());
  for (const MatchedInsert& m : matched) carved_ids.push_back(m.carved_row_id);
  std::vector<size_t> consistent = LongestNonDecreasingIndexes(carved_ids);
  std::vector<bool> keep(matched.size(), false);
  for (size_t i : consistent) keep[i] = true;
  for (size_t i = 0; i < matched.size(); ++i) {
    if (keep[i]) continue;
    if (flagged.count(matched[i].outcome->seq) != 0) continue;
    report.replay_findings.push_back(
        {matched[i].outcome->seq, matched[i].outcome->timestamp,
         matched[i].outcome->sql,
         StrFormat("storage stamped row id %llu, out of order for the "
                   "claimed time; replaying the claimed history predicts "
                   "id %llu at this position",
                   static_cast<unsigned long long>(matched[i].carved_row_id),
                   static_cast<unsigned long long>(
                       matched[i].outcome->row_id_before))});
  }

  // State-level cross-check: does the claimed history even lead to the
  // carved reality? (Divergence is tampering — recovery's department.)
  DBFA_ASSIGN_OR_RETURN(RecoveryScript diff,
                        PlanReference(reenactor, log, disk));
  report.state_matches_replay = diff.Clean();
  report.corrupted_rows = diff.corruptions.size();
  return report;
}

}  // namespace dbfa::oracle
