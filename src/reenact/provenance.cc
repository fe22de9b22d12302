#include "reenact/provenance.h"

#include <map>
#include <unordered_set>
#include <utility>

#include "common/strings.h"

namespace dbfa {
namespace {

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

}  // namespace

std::string ProvenanceReport::ToString() const {
  std::string out = StrFormat(
      "Provenance: %zu transactions (%zu confirmed, %zu contradicted, "
      "%zu missing, %zu unverifiable)\n",
      transactions.size(), confirmed, contradicted, missing, unverifiable);
  for (const TransactionFootprint& t : transactions) {
    out += "  " + t.ToString() + "\n";
  }
  return out;
}

Result<ProvenanceReport> ProvenanceAnalyzer::Analyze(
    const AuditLog& log, const CarveResult& disk) const {
  ProvenanceReport report;

  // Phase 1: each entry's footprint, from the log's capturing replay.
  DBFA_ASSIGN_OR_RETURN(auto history, reenactor_->History(log));
  DBFA_RETURN_IF_ERROR(history->capture_status);
  report.transactions = history->footprints;
  for (size_t i = 0; i < report.transactions.size(); ++i) {
    report.transactions[i].applied = history->outcomes[i].applied;
  }

  // Phase 2: join footprints against carved evidence. A write's *final*
  // effect (still live in the fully-replayed claimed state) must appear in
  // the carved active records; superseded effects should appear as carved
  // delete-marked records where the dialect preserves them.
  std::map<std::string, TableEvidence> evidence = IndexEvidence(disk);
  std::map<std::string, std::unordered_set<std::string>> final_rows;
  for (const auto& [table, rows] : history->final_rows) {
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
      auto fr = final_rows.find(w.table);
      bool is_final = fr != final_rows.end() && fr->second.count(rendered) != 0;
      if (is_post_image) {
        if (is_final) {
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
          // Live in storage *and* not supposed to be live at the end:
          // storage contradicts the logged delete/update.
          if (!is_final && contradiction.empty()) {
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

}  // namespace dbfa
