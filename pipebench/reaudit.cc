// reaudit: successive captures of one database into one SnapshotRepo.
//
// Why: the only workload whose inputs share ~99% of their pages, so page
// detection and dedup in the snapshot layer dominate and full carving is
// nearly bypassed; this is where a faster warm ingest shows. Page and
// artifact appends (writes) sit beside dedup lookups and history queries
// (reads).
//
// Inputs: one postgres_like database of about 32 MB (wide rows, bulk
// loaded through logged multi-row INSERTs). Between captures a few logged
// UPDATE/INSERT/DELETE statements change about 1% of the pages; every 5th
// capture also carries one unlogged DELETE or INSERT on rows no logged
// statement names. The first capture is ingested cold during set-up; each
// timed case ingests the next capture and runs DetectIncremental against
// the previous snapshot. Every 5th case also registers both snapshots for
// a cross-snapshot meta-query and asks History for one row (every 5th, so
// that the 90th percentile falls among the cases that run it).
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "common/strings.h"
#include "core/carver.h"
#include "gen.h"
#include "metaquery/session.h"
#include "snapshot/snapshot_repo.h"

namespace pipebench {
namespace {

using namespace dbfa;

const char* const kDialect = "postgres_like";
constexpr int kRows = 8000;
constexpr size_t kNoteLen = 1800;
constexpr int kVictims = 64;              // ids kRows+1 .. kRows+kVictims
constexpr int64_t kFreshBase = 1'000'000;  // logged inserts after set-up
constexpr int64_t kForeignBase = 9'000'000;  // unlogged inserts
constexpr int kUpdatesPerCapture = 10;
constexpr double kCasesPerSecond = 8.0;

struct Churn {
  Database* db;
  Rng rng;
  int64_t next_fresh = kFreshBase;
  int injected_count = 0;

  /// Logged traffic between two captures; `tamper` adds one unlogged
  /// statement and returns the id it touched in *injected.
  Status Step(bool tamper, int64_t* injected) {
    for (int i = 0; i < kUpdatesPerCapture; ++i) {
      DBFA_RETURN_IF_ERROR(
          db->ExecuteSql(StrFormat("UPDATE Ledger SET Balance = %lld.%02d "
                                   "WHERE Id = %lld",
                                   (long long)rng.Uniform(0, 9999),
                                   (int)rng.Uniform(0, 99),
                                   (long long)rng.Uniform(1, kRows)))
              .status());
    }
    DBFA_RETURN_IF_ERROR(BulkInsert(db, "Ledger", next_fresh++, 1, kNoteLen,
                                    &rng));
    DBFA_RETURN_IF_ERROR(
        db->ExecuteSql(StrFormat("DELETE FROM Ledger WHERE Id = %lld",
                                 (long long)rng.Uniform(1, kRows)))
            .status());
    if (!tamper) return Status::Ok();
    ++injected_count;
    std::string sql;
    if (injected_count % 2 == 1 && injected_count / 2 < kVictims) {
      *injected = kRows + 1 + injected_count / 2;
      sql = StrFormat("DELETE FROM Ledger WHERE Id = %lld",
                      (long long)*injected);
    } else {
      *injected = kForeignBase + injected_count;
      sql = StrFormat(
          "INSERT INTO Ledger VALUES (%lld, 'Mallory', 'Nowhere', 13.37, "
          "'%s')",
          (long long)*injected, rng.Word(kNoteLen).c_str());
    }
    db->audit_log().SetEnabled(false);
    Status s = db->ExecuteSql(sql).status();
    db->audit_log().SetEnabled(true);
    return s;
  }
};

}  // namespace

WorkloadResult RunReaudit(const Env& env, Recorder* rec) {
  WorkloadResult out;
  Stopwatch setup;
  auto fail = [&](const std::string& what, const Status& s) {
    out.failures.push_back("reaudit " + what + ": " + s.ToString());
    return out;
  };

  DatabaseOptions options;
  options.dialect = kDialect;
  auto db = Database::Open(options);
  if (!db.ok()) return fail("open", db.status());
  Churn churn{db->get(), Rng(env.seed * 7919 + 17)};
  Status s = (*db)->ExecuteSql(
                      StrFormat("CREATE TABLE Ledger (Id INT NOT NULL, "
                                "Owner VARCHAR(24), City VARCHAR(16), "
                                "Balance DOUBLE, Note VARCHAR(%zu), "
                                "PRIMARY KEY (Id))",
                                kNoteLen))
                 .status();
  if (s.ok()) {
    s = BulkInsert(db->get(), "Ledger", 1, kRows, kNoteLen, &churn.rng);
  }
  if (s.ok()) {
    s = BulkInsert(db->get(), "Ledger", kRows + 1, kVictims, kNoteLen,
                   &churn.rng, "Victim");
  }
  if (!s.ok()) return fail("generate", s);
  const CarverConfig config = ConfigFor(kDialect);

  CarveOptions carve_options;
  carve_options.num_threads = env.threads;
  auto repo =
      SnapshotRepo::Create(env.work_dir + "/repo", config, carve_options);
  if (!repo.ok()) return fail("create repo", repo.status());

  auto capture = (*db)->SnapshotDisk();
  if (!capture.ok()) return fail("capture", capture.status());
  double ingested_bytes = static_cast<double>(capture->size());
  out.inputs["database_bytes"] = StrFormat("%zu", capture->size());
  out.inputs["rows"] = StrFormat("%d", kRows + kVictims);
  out.inputs["dialect"] = kDialect;
  out.inputs["note_bytes"] = StrFormat("%zu", kNoteLen);
  out.inputs["updates_per_capture"] = StrFormat("%d", kUpdatesPerCapture);
  rec->SetCase(kSetupCase);
  {
    ScopedSpan span(rec, "snapshot.cold_ingest_ms");
    auto cold = (*repo)->Ingest(*capture);
    if (!cold.ok()) return fail("cold ingest", cold.status());
  }
  uint64_t prev = 1;

  const size_t n = CaseCount(env.seconds, kCasesPerSecond);
  out.inputs["cases"] = StrFormat("%zu", n);
  std::set<int64_t> injected_all;
  std::set<int64_t> flagged_all;
  Ratio pages_new;
  Ratio reuse;
  size_t history_rows = 0;
  Bytes last_capture;
  for (size_t c = 0; c <= n; ++c) {
    const bool warmup = c == 0;
    const bool every5 = c % 5 == 0;
    // ---- untimed: the next capture ----
    int64_t injected = -1;
    s = churn.Step(/*tamper=*/every5 && !warmup, &injected);
    if (!s.ok()) return fail("churn", s);
    capture = (*db)->SnapshotDisk();
    if (!capture.ok()) return fail("capture", capture.status());
    ingested_bytes += static_cast<double>(capture->size());
    const AuditLog& log = (*db)->audit_log();

    rec->SetCase(warmup ? kSetupCase : c);
    CaseSample sample;
    sample.image_bytes = static_cast<double>(capture->size());
    sample.stmts = static_cast<double>(log.entries().size());
    Result<IngestStats> stats = Status::Internal("not run");
    Result<IncrementalDetection> det = Status::Internal("not run");
    std::string error;
    size_t rows_out = 0;
    Stopwatch watch;
    {
      ScopedSpan case_span(rec, "case");
      {
        ScopedSpan span(rec, "snapshot.warm_ingest_ms");
        stats = (*repo)->Ingest(*capture);
      }
      if (stats.ok()) {
        ScopedSpan span(rec, "snapshot.detect_incremental_ms");
        det = (*repo)->DetectIncremental(prev, stats->snapshot_id, log);
      }
      if (stats.ok() && every5) {
        ScopedSpan span(rec, "metaquery.history_ms");
        MetaQuerySession session;
        Status reg = (*repo)->RegisterSnapshots(&session,
                                                {prev, stats->snapshot_id});
        if (reg.ok()) {
          auto table = session.Query(StrFormat(
              "SELECT B.Id, A.Balance, B.Balance FROM Snap%lluLedger AS A "
              "JOIN Snap%lluLedger AS B ON A.Id = B.Id "
              "WHERE A.Balance <> B.Balance",
              (unsigned long long)prev,
              (unsigned long long)stats->snapshot_id));
          if (table.ok()) {
            rows_out += table->rows.size();
          } else {
            error = "history query: " + table.status().ToString();
          }
        } else {
          error = "register: " + reg.ToString();
        }
      }
    }
    sample.ms = watch.ms();

    // ---- untimed: checks and ground truth ----
    if (!stats.ok()) error = "ingest: " + stats.status().ToString();
    if (error.empty() && !det.ok()) {
      error = "detect: " + det.status().ToString();
    }
    const size_t expected_pages = capture->size() / config.params.page_size;
    if (error.empty() && stats->pages_total != expected_pages) {
      error = StrFormat("ingest found %zu pages, the capture holds %zu",
                        stats->pages_total, expected_pages);
    }
    if (!error.empty()) {
      sample.ok = false;
      out.failures.push_back(
          StrFormat("reaudit case %zu: %s", c, error.c_str()));
    }
    if (stats.ok()) prev = stats->snapshot_id;
    if (warmup) {
      out.setup_s = setup.ms() / 1000.0;
      if (env.setup_only) return out;
      continue;
    }
    out.cases.push_back(sample);
    if (!error.empty()) continue;

    std::set<int64_t> flagged;
    for (const UnattributedModification& m : det->modifications) {
      flagged.insert(IdOf(m.values));
    }
    if (injected >= 0) injected_all.insert(injected);
    flagged_all.insert(flagged.begin(), flagged.end());
    if (injected >= 0) {
      // Exact when the case flags the new tampering and nothing that was
      // never injected (earlier tampering may resurface on changed pages).
      bool exact = flagged.count(injected) == 1;
      for (int64_t id : flagged) exact = exact && injected_all.count(id) == 1;
      out.exact.den += 1;
      out.exact.num += exact ? 1 : 0;
    }
    pages_new.num += static_cast<double>(stats->pages_new);
    pages_new.den += static_cast<double>(stats->pages_total);
    reuse.num += static_cast<double>(stats->artifacts_reused);
    reuse.den += static_cast<double>(stats->artifacts_reused +
                                     stats->artifacts_carved);
    out.counts["detective.records_checked"] +=
        static_cast<double>(det->deleted_checked + det->active_checked);
    history_rows += rows_out;
    if (c == n) last_capture = std::move(*capture);
  }
  size_t hits = 0;
  for (int64_t id : injected_all) hits += flagged_all.count(id);
  out.recall = Ratio{static_cast<double>(hits),
                     static_cast<double>(injected_all.size())};
  out.precision = Ratio{static_cast<double>(hits),
                        static_cast<double>(flagged_all.size())};
  out.counts["metaquery.rows_out"] = static_cast<double>(history_rows);
  out.ratios["snapshot.pages_new_ratio"] = pages_new;
  out.ratios["snapshot.artifact_reuse_ratio"] = reuse;
  out.ratios["snapshot.stored_bytes_per_image_byte"] =
      Ratio{static_cast<double>(DirBytes((*repo)->dir())), ingested_bytes};

  // SnapshotRepo::History assembles every snapshot, so its cost grows with
  // the number of cases run before it; it is traced once, after the timed
  // cases, over a fixed number of snapshots, and kept out of case times.
  Record probe;
  for (int64_t k = 0; probe.empty() && k < kRows; ++k) {
    (void)FindRow(db->get(), "Ledger", 1 + (int64_t)(n * 131 + k) % kRows,
                  &probe);
  }
  rec->SetCase(kSetupCase);
  {
    ScopedSpan span(rec, "snapshot.history_ms");
    auto hist = (*repo)->History("Ledger", probe);
    if (!hist.ok() || hist->seen_in.empty()) {
      out.failures.push_back(
          "reaudit history: " +
          (hist.ok() ? std::string("live row never seen")
                     : hist.status().ToString()));
    }
  }

  // Once per run, untimed: the last snapshot reassembled from the store
  // must equal a fresh serial carve of the capture it came from.
  if (!last_capture.empty()) {
    auto assembled = (*repo)->AssembleCarve(prev);
    auto fresh = Carver(config).Carve(last_capture);
    std::string why;
    if (!assembled.ok()) {
      why = assembled.status().ToString();
    } else if (!fresh.ok()) {
      why = fresh.status().ToString();
    } else {
      why = DiffArtifacts(*fresh, *assembled);
    }
    if (!why.empty()) {
      out.failures.push_back("reaudit AssembleCarve check: " + why);
      if (!out.cases.empty()) out.cases.back().ok = false;
    }
  }
  return out;
}

}  // namespace pipebench
