// investigate: one-shot investigations of cold disk + RAM images.
//
// Why: core, auditor, metaquery and detective do almost all the work here;
// snapshot, reenact and serve do none. Cost scales with image size.
//
// Inputs: kImages images rotating over four dialects. Each holds one
// database with a logged OLTP history (a share of its rows deleted),
// embedded between runs of random and text garbage so that page detection
// probes a realistic disk image, plus the buffer-pool dump taken shortly
// before the disk capture. Some images carry unlogged DELETE/INSERT
// statements or a file-level field overwrite on rows that no logged
// statement ever names, so the generator knows exactly which rows were
// tampered with. Cases cycle over the images; a case shares no state with
// the one before it.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "auditor/storage_auditor.h"
#include "bench.h"
#include "gen.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/carver.h"
#include "core/parallel_carver.h"
#include "detective/dbdetective.h"
#include "storage/disk_image.h"
#include "workload/synthetic.h"

namespace pipebench {
namespace {

using namespace dbfa;

// Seven images over four dialects: an odd number of cost groups keeps the
// median and the 90th percentile inside a group instead of on the edge
// between two.
constexpr size_t kImages = 7;
const char* const kDialects[] = {"postgres_like", "oracle_like", "mysql_like",
                                 "sqlserver_like"};
constexpr int kRows = 9000;
constexpr int kHistoryOps = 400;
constexpr int kTailOps = 40;
constexpr size_t kImageBytes = 16u << 20;
constexpr int64_t kBulkBase = 1'000'000;  // bulk-loaded rows
constexpr int64_t kVictimBase = 5'000'000;  // rows only tampering touches
constexpr int64_t kForeignBase = 9'000'000;  // rows only tampering inserts
constexpr double kCasesPerSecond = 12.0;  // ~10-12 a second on a 4-core VM

struct Image {
  std::string dialect;
  CarverConfig config;
  Bytes disk;
  Bytes ram;
  AuditLog log;
  std::set<int64_t> injected;  // Ids of tampered rows
  size_t expected_active = 0;  // live Accounts rows in the engine
};

/// Builds image `index`. Tampering by index: 0 and 3 clean; 1 and 4 an
/// unlogged DELETE + INSERT; 2 and 5 a field overwrite; 6 all three.
Result<Image> MakeImage(uint64_t seed, size_t index) {
  Image img;
  img.dialect = kDialects[index % 4];
  DatabaseOptions options;
  options.dialect = img.dialect;
  // Large enough to keep the catalog and the working set cached, so the
  // RAM capture carries schemas and can be queried as CarvRAM<Table>.
  options.buffer_pool_pages = 512;
  DBFA_ASSIGN_OR_RETURN(auto db, Database::Open(options));
  const uint64_t s = seed * 1000003 + index;
  SyntheticWorkload workload(db.get(), "Accounts", s);
  Rng rng(s ^ 0x5bd1e995);
  // CREATE TABLE, then a bulk load through multi-row INSERTs, then the
  // synthetic OLTP mix (its own inserts take ids from 1 upward).
  DBFA_RETURN_IF_ERROR(workload.Setup(0));
  DBFA_RETURN_IF_ERROR(
      BulkInsert(db.get(), "Accounts", kBulkBase, kRows, 0, &rng));
  // Victim rows: logged, but with an owner and ids the synthetic mix never
  // names, so no logged DELETE/UPDATE predicate can explain their fate.
  DBFA_RETURN_IF_ERROR(
      BulkInsert(db.get(), "Accounts", kVictimBase + 1, 3, 0, &rng, "Victim"));
  DBFA_RETURN_IF_ERROR(workload.Run(kHistoryOps, OpMix{}, /*logged=*/true));

  const bool unlogged = index % 3 == 1 || index == 6;
  const bool overwrite = index % 3 == 2 || index == 6;
  if (unlogged) {
    DBFA_RETURN_IF_ERROR(workload.RunStatement(
        StrFormat("DELETE FROM Accounts WHERE Id = %lld",
                  (long long)(kVictimBase + 1)),
        /*logged=*/false));
    img.injected.insert(kVictimBase + 1);
    int64_t foreign = kForeignBase + rng.Uniform(1, 999);
    DBFA_RETURN_IF_ERROR(workload.RunStatement(
        StrFormat("INSERT INTO Accounts VALUES (%lld, 'Mallory', 'Nowhere', "
                  "13.37)",
                  (long long)foreign),
        /*logged=*/false));
    img.injected.insert(foreign);
  }
  if (overwrite) {
    DBFA_ASSIGN_OR_RETURN(RowPointer ptr,
                          FindRow(db.get(), "Accounts", kVictimBase + 2));
    DBFA_RETURN_IF_ERROR(TamperOverwriteField(
        db.get(), "Accounts", ptr, "Balance",
        Value::Real(static_cast<double>(rng.Uniform(10000, 20000)) + 0.5)));
    img.injected.insert(kVictimBase + 2);
  }

  // Logged traffic after the tampering. The DDL re-caches the catalog that
  // a file-level edit evicts; the RAM capture is taken midway, so it holds
  // page versions the later statements change on disk.
  DBFA_RETURN_IF_ERROR(workload.RunStatement(
      "CREATE TABLE Notes (Id INT NOT NULL, Body VARCHAR(32), "
      "PRIMARY KEY (Id))",
      /*logged=*/true));
  DBFA_RETURN_IF_ERROR(workload.RunStatement(
      "INSERT INTO Notes VALUES (1, 'quarterly close')", /*logged=*/true));
  DBFA_RETURN_IF_ERROR(workload.Run(kTailOps, OpMix{}, /*logged=*/true));
  img.ram = db->SnapshotRam();
  DBFA_RETURN_IF_ERROR(workload.Run(kTailOps, OpMix{}, /*logged=*/true));

  DBFA_ASSIGN_OR_RETURN(img.expected_active, CountActive(db.get(), "Accounts"));

  DBFA_ASSIGN_OR_RETURN(auto files, db->ExportFiles());
  size_t db_bytes = 0;
  for (const auto& [name, bytes] : files) db_bytes += bytes.size();
  if (db_bytes >= kImageBytes) {
    return Status::Internal("investigate: database outgrew the image size");
  }
  // Garbage runs between the files, in 4 KiB blocks so that pages stay on
  // the 512-byte detection grid, as on a real file system.
  const size_t blocks = (kImageBytes - db_bytes) / 4096;
  std::vector<size_t> cuts;
  for (size_t i = 0; i < files.size(); ++i) {
    cuts.push_back(static_cast<size_t>(rng.Uniform(0, (int64_t)blocks)));
  }
  cuts.push_back(0);
  cuts.push_back(blocks);
  std::sort(cuts.begin(), cuts.end());
  DiskImageBuilder builder;
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {
    size_t run = (cuts[i + 1] - cuts[i]) * 4096;
    if (run > 0) {
      if (i % 2 == 0) {
        builder.AppendGarbage(run, &rng);
      } else {
        builder.AppendTextGarbage(run, &rng);
      }
    }
    if (i < files.size()) builder.AppendFile(files[i].first, files[i].second);
  }
  img.disk = builder.TakeBytes();
  img.log = db->audit_log();
  img.config = ConfigFor(img.dialect);
  return img;
}

}  // namespace

WorkloadResult RunInvestigate(const Env& env, Recorder* rec) {
  WorkloadResult out;
  Stopwatch setup;
  ThreadPool pool(env.threads);

  std::vector<Image> images;
  std::string setup_error =
      GenerateAll(&pool, kImages, &images,
                  [&](size_t i) { return MakeImage(env.seed, i); });
  if (!setup_error.empty()) {
    out.failures.push_back("investigate setup: " + setup_error);
    return out;
  }

  const size_t n = CaseCount(env.seconds, kCasesPerSecond, kImages);
  size_t tampered_images = 0;
  size_t image_bytes = 0;
  size_t log_entries = 0;
  for (const Image& img : images) {
    tampered_images += img.injected.empty() ? 0 : 1;
    image_bytes += img.disk.size() + img.ram.size();
    log_entries += img.log.entries().size();
  }
  out.inputs["images"] = StrFormat("%zu", kImages);
  out.inputs["dialects"] =
      "postgres_like,oracle_like,mysql_like,sqlserver_like";
  out.inputs["disk_image_bytes"] = StrFormat("%zu", kImageBytes);
  out.inputs["rows_per_image"] = StrFormat("%d", kRows);
  out.inputs["tampered_images"] = StrFormat("%zu", tampered_images);
  out.inputs["mean_image_plus_ram_bytes"] =
      StrFormat("%zu", image_bytes / kImages);
  out.inputs["mean_log_entries"] = StrFormat("%zu", log_entries / kImages);
  out.inputs["cases"] = StrFormat("%zu", n);

  Ratio accept;
  // Case 0 is the untimed warm-up; cases 1..n are timed.
  for (size_t c = 0; c <= n; ++c) {
    const bool warmup = c == 0;
    const Image& img = images[c % kImages];
    rec->SetCase(warmup ? kSetupCase : c);
    CaseSample sample;
    sample.image_bytes = static_cast<double>(img.disk.size() + img.ram.size());
    sample.stmts = static_cast<double>(img.log.entries().size());

    Result<CarveResult> disk = Status::Internal("not run");
    Result<CarveResult> ram = Status::Internal("not run");
    Result<AuditReport> audit = Status::Internal("not run");
    Result<DetectiveReport> report = Status::Internal("not run");
    size_t rows_out = 0;
    std::string error;
    CorePin pin(c, env.threads);
    Stopwatch watch;
    {
      ScopedSpan case_span(rec, "case");
      {
        ScopedSpan span(rec, "core.carve_ms");
        disk =
            ParallelCarver(img.config, CarveOptions{}, &pool).Carve(img.disk);
      }
      {
        ScopedSpan span(rec, "core.ram_carve_ms");
        ram = Carver(img.config).Carve(img.ram);
      }
      if (disk.ok() && ram.ok()) {
        {
          ScopedSpan span(rec, "auditor.audit_ms");
          audit = StorageAuditor(img.config).AuditCarve(*disk);
        }
        DbDetective detective(&*disk, &img.log, &*ram);
        std::unique_ptr<MetaQuerySession> session;
        {
          ScopedSpan span(rec, "metaquery.register_ms");
          auto made = detective.MakeMetaQuerySession();
          if (made.ok()) {
            session = std::move(*made);
          } else {
            error = made.status().ToString();
          }
        }
        if (session != nullptr) {
          struct Query {
            const char* span;
            const char* sql;
          };
          static const Query kQueries[] = {
              {"metaquery.deleted_scan_ms",
               "SELECT * FROM CarvDiskAccounts WHERE RowStatus = 'DELETED'"},
              {"metaquery.disk_ram_join_ms",
               "SELECT D.Id, M.Balance, D.Balance FROM CarvRAMAccounts AS M "
               "JOIN CarvDiskAccounts AS D ON M.Id = D.Id "
               "WHERE M.Balance <> D.Balance"},
              {"metaquery.group_agg_ms",
               "SELECT City, RowStatus, COUNT(*), SUM(Balance) FROM "
               "CarvDiskAccounts GROUP BY City, RowStatus"},
          };
          for (const Query& q : kQueries) {
            ScopedSpan span(rec, q.span);
            auto table = session->Query(q.sql);
            if (table.ok()) {
              rows_out += table->rows.size();
            } else if (error.empty()) {
              error = table.status().ToString();
            }
          }
        }
        {
          ScopedSpan span(rec, "detective.analyze_ms");
          report = detective.Analyze();
        }
      }
    }
    sample.ms = watch.ms();

    // ---- untimed: errors, ground truth and correctness checks ----
    if (!disk.ok()) error = "carve: " + disk.status().ToString();
    if (error.empty() && !ram.ok()) {
      error = "ram carve: " + ram.status().ToString();
    }
    if (error.empty() && !audit.ok()) {
      error = "audit: " + audit.status().ToString();
    }
    if (error.empty() && !report.ok()) {
      error = "detective: " + report.status().ToString();
    }
    if (error.empty()) {
      size_t active =
          disk->RecordsForTable("Accounts", RowStatus::kActive).size();
      if (active != img.expected_active) {
        error = StrFormat("carved %zu active Accounts rows, generator has %zu",
                          active, img.expected_active);
      }
    }
    if (!error.empty()) {
      sample.ok = false;
      out.failures.push_back(StrFormat("investigate case %zu (%s): %s", c,
                                       img.dialect.c_str(), error.c_str()));
    }
    if (warmup) {
      out.setup_s = setup.ms() / 1000.0;
      if (env.setup_only) return out;
      continue;
    }
    out.cases.push_back(sample);
    if (!error.empty()) continue;

    std::set<std::string> flagged;
    for (const UnattributedModification& m : report->modifications) {
      flagged.insert(StrFormat("row:%lld", (long long)IdOf(m.values)));
    }
    for (const UnloggedAccess& r : report->reads) {
      flagged.insert("read:" + r.table);
    }
    for (const TamperFinding& f : audit->findings) {
      // A dangling pointer names its row only through the index key.
      int64_t id = !f.record_values.empty() ? IdOf(f.record_values)
                                            : IdOf(f.index_keys);
      flagged.insert(StrFormat("row:%lld", (long long)id));
    }
    for (const BTreeIssue& issue : audit->index_issues) {
      flagged.insert(
          StrFormat("btree:%u:%u", issue.index_object, issue.page_id));
    }
    size_t hits = 0;
    for (int64_t id : img.injected) {
      hits += flagged.count(StrFormat("row:%lld", (long long)id));
    }
    out.recall.num += static_cast<double>(hits);
    out.recall.den += static_cast<double>(img.injected.size());
    out.precision.num += static_cast<double>(hits);
    out.precision.den += static_cast<double>(flagged.size());
    if (!img.injected.empty()) {
      out.exact.den += 1;
      if (hits == img.injected.size() && flagged.size() == hits) {
        out.exact.num += 1;
      }
    }

    out.counts["core.records_carved"] +=
        static_cast<double>(disk->records.size() + ram->records.size());
    out.counts["metaquery.rows_out"] += static_cast<double>(rows_out);
    out.counts["detective.records_checked"] += static_cast<double>(
        report->deleted_records_checked + report->active_records_checked);
    accept.num += static_cast<double>(disk->stats.pages_accepted);
    accept.den += static_cast<double>(disk->stats.pages_probed);
  }
  out.ratios["core.page_accept_ratio"] = accept;
  return out;
}

}  // namespace pipebench
