// E13 — snapshot repository ingest (docs/snapshot_store.md): cold carve vs
// cold ingest vs warm re-ingest of a >= 64 MB capture where at most 5% of
// pages changed between snapshots. The acceptance bar is warm re-ingest
// >= 5x faster than the cold serial carve; counters report the page dedup
// and artifact reuse rates that produce the speedup.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/carver.h"
#include "core/page_builder.h"
#include "engine/database.h"
#include "snapshot/snapshot_repo.h"
#include "storage/dialects.h"
#include "storage/disk_image.h"

namespace {

using namespace dbfa;

namespace fs = std::filesystem;

constexpr const char* kDialect = "postgres_like";
// ~259k rows x ~260 bytes -> ~8600 data pages -> a ~70 MB database file.
constexpr int kLedgerRows = 259000;

CarverConfig BenchConfig() {
  CarverConfig config;
  config.params = GetDialect(kDialect).value();
  config.catalog_object_id = kCatalogObjectId;
  return config;
}

/// Frames a database file like a real capture: garbage, file, garbage. The
/// fixed seed keeps the garbage identical across captures so only genuine
/// database changes differ between the cold and warm images.
Bytes Frame(const Bytes& file) {
  Rng rng(17);
  DiskImageBuilder builder;
  builder.AppendGarbage(512 * 4, &rng);
  builder.AppendFile("db", file);
  builder.AppendGarbage(512 * 4, &rng);
  return builder.TakeBytes();
}

struct PreparedImages {
  Bytes cold;  // first capture
  Bytes warm;  // second capture after a localized row-range delete
};

const PreparedImages& Images() {
  static PreparedImages* prepared = [] {
    CarverConfig config = BenchConfig();

    DatabaseOptions options;
    options.dialect = kDialect;
    auto db = Database::Open(options).value();
    (void)db->ExecuteSql(
        "CREATE TABLE Manifest (Id INT NOT NULL, Note VARCHAR(48), "
        "PRIMARY KEY (Id))");
    for (int i = 1; i <= 40; ++i) {
      (void)db->ExecuteSql(StrFormat(
          "INSERT INTO Manifest VALUES (%d, 'capture-note-%04d')", i, i));
    }

    // SQL inserts cannot reach 64 MB in reasonable time; build the bulk
    // table as an external heap file and attach it.
    TableSchema schema;
    schema.name = "Ledger";
    schema.columns = {{"Id", ColumnType::kInt, 0, false},
                      {"Payload", ColumnType::kVarchar, 200, true},
                      {"Tag", ColumnType::kVarchar, 32, true}};
    schema.primary_key = {"Id"};
    std::vector<Record> rows;
    rows.reserve(kLedgerRows);
    std::string padding(160, 'x');
    for (int i = 1; i <= kLedgerRows; ++i) {
      rows.push_back({Value::Int(i),
                      Value::Str(StrFormat("entry-%08d-", i) + padding),
                      Value::Str(StrFormat("tag-%d", i % 977))});
    }
    ExternalPageBuilder builder(config);
    Bytes file = builder.BuildTableFile(schema, rows).value();
    if (!db->AttachExternalTable(schema, file).ok()) std::abort();

    auto result = new PreparedImages;
    result->cold = Frame(db->SnapshotDisk().value());

    // A contiguous row-range delete touches a small, localized set of heap
    // and index pages; the rest of the capture is byte-identical.
    (void)db->ExecuteSql(StrFormat(
        "DELETE FROM Ledger WHERE Id >= %d AND Id < %d", 100000, 104000));
    result->warm = Frame(db->SnapshotDisk().value());
    return result;
  }();
  return *prepared;
}

std::string FreshRepoDir() {
  fs::path dir = fs::temp_directory_path() / "bench_snapshot_repo";
  fs::remove_all(dir);
  return dir.string();
}

/// The baseline every snapshot-aware number compares against: one serial
/// carve of the full cold image, no repository involved.
void BM_ColdSerialCarve(benchmark::State& state) {
  const PreparedImages& images = Images();
  Carver carver(BenchConfig(), CarveOptions{});
  for (auto _ : state) {
    auto result = carver.Carve(images.cold);
    if (!result.ok()) state.SkipWithError("carve failed");
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(images.cold.size()));
  state.counters["image_mb"] =
      static_cast<double>(images.cold.size()) / (1024.0 * 1024.0);
}
BENCHMARK(BM_ColdSerialCarve)->Unit(benchmark::kMillisecond);

/// First ingest into an empty repository: every page is new, every artifact
/// carved, plus the store/cache append cost the serial carve does not pay.
void BM_ColdIngest(benchmark::State& state) {
  const PreparedImages& images = Images();
  IngestStats last;
  // The repository outlives the timed region so its destructor (index
  // teardown, file closes) is not billed to the ingest.
  std::unique_ptr<SnapshotRepo> repo;
  for (auto _ : state) {
    state.PauseTiming();
    repo.reset();
    repo = SnapshotRepo::Create(FreshRepoDir(), BenchConfig()).value();
    state.ResumeTiming();
    auto stats = repo->Ingest(images.cold);
    if (!stats.ok()) state.SkipWithError("ingest failed");
    last = *stats;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(images.cold.size()));
  state.counters["pages_total"] = static_cast<double>(last.pages_total);
  state.counters["pages_new"] = static_cast<double>(last.pages_new);
}
BENCHMARK(BM_ColdIngest)->Unit(benchmark::kMillisecond);

/// Re-ingest of the next capture after a localized change: detection
/// re-hashes every page but dedup skips probe + artifact decode for the
/// unchanged ones, so only the changed pages pay full carve cost.
/// `num_threads` sizes the repository's pool (0 = hardware concurrency).
void WarmReingest(benchmark::State& state, size_t num_threads) {
  const PreparedImages& images = Images();
  CarveOptions options;
  options.num_threads = num_threads;
  IngestStats last;
  std::unique_ptr<SnapshotRepo> repo;
  for (auto _ : state) {
    state.PauseTiming();
    repo.reset();
    repo = SnapshotRepo::Create(FreshRepoDir(), BenchConfig(), options).value();
    if (!repo->Ingest(images.cold).ok()) state.SkipWithError("cold failed");
    state.ResumeTiming();
    auto stats = repo->Ingest(images.warm);
    if (!stats.ok()) state.SkipWithError("warm failed");
    last = *stats;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(images.warm.size()));
  state.counters["pages_total"] = static_cast<double>(last.pages_total);
  state.counters["pages_new"] = static_cast<double>(last.pages_new);
  state.counters["pages_reused"] = static_cast<double>(last.pages_reused);
  state.counters["artifacts_reused"] =
      static_cast<double>(last.artifacts_reused);
  state.counters["changed_page_pct"] =
      last.pages_total == 0
          ? 0.0
          : 100.0 * static_cast<double>(last.pages_new) /
                static_cast<double>(last.pages_total);
  state.counters["detect_ms"] = last.detect_seconds * 1e3;
  state.counters["catalog_ms"] = last.catalog_seconds * 1e3;
  state.counters["content_ms"] = last.content_seconds * 1e3;
  state.counters["num_threads"] = static_cast<double>(
      num_threads == 0 ? ThreadPool::HardwareThreads() : num_threads);
}

void BM_WarmReingest(benchmark::State& state) { WarmReingest(state, 0); }
BENCHMARK(BM_WarmReingest)->Unit(benchmark::kMillisecond);

/// The same at a fixed pool size (1 = inline detection and decode), so the
/// scaling of the detection pass is visible on any host.
void BM_WarmReingestThreads(benchmark::State& state) {
  WarmReingest(state, static_cast<size_t>(state.range(0)));
}
BENCHMARK(BM_WarmReingestThreads)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
