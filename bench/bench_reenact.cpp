// E17 — transaction reenactment (docs/reenactment.md): audit-log replay
// throughput on the reference engine, surgical-recovery planning +
// verification cost with accuracy counters, and one whole recover case. One
// replay iteration re-executes the whole logged history; one recovery
// iteration diffs the full replay against a carved image holding a fixed
// amount of unlogged tampering, emits the undo script, and verifies it by
// fingerprint byte-comparison. Every iteration builds its own Reenactor, so
// the Reenactor's replay memo never carries work across iterations. The
// corrupted_rows/script_statements counters double as the minimality
// record: exactly the tampered rows, no false rows.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "common/strings.h"
#include "core/carver.h"
#include "reenact/log_validator.h"
#include "reenact/provenance.h"
#include "reenact/recovery.h"
#include "reenact/reenactor.h"
#include "storage/dialects.h"
#include "workload/synthetic.h"

namespace {

using namespace dbfa;

CarverConfig ConfigFor(const Database& db) {
  CarverConfig config;
  config.params = GetDialect(db.params().dialect).value();
  return config;
}

RowPointer FindRow(Database* db, int64_t id) {
  RowPointer out{};
  (void)db->heap("Accounts")->Scan([&](RowPointer ptr, const Record& rec) {
    if (rec[0] == Value::Int(id)) out = ptr;
    return Status::Ok();
  });
  return out;
}

void BM_ReplayThroughput(benchmark::State& state) {
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 1907);
  if (!workload.Setup(100).ok() ||
      !workload.Run(static_cast<int>(state.range(0)), OpMix{}, true).ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  Reenactor reenactor(ConfigFor(*db));
  size_t entries = db->audit_log().entries().size();

  for (auto _ : state) {
    auto replayed = reenactor.Replay(db->audit_log());
    if (!replayed.ok() || replayed->failed != 0) {
      state.SkipWithError("replay failed");
      return;
    }
    benchmark::DoNotOptimize(replayed->applied);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(entries));
  state.counters["statements"] = static_cast<double>(entries);
}
BENCHMARK(BM_ReplayThroughput)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_SurgicalRecovery(benchmark::State& state) {
  // Fixed tampering dose: 3 altered + 2 extraneous + 1 erased = 6 rows.
  constexpr double kExpectedCorruptions = 6.0;
  auto db = Database::Open(DatabaseOptions{}).value();
  SyntheticWorkload workload(db.get(), "Accounts", 1909);
  if (!workload.Setup(static_cast<int>(state.range(0))).ok()) {
    state.SkipWithError("workload setup failed");
    return;
  }
  bool tampered = true;
  for (int64_t id = 10; id <= 12; ++id) {
    tampered = tampered && TamperOverwriteField(db.get(), "Accounts",
                                                FindRow(db.get(), id),
                                                "Balance", Value::Real(9.5))
                               .ok();
  }
  for (int64_t id = 0; id < 2; ++id) {
    tampered =
        tampered && TamperInsertRecord(
                        db.get(), "Accounts",
                        {Value::Int(990000 + id), Value::Str("Ghost"),
                         Value::Str("Nowhere"), Value::Real(0.5)})
                        .ok();
  }
  tampered = tampered &&
             TamperEraseRecord(db.get(), "Accounts", FindRow(db.get(), 20))
                 .ok();
  // Legitimate post-tampering traffic the recovery must preserve.
  tampered = tampered && workload.Run(20, OpMix{}, true).ok();
  if (!tampered) {
    state.SkipWithError("tampering setup failed");
    return;
  }
  auto image = db->SnapshotDisk();
  if (!image.ok()) {
    state.SkipWithError("snapshot failed");
    return;
  }
  Carver carver(ConfigFor(*db));
  auto carve = carver.Carve(*image);
  if (!carve.ok()) {
    state.SkipWithError("carve failed");
    return;
  }

  double corruptions = 0.0;
  double statements = 0.0;
  double verified = 1.0;
  for (auto _ : state) {
    Reenactor reenactor(ConfigFor(*db));
    RecoveryPlanner planner(reenactor);
    auto script = planner.Plan(db->audit_log(), *carve);
    if (!script.ok()) {
      state.SkipWithError("plan failed");
      return;
    }
    auto verification = planner.Verify(*script, db->audit_log(), *carve);
    if (!verification.ok()) {
      state.SkipWithError("verify failed");
      return;
    }
    corruptions = static_cast<double>(script->corruptions.size());
    statements = static_cast<double>(script->statements.size());
    if (!verification->byte_identical) verified = 0.0;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["corrupted_rows"] = corruptions;
  state.counters["script_statements"] = statements;
  state.counters["pinpoint_exact"] =
      corruptions == kExpectedCorruptions ? 1.0 : 0.0;
  state.counters["byte_identical"] = verified;
}
BENCHMARK(BM_SurgicalRecovery)
    ->Arg(100)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_RecoverCase(benchmark::State& state) {
  // pipebench recover's tampered shape on oracle_like (a dialect storing
  // row ids): 220 rows and 220 logged operations, two overwritten
  // balances, one smuggled and one erased record, then 20 more logged
  // operations. An iteration is one case: carve, then replay, provenance,
  // plan, verify and validate on one fresh Reenactor.
  constexpr double kExpectedCorruptions = 4.0;
  DatabaseOptions options;
  options.dialect = "oracle_like";
  auto db = Database::Open(options).value();
  SyntheticWorkload workload(db.get(), "Accounts", 1911);
  bool ok = workload.Setup(220).ok();
  for (int v = 1; v <= 3 && ok; ++v) {
    ok = db->ExecuteSql(StrFormat("INSERT INTO Accounts VALUES (%d, "
                                  "'Victim', 'Austin', %d.00)",
                                  5000000 + v, 100 * v))
             .ok();
  }
  ok = ok && workload.Run(220, OpMix{}, true).ok();
  for (int64_t id = 5000001; id <= 5000002 && ok; ++id) {
    ok = TamperOverwriteField(db.get(), "Accounts", FindRow(db.get(), id),
                              "Balance", Value::Real(12345.25))
             .ok();
  }
  ok = ok &&
       TamperInsertRecord(db.get(), "Accounts",
                          {Value::Int(9000001), Value::Str("Ghost"),
                           Value::Str("Nowhere"), Value::Real(0.5)})
           .ok() &&
       TamperEraseRecord(db.get(), "Accounts", FindRow(db.get(), 5000003))
           .ok() &&
       workload.Run(20, OpMix{}, true).ok();
  auto image = db->SnapshotDisk();
  if (!ok || !image.ok()) {
    state.SkipWithError("instance setup failed");
    return;
  }
  const CarverConfig config = ConfigFor(*db);
  const AuditLog& log = db->audit_log();
  double corruptions = 0.0;
  double verified = 1.0;
  double consistent = 1.0;
  double replays = 0.0;
  for (auto _ : state) {
    auto carve = Carver(config).Carve(*image);
    if (!carve.ok()) {
      state.SkipWithError("carve failed");
      return;
    }
    Reenactor reenactor(config);
    auto replayed = reenactor.Replay(log);
    auto provenance = ProvenanceAnalyzer(reenactor).Analyze(log, *carve);
    RecoveryPlanner planner(reenactor);
    auto script = planner.Plan(log, *carve);
    if (!replayed.ok() || !provenance.ok() || !script.ok()) {
      state.SkipWithError("replay, provenance or plan failed");
      return;
    }
    auto verification = planner.Verify(*script, log, *carve);
    auto validation = LogValidator(reenactor).Validate(log, *carve);
    if (!verification.ok() || !validation.ok()) {
      state.SkipWithError("verify or validate failed");
      return;
    }
    corruptions = static_cast<double>(script->corruptions.size());
    if (!verification->byte_identical) verified = 0.0;
    if (!validation->Consistent()) consistent = 0.0;
    replays = static_cast<double>(reenactor.replays());
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["statements"] = static_cast<double>(log.entries().size());
  state.counters["corrupted_rows"] = corruptions;
  state.counters["pinpoint_exact"] =
      corruptions == kExpectedCorruptions ? 1.0 : 0.0;
  state.counters["byte_identical"] = verified;
  state.counters["log_consistent"] = consistent;
  state.counters["replays"] = replays;
}
BENCHMARK(BM_RecoverCase)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
