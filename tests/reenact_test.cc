// Reenactment engine tests: claimed-state replay, per-transaction
// provenance, surgical recovery (the Ancora bar: undo tampering while
// preserving legitimate later writes), and backdated-log validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/strings.h"
#include "core/carver.h"
#include "oracles/reenact_reference.h"
#include "reenact/log_validator.h"
#include "reenact/provenance.h"
#include "reenact/recovery.h"
#include "reenact/reenactor.h"
#include "storage/dialects.h"
#include "workload/fleet.h"
#include "workload/synthetic.h"

namespace dbfa {
namespace {

CarverConfig ConfigFor(const Database& db) {
  CarverConfig config;
  config.params = GetDialect(db.params().dialect).value();
  return config;
}

Result<CarveResult> CarveDisk(Database* db) {
  DBFA_ASSIGN_OR_RETURN(Bytes image, db->SnapshotDisk());
  Carver carver(ConfigFor(*db));
  return carver.Carve(image);
}

std::unique_ptr<Database> OpenDb(const std::string& dialect = "") {
  DatabaseOptions options;
  if (!dialect.empty()) options.dialect = dialect;
  return Database::Open(options).value();
}

RowPointer FindRow(Database* db, int64_t id) {
  RowPointer out{};
  EXPECT_TRUE(db->heap("Accounts")
                  ->Scan([&](RowPointer ptr, const Record& rec) {
                    if (rec[0] == Value::Int(id)) out = ptr;
                    return Status::Ok();
                  })
                  .ok());
  return out;
}

/// A small fully-logged history with known seqs:
///   seq 1  CREATE TABLE
///   seq 2..6  INSERT Id 1..5
///   seq 7  UPDATE Id 2
///   seq 8  DELETE Id 3
std::unique_ptr<Database> ScriptedDb() {
  auto db = OpenDb();
  EXPECT_TRUE(db
                  ->ExecuteSql("CREATE TABLE Accounts (Id INT NOT NULL, "
                               "Owner VARCHAR(24), City VARCHAR(16), "
                               "Balance DOUBLE, PRIMARY KEY (Id))")
                  .ok());
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(db
                    ->ExecuteSql(StrFormat(
                        "INSERT INTO Accounts VALUES (%d, 'User%d', "
                        "'City', %d.5)",
                        i, i, i * 100))
                    .ok());
  }
  EXPECT_TRUE(
      db->ExecuteSql("UPDATE Accounts SET Balance = 777.25 WHERE Id = 2")
          .ok());
  EXPECT_TRUE(db->ExecuteSql("DELETE FROM Accounts WHERE Id = 3").ok());
  return db;
}

/// Entries of `log` stably sorted by timestamp and renumbered from 1: the
/// log a backdating attacker leaves behind.
AuditLog ResortedWithFreshSeqs(const AuditLog& log) {
  std::vector<AuditEntry> entries = log.entries();
  std::stable_sort(entries.begin(), entries.end(),
                   [](const AuditEntry& a, const AuditEntry& b) {
                     return a.timestamp < b.timestamp;
                   });
  std::string text;
  for (size_t i = 0; i < entries.size(); ++i) {
    text += StrFormat("%zu|%lld|", i + 1,
                      static_cast<long long>(entries[i].timestamp));
    text += entries[i].sql + "\n";
  }
  return AuditLog::FromText(text).value();
}

TEST(ReenactorTest, FullReplayReproducesLiveState) {
  auto db = OpenDb();
  SyntheticWorkload workload(db.get(), "Accounts", 21);
  ASSERT_TRUE(workload.Setup(40).ok());
  ASSERT_TRUE(workload.Run(60, OpMix{}, /*logged=*/true).ok());

  Reenactor reenactor(ConfigFor(*db));
  auto state = reenactor.Replay(db->audit_log());
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  EXPECT_EQ(state->failed, 0u);
  EXPECT_EQ(state->applied, db->audit_log().entries().size());

  // The claimed state of an honest instance IS the live state.
  auto claimed = state->Fingerprint();
  auto live = CanonicalFingerprint(db.get());
  ASSERT_TRUE(claimed.ok());
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(*claimed, *live);
}

TEST(ReenactorTest, PrefixReplayMaterializesStateAtSeq) {
  auto db = ScriptedDb();
  Reenactor reenactor(ConfigFor(*db));

  ReplayOptions options;
  options.upto_seq = 6;  // before the UPDATE and DELETE
  auto state = reenactor.Replay(db->audit_log(), options);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->outcomes.size(), 6u);

  auto rows = ActiveRowsByTable(state->db.get());
  ASSERT_TRUE(rows.ok());
  const std::vector<Record>& accounts = (*rows)["accounts"];
  ASSERT_EQ(accounts.size(), 5u);  // Id 3 not yet deleted
  // Id 2 still holds its original balance at this log position.
  bool found = false;
  for (const Record& r : accounts) {
    if (r[0] == Value::Int(2)) {
      EXPECT_EQ(r[3], Value::Real(200.5));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ReenactorTest, SkipReplayRemovesOneTransaction) {
  auto db = ScriptedDb();
  Reenactor reenactor(ConfigFor(*db));

  ReplayOptions options;
  options.skip_seqs.insert(4);  // the INSERT of Id 3
  auto state = reenactor.Replay(db->audit_log(), options);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->outcomes.size(), 7u);  // 8 entries, one suppressed
  EXPECT_EQ(state->failed, 0u);  // the later DELETE Id=3 hits zero rows

  auto rows = ActiveRowsByTable(state->db.get());
  ASSERT_TRUE(rows.ok());
  const std::vector<Record>& accounts = (*rows)["accounts"];
  EXPECT_EQ(accounts.size(), 4u);
  for (const Record& r : accounts) {
    EXPECT_NE(r[0], Value::Int(3));
  }
}

TEST(ReenactorTest, ReplayRecordsEngineRejections) {
  auto log = AuditLog::FromText(
      "1|1000|CREATE TABLE T (Id INT NOT NULL, PRIMARY KEY (Id))\n"
      "2|1001|INSERT INTO Missing VALUES (1)\n"
      "3|1002|INSERT INTO T VALUES (7)\n");
  ASSERT_TRUE(log.ok());
  CarverConfig config;
  config.params = GetDialect("postgres_like").value();
  Reenactor reenactor(config);

  auto state = reenactor.Replay(*log);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->applied, 2u);
  EXPECT_EQ(state->failed, 1u);
  EXPECT_FALSE(state->outcomes[1].applied);
  EXPECT_FALSE(state->outcomes[1].error.empty());

  // stop_on_error truncates at the first rejection instead.
  ReplayOptions stop;
  stop.stop_on_error = true;
  auto strict = reenactor.Replay(*log, stop);
  ASSERT_TRUE(strict.ok());
  EXPECT_EQ(strict->outcomes.size(), 2u);
}

// ---- surgical recovery ------------------------------------------------------

TEST(RecoveryTest, HonestInstanceNeedsNoRecovery) {
  auto db = OpenDb();
  SyntheticWorkload workload(db.get(), "Accounts", 31);
  ASSERT_TRUE(workload.Setup(50).ok());
  ASSERT_TRUE(workload.Run(40, OpMix{}, /*logged=*/true).ok());

  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  RecoveryPlanner planner(reenactor);
  auto script = planner.Plan(db->audit_log(), *carve);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  EXPECT_TRUE(script->Clean()) << script->ToString();
}

TEST(RecoveryTest, PinpointsTamperingAndPreservesLaterWrites) {
  // The acceptance scenario end to end: logged history, unlogged
  // byte-level tampering of all three kinds, MORE legitimate logged
  // writes after the tampering, then recovery.
  auto db = OpenDb();
  SyntheticWorkload workload(db.get(), "Accounts", 41);
  ASSERT_TRUE(workload.Setup(30).ok());

  // Unlogged tampering: alter Id 10's balance, smuggle a ghost row in,
  // erase Id 20 at byte level.
  ASSERT_TRUE(TamperOverwriteField(db.get(), "Accounts",
                                   FindRow(db.get(), 10), "Balance",
                                   Value::Real(9999.25))
                  .ok());
  ASSERT_TRUE(TamperInsertRecord(db.get(), "Accounts",
                                 {Value::Int(990001), Value::Str("Ghost"),
                                  Value::Str("Nowhere"), Value::Real(0.5)})
                  .ok());
  ASSERT_TRUE(
      TamperEraseRecord(db.get(), "Accounts", FindRow(db.get(), 20)).ok());

  // Legitimate post-tampering writes that recovery must preserve.
  ASSERT_TRUE(db
                  ->ExecuteSql("INSERT INTO Accounts VALUES (501, 'Late', "
                               "'Legit', 42.5)")
                  .ok());
  ASSERT_TRUE(
      db->ExecuteSql("UPDATE Accounts SET City = 'Moved' WHERE Id = 5")
          .ok());

  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  RecoveryPlanner planner(reenactor);
  auto script = planner.Plan(db->audit_log(), *carve);
  ASSERT_TRUE(script.ok()) << script.status().ToString();

  // Exactly the three tampered rows — no false positives.
  ASSERT_EQ(script->corruptions.size(), 3u) << script->ToString();
  size_t altered = 0;
  size_t extraneous = 0;
  size_t missing = 0;
  for (const RowCorruption& c : script->corruptions) {
    EXPECT_EQ(c.table, "accounts");
    switch (c.kind) {
      case RowCorruption::Kind::kAltered:
        ++altered;
        EXPECT_EQ(c.actual[0], Value::Int(10));
        EXPECT_EQ(c.actual[3], Value::Real(9999.25));
        break;
      case RowCorruption::Kind::kExtraneous:
        ++extraneous;
        EXPECT_EQ(c.actual[0], Value::Int(990001));
        break;
      case RowCorruption::Kind::kMissing:
        ++missing;
        EXPECT_EQ(c.claimed[0], Value::Int(20));
        break;
    }
    // The legitimate late writes must not be flagged.
    for (const Record& r : {c.claimed, c.actual}) {
      if (!r.empty()) {
        EXPECT_NE(r[0], Value::Int(501));
      }
    }
  }
  EXPECT_EQ(altered, 1u);
  EXPECT_EQ(extraneous, 1u);
  EXPECT_EQ(missing, 1u);

  // The script verifies: carved reality + script == claimed replay,
  // byte for byte — which proves the late writes survived recovery.
  auto verification = planner.Verify(*script, db->audit_log(), *carve);
  ASSERT_TRUE(verification.ok()) << verification.status().ToString();
  EXPECT_TRUE(verification->byte_identical)
      << "claimed:\n"
      << verification->claimed_fingerprint << "recovered:\n"
      << verification->recovered_fingerprint;
  EXPECT_NE(verification->claimed_fingerprint.find("501, Late"),
            std::string::npos);
  EXPECT_NE(verification->claimed_fingerprint.find("Moved"),
            std::string::npos);
}

TEST(RecoveryTest, WholeNumberDoubleRestoresExactly) {
  // The recovery script restores tampered DOUBLE cells through SQL
  // literals: a whole-number claim (5673.0) must come back as a DOUBLE, not
  // the INT 5673, and a claim with more than six significant digits
  // (12345.67) must come back exactly, or Verify is not byte-identical.
  auto db = OpenDb();
  ASSERT_TRUE(db->ExecuteSql("CREATE TABLE Accounts (Id INT NOT NULL, "
                             "Owner VARCHAR(24), City VARCHAR(16), "
                             "Balance DOUBLE, PRIMARY KEY (Id))")
                  .ok());
  ASSERT_TRUE(db->ExecuteSql("INSERT INTO Accounts VALUES "
                             "(1, 'Ann', 'Austin', 5673.0), "
                             "(2, 'Bob', 'Boston', 12345.67), "
                             "(3, 'Cy', 'Chicago', 10.5)")
                  .ok());
  ASSERT_TRUE(TamperOverwriteField(db.get(), "Accounts", FindRow(db.get(), 1),
                                   "Balance", Value::Real(0.25))
                  .ok());
  ASSERT_TRUE(TamperOverwriteField(db.get(), "Accounts", FindRow(db.get(), 2),
                                   "Balance", Value::Real(1.5))
                  .ok());

  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  RecoveryPlanner planner(reenactor);
  auto script = planner.Plan(db->audit_log(), *carve);
  ASSERT_TRUE(script.ok()) << script.status().ToString();
  ASSERT_EQ(script->corruptions.size(), 2u) << script->ToString();
  auto verification = planner.Verify(*script, db->audit_log(), *carve);
  ASSERT_TRUE(verification.ok()) << verification.status().ToString();
  EXPECT_TRUE(verification->byte_identical)
      << script->ToString() << "claimed:\n"
      << verification->claimed_fingerprint << "recovered:\n"
      << verification->recovered_fingerprint;
}

TEST(RecoveryTest, FleetAttackSurfacesInRecoveryDiff) {
  // FleetSimulator's Section III-A attack (unlogged INSERT) must show up
  // as extraneous rows; a clean fleet must recover to Clean() scripts.
  for (double rate : {0.0, 1.0}) {
    FleetOptions options;
    options.instances = 2;
    options.seed_rows = 12;
    options.ops_per_tick = 4;
    options.attack_rate = rate;
    options.seed = 7;
    auto fleet = FleetSimulator::Make(options);
    ASSERT_TRUE(fleet.ok());
    Reenactor reenactor((*fleet)->Config());
    RecoveryPlanner planner(reenactor);
    for (size_t i = 0; i < (*fleet)->size(); ++i) {
      Bytes capture;
      for (int tick = 0; tick < 3; ++tick) {
        auto image = (*fleet)->Tick(i);
        ASSERT_TRUE(image.ok());
        capture = *std::move(image);
      }
      Carver carver((*fleet)->Config());
      auto carve = carver.Carve(capture);
      ASSERT_TRUE(carve.ok());
      auto script = planner.Plan((*fleet)->Log(i), *carve);
      ASSERT_TRUE(script.ok()) << script.status().ToString();
      if ((*fleet)->Attacks(i) == 0) {
        EXPECT_TRUE(script->Clean()) << script->ToString();
      } else {
        EXPECT_FALSE(script->Clean());
      }
    }
  }
}

// ---- provenance -------------------------------------------------------------

TEST(ProvenanceTest, HonestHistoryIsConsistent) {
  auto db = OpenDb();
  SyntheticWorkload workload(db.get(), "Accounts", 51);
  ASSERT_TRUE(workload.Setup(30).ok());
  ASSERT_TRUE(workload.Run(40, OpMix{}, /*logged=*/true).ok());

  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  ProvenanceAnalyzer analyzer(reenactor);
  auto report = analyzer.Analyze(db->audit_log(), *carve);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Consistent()) << report->ToString();
  EXPECT_GT(report->confirmed, 0u);
  EXPECT_EQ(report->contradicted, 0u);
  EXPECT_EQ(report->missing, 0u);
  EXPECT_EQ(report->transactions.size(), db->audit_log().entries().size());
}

TEST(ProvenanceTest, CapturesUpdateBeforeAndAfterImages) {
  auto db = ScriptedDb();
  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  ProvenanceAnalyzer analyzer(reenactor);
  auto report = analyzer.Analyze(db->audit_log(), *carve);
  ASSERT_TRUE(report.ok());

  const TransactionFootprint& update = report->transactions[6];  // seq 7
  ASSERT_EQ(update.writes.size(), 2u) << update.ToString();
  EXPECT_EQ(update.writes[0].kind, EffectKind::kUpdateBefore);
  EXPECT_EQ(update.writes[0].values[3], Value::Real(200.5));
  EXPECT_EQ(update.writes[1].kind, EffectKind::kUpdateAfter);
  EXPECT_EQ(update.writes[1].values[3], Value::Real(777.25));

  const TransactionFootprint& del = report->transactions[7];  // seq 8
  ASSERT_EQ(del.writes.size(), 1u);
  EXPECT_EQ(del.writes[0].kind, EffectKind::kDelete);
  EXPECT_EQ(del.writes[0].values[0], Value::Int(3));
}

TEST(ProvenanceTest, FlagsTamperedStorage) {
  auto db = OpenDb();
  SyntheticWorkload workload(db.get(), "Accounts", 61);
  ASSERT_TRUE(workload.Setup(30).ok());
  // Erase a logged row at byte level: its INSERT's post-image is gone
  // from storage with no logged DELETE to explain it.
  ASSERT_TRUE(
      TamperEraseRecord(db.get(), "Accounts", FindRow(db.get(), 15)).ok());

  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  ProvenanceAnalyzer analyzer(reenactor);
  auto report = analyzer.Analyze(db->audit_log(), *carve);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->Consistent()) << report->ToString();
  bool flagged = false;
  for (const TransactionFootprint& t : report->transactions) {
    if (t.verdict == EvidenceVerdict::kMissing &&
        t.sql.find("(15,") != std::string::npos) {
      flagged = true;
    }
  }
  EXPECT_TRUE(flagged) << report->ToString();
}

// ---- backdated-log validation ----------------------------------------------

TEST(LogValidatorTest, HonestLogValidatesCleanly) {
  auto db = OpenDb("oracle_like");
  SyntheticWorkload workload(db.get(), "Accounts", 71);
  ASSERT_TRUE(workload.Setup(40).ok());
  ASSERT_TRUE(workload.Run(40, OpMix{}, /*logged=*/true).ok());

  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  LogValidator validator(reenactor);
  auto report = validator.Validate(db->audit_log(), *carve);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->Consistent()) << report->ToString();
  EXPECT_TRUE(report->state_matches_replay);
  EXPECT_EQ(report->corrupted_rows, 0u);
  EXPECT_GT(report->inserts_matched, 0u);
}

TEST(LogValidatorTest, ResortedBackdatedLogIsDetected) {
  // Section III-C's strong attacker: clock set back for the malicious
  // inserts, then the log file rewritten sorted by timestamp with fresh
  // seqs so no inversion remains. Storage row-id order still testifies.
  auto db = OpenDb("oracle_like");
  ASSERT_TRUE(db
                  ->ExecuteSql("CREATE TABLE Accounts (Id INT NOT NULL, "
                               "Owner VARCHAR(24), City VARCHAR(16), "
                               "Balance DOUBLE, PRIMARY KEY (Id))")
                  .ok());
  for (int i = 1; i <= 20; ++i) {
    ASSERT_TRUE(db
                    ->ExecuteSql(StrFormat(
                        "INSERT INTO Accounts VALUES (%d, 'User%d', "
                        "'City', 1.0)",
                        i, i))
                    .ok());
  }
  int64_t now = db->clock().Peek();
  db->clock().Set(now - 90'000);
  for (int i = 100; i < 103; ++i) {
    ASSERT_TRUE(db
                    ->ExecuteSql(StrFormat(
                        "INSERT INTO Accounts VALUES (%d, 'Evil%d', "
                        "'City', 1.0)",
                        i, i))
                    .ok());
  }
  db->clock().Set(now);

  AuditLog forged = ResortedWithFreshSeqs(db->audit_log());

  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  LogValidator validator(reenactor);
  auto report = validator.Validate(forged, *carve);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->Consistent()) << report->ToString();
  size_t evil_flagged = 0;
  for (const BackdateFinding& f : report->timeline.findings) {
    if (f.sql.find("Evil") != std::string::npos) ++evil_flagged;
  }
  for (const BackdateFinding& f : report->replay_findings) {
    if (f.sql.find("Evil") != std::string::npos) ++evil_flagged;
  }
  EXPECT_EQ(evil_flagged, 3u) << report->ToString();
}

// ---- one capturing replay per log ------------------------------------------

/// A recover-shaped case: a log, the carve of the instance it claims to
/// describe, and the carver config.
struct Instance {
  CarverConfig config;
  AuditLog log;
  CarveResult disk;
};

enum class Shape { kClean, kTamper, kBackdate };

/// Clean, tampered (three victims the log never names altered, erased and
/// joined by a ghost row, then more logged traffic) or backdated (three
/// INSERTs under a clock set back, log re-sorted) — pipebench recover's
/// shapes at a tenth of the size. `raw_log`, when set, receives the log
/// as written, before any re-sorting.
Instance MakeInstance(const std::string& dialect, Shape shape, uint64_t seed,
                      AuditLog* raw_log = nullptr) {
  auto db = OpenDb(dialect);
  SyntheticWorkload workload(db.get(), "Accounts", seed);
  EXPECT_TRUE(workload.Setup(30).ok());
  for (int v = 1; v <= 3; ++v) {
    EXPECT_TRUE(db->ExecuteSql(StrFormat("INSERT INTO Accounts VALUES "
                                         "(%d, 'Victim', 'Austin', %d.00)",
                                         500000 + v, 100 * v))
                    .ok());
  }
  EXPECT_TRUE(workload.Run(40, OpMix{}, /*logged=*/true).ok());
  if (shape == Shape::kTamper) {
    EXPECT_TRUE(TamperOverwriteField(db.get(), "Accounts",
                                     FindRow(db.get(), 500001), "Balance",
                                     Value::Real(9999.25))
                    .ok());
    EXPECT_TRUE(TamperInsertRecord(db.get(), "Accounts",
                                   {Value::Int(990001), Value::Str("Ghost"),
                                    Value::Str("Nowhere"), Value::Real(0.5)})
                    .ok());
    EXPECT_TRUE(TamperEraseRecord(db.get(), "Accounts",
                                  FindRow(db.get(), 500003))
                    .ok());
    EXPECT_TRUE(workload.Run(10, OpMix{}, /*logged=*/true).ok());
  } else if (shape == Shape::kBackdate) {
    const int64_t now = db->clock().Peek();
    const int64_t first = db->audit_log().entries().front().timestamp;
    db->clock().Set(first + (now - first) / 2);
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(db->ExecuteSql(StrFormat("INSERT INTO Accounts VALUES "
                                           "(%d, 'Evil%d', 'City', 1.0)",
                                           900100 + i, i))
                      .ok());
    }
    db->clock().Set(now);
  }
  Instance inst;
  inst.config = ConfigFor(*db);
  inst.log = AuditLog::FromText(db->audit_log().ToText()).value();
  if (raw_log != nullptr) *raw_log = inst.log;
  if (shape == Shape::kBackdate) inst.log = ResortedWithFreshSeqs(inst.log);
  inst.disk = CarveDisk(db.get()).value();
  return inst;
}

template <typename T>
std::string Render(const Result<T>& result) {
  if (!result.ok()) return "error: " + result.status().ToString();
  if constexpr (std::is_same_v<T, std::string>) {
    return *result;
  } else if constexpr (std::is_same_v<T, RecoveryVerification>) {
    return StrFormat("byte_identical %d\nclaimed:\n%s\nrecovered:\n%s",
                     result->byte_identical ? 1 : 0,
                     result->claimed_fingerprint.c_str(),
                     result->recovered_fingerprint.c_str());
  } else if constexpr (std::is_same_v<T, RecoveryScript>) {
    return result->ToString() + result->ToSql();
  } else {
    return result->ToString();
  }
}

/// Every report of a recover case, rendered: replay outcomes, provenance,
/// recovery script, verification and log validation.
struct Reports {
  std::string replay;
  std::string provenance;
  std::string script;
  std::string verification;
  std::string validation;
};

/// The recover case's calls, in pipebench order, on `reenactor`; without
/// `replay_first`, only the consumers of the claimed history.
Reports RunCase(const Reenactor& reenactor, const Instance& inst,
                bool replay_first = true) {
  Reports out;
  if (replay_first) {
    auto state = reenactor.Replay(inst.log);
    if (state.ok()) {
      for (const StatementOutcome& o : state->outcomes) {
        out.replay += o.ToString() + "\n";
      }
      out.replay += Render(state->Fingerprint());
    } else {
      out.replay = "error: " + state.status().ToString();
    }
  }
  out.provenance =
      Render(ProvenanceAnalyzer(reenactor).Analyze(inst.log, inst.disk));
  RecoveryPlanner planner(reenactor);
  auto script = planner.Plan(inst.log, inst.disk);
  out.script = Render(script);
  if (script.ok()) {
    out.verification =
        Render(planner.Verify(*script, inst.log, inst.disk));
  }
  out.validation =
      Render(LogValidator(reenactor).Validate(inst.log, inst.disk));
  return out;
}

/// The same calls through the replay-per-call oracle.
Reports RunOracle(const Instance& inst) {
  Reenactor reenactor(inst.config);
  Reports out;
  auto state = reenactor.Replay(inst.log);
  if (state.ok()) {
    for (const StatementOutcome& o : state->outcomes) {
      out.replay += o.ToString() + "\n";
    }
    out.replay += Render(state->Fingerprint());
  } else {
    out.replay = "error: " + state.status().ToString();
  }
  out.provenance =
      Render(oracle::AnalyzeReference(reenactor, inst.log, inst.disk));
  auto script = oracle::PlanReference(reenactor, inst.log, inst.disk);
  out.script = Render(script);
  if (script.ok()) {
    out.verification = Render(
        oracle::VerifyReference(reenactor, *script, inst.log, inst.disk));
  }
  out.validation =
      Render(oracle::ValidateReference(reenactor, inst.log, inst.disk));
  return out;
}

void ExpectSameReports(const Reports& got, const Reports& want,
                       const std::string& label) {
  EXPECT_EQ(got.replay, want.replay) << label;
  EXPECT_EQ(got.provenance, want.provenance) << label;
  EXPECT_EQ(got.script, want.script) << label;
  EXPECT_EQ(got.verification, want.verification) << label;
  EXPECT_EQ(got.validation, want.validation) << label;
}

/// Checks one case against the oracle, and that the case replayed once.
Reports ExpectMatchesOracle(const Instance& inst, const std::string& label) {
  Reenactor reenactor(inst.config);
  Reports got = RunCase(reenactor, inst);
  EXPECT_EQ(reenactor.replays(), 1u) << label;
  ExpectSameReports(got, RunOracle(inst), label);
  return got;
}

/// ScriptedDb's instance with extra log lines appended after its history.
Instance ScriptedWithExtraEntries(const std::string& extra) {
  auto db = ScriptedDb();
  Instance inst;
  inst.config = ConfigFor(*db);
  inst.log =
      AuditLog::FromText(db->audit_log().ToText() + extra).value();
  inst.disk = CarveDisk(db.get()).value();
  return inst;
}

TEST(ReenactOnceTest, ReportsMatchReplayPerCallOracle) {
  for (const char* dialect : {"oracle_like", "postgres_like"}) {
    for (Shape shape : {Shape::kClean, Shape::kTamper, Shape::kBackdate}) {
      for (uint64_t seed : {3u, 4u}) {
        std::string label = StrFormat("%s shape %d seed %llu", dialect,
                                      static_cast<int>(shape),
                                      static_cast<unsigned long long>(seed));
        Reports got = ExpectMatchesOracle(
            MakeInstance(dialect, shape, seed), label);
        // The shapes do what they claim: tampering needs recovery, and the
        // backdating shows where storage keeps row ids.
        bool clean_script =
            got.script.rfind("RecoveryScript: 0 corrupted rows", 0) == 0;
        EXPECT_EQ(clean_script, shape != Shape::kTamper) << label;
        bool backdated =
            got.validation.find("BACKDATING SUSPECTED") != std::string::npos;
        EXPECT_EQ(backdated, shape == Shape::kBackdate &&
                                 std::string(dialect) == "oracle_like")
            << label << got.validation;
      }
    }
  }
}

TEST(ReenactOnceTest, EngineRejectedStatementsMatchOracle) {
  // Unknown table, unknown SET column, duplicate key and unparsable text:
  // each is an outcome, not a failure, on both paths. The log also creates
  // a table storage never held, whose claimed rows only the claimed
  // schema can describe.
  Instance inst = ScriptedWithExtraEntries(
      "9|5000|INSERT INTO Missing VALUES (1)\n"
      "10|5001|UPDATE Accounts SET Nope = 1 WHERE Id = 1\n"
      "11|5002|INSERT INTO Accounts VALUES (1, 'Dup', 'City', 1.5)\n"
      "12|5003|SELEC garbage\n"
      "13|5004|DELETE FROM Accounts WHERE Id = 4\n"
      "14|5005|CREATE TABLE Extra (K INT NOT NULL, V VARCHAR(8), "
      "PRIMARY KEY (K))\n"
      "15|5006|INSERT INTO Extra VALUES (1, 'a'), (2, 'b')\n");
  Reenactor reenactor(inst.config);
  auto state = reenactor.Replay(inst.log);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->failed, 4u);
  ExpectMatchesOracle(inst, "rejected statements");
}

TEST(ReenactOnceTest, CaptureErrorFailsOnlyProvenance) {
  // The DELETE's WHERE names no column of the table, so evaluating it for
  // the pre-images fails. Replay and the state consumers still succeed;
  // provenance returns the capture error, as the hooked replay did.
  Instance inst = ScriptedWithExtraEntries(
      "9|5000|DELETE FROM Accounts WHERE Nope = 1\n"
      "10|5001|INSERT INTO Accounts VALUES (9, 'Late', 'City', 2.5)\n");
  Reenactor reenactor(inst.config);
  ASSERT_TRUE(reenactor.Replay(inst.log).ok());
  auto history = reenactor.History(inst.log);
  ASSERT_TRUE(history.ok());
  EXPECT_FALSE((*history)->capture_status.ok());
  EXPECT_EQ((*history)->outcomes.size(), 10u);
  EXPECT_FALSE(ProvenanceAnalyzer(reenactor).Analyze(inst.log, inst.disk).ok());
  EXPECT_TRUE(RecoveryPlanner(reenactor).Plan(inst.log, inst.disk).ok());
  ExpectMatchesOracle(inst, "capture error");
}

TEST(ReenactOnceTest, MemoIsKeyedByExactEntries) {
  // A is a log as written; its re-sort with fresh seqs (the backdating
  // shape) holds the same statements in another order.
  AuditLog raw;
  Instance resorted = MakeInstance("oracle_like", Shape::kBackdate, 5, &raw);
  Instance a = resorted;
  a.log = raw;
  ASSERT_EQ(a.log.entries().size(), resorted.log.entries().size());
  ASSERT_NE(a.log.ToText(), resorted.log.ToText());
  Instance b = MakeInstance("oracle_like", Shape::kTamper, 6);
  // A with one SQL text changed: same size, seqs and timestamps.
  Instance edited = a;
  std::string text = a.log.ToText();
  size_t at = text.find("'Evil1'");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 7, "'Evil9'");
  edited.log = AuditLog::FromText(text).value();
  ASSERT_EQ(edited.log.entries().size(), a.log.entries().size());

  // Only the consumers run, so each one after the first reads the memo
  // whatever log filled it.
  Reenactor shared(a.config);
  uint64_t replays = 0;
  for (const Instance* inst : {&a, &b, &resorted, &edited, &a}) {
    Reenactor cold(inst->config);
    ExpectSameReports(RunCase(shared, *inst, /*replay_first=*/false),
                      RunCase(cold, *inst, /*replay_first=*/false),
                      "shared vs cold");
    EXPECT_EQ(shared.replays(), ++replays);
  }
  // The same entries in another AuditLog object hit the memo.
  AuditLog copy = AuditLog::FromText(a.log.ToText()).value();
  ASSERT_TRUE(RecoveryPlanner(shared).Plan(copy, a.disk).ok());
  EXPECT_EQ(shared.replays(), replays);
}

TEST(ReenactOnceTest, MutatingReplayedDatabaseLeavesMemoIntact) {
  Instance inst = MakeInstance("oracle_like", Shape::kTamper, 8);
  Reenactor reenactor(inst.config);
  auto state = reenactor.Replay(inst.log);
  ASSERT_TRUE(state.ok());
  ASSERT_TRUE(state->db->ExecuteSql("DELETE FROM Accounts").ok());
  ASSERT_TRUE(
      state->db->ExecuteSql("INSERT INTO Accounts VALUES (1, 'X', 'Y', 1.0)")
          .ok());
  Reenactor cold(inst.config);
  RecoveryPlanner planner(reenactor);
  auto script = planner.Plan(inst.log, inst.disk);
  auto want = RecoveryPlanner(cold).Plan(inst.log, inst.disk);
  EXPECT_EQ(Render(script), Render(want));
  ASSERT_TRUE(script.ok());
  auto verification = planner.Verify(*script, inst.log, inst.disk);
  ASSERT_TRUE(verification.ok());
  EXPECT_TRUE(verification->byte_identical);
  EXPECT_EQ(reenactor.replays(), 1u);
}

TEST(ReenactOnceTest, NonDefaultReplayBypassesMemo) {
  Instance inst = MakeInstance("oracle_like", Shape::kClean, 9);
  Reenactor reenactor(inst.config);
  ReplayOptions prefix;
  prefix.upto_seq = 10;
  ASSERT_TRUE(reenactor.Replay(inst.log, prefix).ok());
  ReplayOptions hooked;
  hooked.before_statement = [](Database*, const AuditEntry&) {
    return Status::Ok();
  };
  ASSERT_TRUE(reenactor.Replay(inst.log, hooked).ok());
  // Neither wrote the memo: the first consumer replays in full.
  auto full = reenactor.History(inst.log);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(reenactor.replays(), 3u);
  EXPECT_EQ((*full)->outcomes.size(), inst.log.entries().size());
  // Nor does one read it: a prefix after the memo is full still replays a
  // prefix.
  auto again = reenactor.Replay(inst.log, prefix);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->outcomes.size(), 10u);
  EXPECT_EQ(reenactor.replays(), 4u);
  auto still = reenactor.History(inst.log);
  ASSERT_TRUE(still.ok());
  EXPECT_EQ(still->get(), full->get());
}

TEST(ReenactOnceTest, ThreadsShareOneReenactorOnDifferentLogs) {
  Instance a = MakeInstance("oracle_like", Shape::kTamper, 10);
  Instance b = MakeInstance("oracle_like", Shape::kBackdate, 11);
  Reports want_a = RunOracle(a);
  Reports want_b = RunOracle(b);
  Reenactor shared(a.config);
  auto worker = [&shared](const Instance* inst, const Reports* want) {
    for (int round = 0; round < 3; ++round) {
      ExpectSameReports(RunCase(shared, *inst), *want, "threaded");
    }
  };
  std::thread ta(worker, &a, &want_a);
  std::thread tb(worker, &b, &want_b);
  ta.join();
  tb.join();
}

}  // namespace
}  // namespace dbfa
