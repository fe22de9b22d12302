// Reenactment engine tests: claimed-state replay, per-transaction
// provenance, surgical recovery (the Ancora bar: undo tampering while
// preserving legitimate later writes), and backdated-log validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/strings.h"
#include "core/carver.h"
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

  std::vector<AuditEntry> entries = db->audit_log().entries();
  std::stable_sort(entries.begin(), entries.end(),
                   [](const AuditEntry& a, const AuditEntry& b) {
                     return a.timestamp < b.timestamp;
                   });
  std::string forged_text;
  for (size_t i = 0; i < entries.size(); ++i) {
    forged_text += StrFormat("%zu|%lld|", i + 1,
                             static_cast<long long>(entries[i].timestamp));
    forged_text += entries[i].sql;
    forged_text += "\n";
  }
  auto forged = AuditLog::FromText(forged_text);
  ASSERT_TRUE(forged.ok());

  auto carve = CarveDisk(db.get());
  ASSERT_TRUE(carve.ok());
  Reenactor reenactor(ConfigFor(*db));
  LogValidator validator(reenactor);
  auto report = validator.Validate(*forged, *carve);
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

}  // namespace
}  // namespace dbfa
