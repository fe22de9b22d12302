// recover: reenactment cases over small instances.
//
// Why: reenact, the reference engine and SQL parsing do almost all the
// work; cost scales with log length, not image size, the opposite of
// investigate.
//
// Inputs: kInstances oracle_like instances (a dialect that stores row ids,
// which the backdating detectors need), each a few hundred rows with an
// image under 1 MB and an audit log of about 500 statements. A third are
// clean, a third carry unlogged byte-level tampering (two overwritten
// fields, one smuggled record, one erased record, followed by more logged
// traffic), and a third carry three backdated INSERTs whose log was
// re-sorted by timestamp so that only storage order betrays them. Tampered
// rows are rows no logged statement names, so the generator knows exactly
// which rows recovery must name. One overwritten row always holds a
// whole-number balance, so every tampered instance checks that a recovery
// writes such a DOUBLE back exactly. Cases cycle over the instances.
#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "core/carver.h"
#include "gen.h"
#include "reenact/log_validator.h"
#include "reenact/provenance.h"
#include "reenact/recovery.h"
#include "reenact/reenactor.h"
#include "workload/synthetic.h"

namespace pipebench {
namespace {

using namespace dbfa;

const char* const kDialect = "oracle_like";
constexpr size_t kInstances = 30;
constexpr int kRows = 220;
constexpr int kOps = 220;
constexpr int64_t kVictimBase = 5'000'000;
constexpr int64_t kForeignBase = 9'000'000;
constexpr double kCasesPerSecond = 4.0;  // ~4-5 a second on a 4-core VM

enum class Kind { kClean, kTamper, kBackdate };

const char* KindName(Kind k) {
  return k == Kind::kClean    ? "clean"
         : k == Kind::kTamper ? "tamper"
                              : "backdate";
}

struct Instance {
  Kind kind = Kind::kClean;
  Bytes disk;
  AuditLog log;
  /// "<kind>:<id>" of every row recovery must name.
  std::set<std::string> corrupted;
  size_t expected_active = 0;
};

std::string Key(RowCorruption::Kind kind, int64_t id) {
  const char* k = kind == RowCorruption::Kind::kAltered     ? "altered"
                  : kind == RowCorruption::Kind::kMissing   ? "missing"
                                                            : "extraneous";
  return StrFormat("%s:%lld", k, static_cast<long long>(id));
}

Result<Instance> MakeInstance(uint64_t seed, size_t index) {
  Instance inst;
  inst.kind = static_cast<Kind>(index % 3);
  DatabaseOptions options;
  options.dialect = kDialect;
  DBFA_ASSIGN_OR_RETURN(auto db, Database::Open(options));
  const uint64_t s = seed * 1000033 + index;
  SyntheticWorkload workload(db.get(), "Accounts", s);
  Rng rng(s ^ 0x2545F4914F6CDD1Dull);
  DBFA_RETURN_IF_ERROR(workload.Setup(kRows));
  // Victim 1 has a whole-number balance, as real balances often do; a
  // recovery must write it back as a DOUBLE.
  DBFA_RETURN_IF_ERROR(workload.RunStatement(
      StrFormat("INSERT INTO Accounts VALUES (%lld, 'Victim', 'Austin', "
                "%lld.00)",
                (long long)(kVictimBase + 1), (long long)rng.Uniform(1, 9999)),
      /*logged=*/true));
  DBFA_RETURN_IF_ERROR(
      BulkInsert(db.get(), "Accounts", kVictimBase + 2, 2, 0, &rng, "Victim"));
  DBFA_RETURN_IF_ERROR(workload.Run(kOps, OpMix{}, /*logged=*/true));

  std::string log_text;
  if (inst.kind == Kind::kTamper) {
    for (int64_t v = 1; v <= 2; ++v) {
      DBFA_ASSIGN_OR_RETURN(RowPointer ptr,
                            FindRow(db.get(), "Accounts", kVictimBase + v));
      DBFA_RETURN_IF_ERROR(TamperOverwriteField(
          db.get(), "Accounts", ptr, "Balance",
          Value::Real(static_cast<double>(rng.Uniform(10000, 20000)) + 0.25)));
      inst.corrupted.insert(
          Key(RowCorruption::Kind::kAltered, kVictimBase + v));
    }
    int64_t foreign = kForeignBase + rng.Uniform(1, 999);
    DBFA_RETURN_IF_ERROR(TamperInsertRecord(
        db.get(), "Accounts",
        {Value::Int(foreign), Value::Str("Ghost"), Value::Str("Nowhere"),
         Value::Real(0.5)}));
    inst.corrupted.insert(Key(RowCorruption::Kind::kExtraneous, foreign));
    DBFA_ASSIGN_OR_RETURN(RowPointer erased,
                          FindRow(db.get(), "Accounts", kVictimBase + 3));
    DBFA_RETURN_IF_ERROR(TamperEraseRecord(db.get(), "Accounts", erased));
    inst.corrupted.insert(Key(RowCorruption::Kind::kMissing, kVictimBase + 3));
    // Legitimate traffic after the tampering, which recovery must keep.
    DBFA_RETURN_IF_ERROR(workload.Run(20, OpMix{}, /*logged=*/true));
    log_text = db->audit_log().ToText();
  } else if (inst.kind == Kind::kBackdate) {
    // Clock back, insert, clock forward; then the log is rewritten sorted
    // by timestamp with fresh sequence numbers, so no inversion remains.
    // The claimed time lands in the second half of the history, after the
    // table and every row the later statements touch exist.
    const int64_t now = db->clock().Peek();
    const int64_t first = db->audit_log().entries().front().timestamp;
    db->clock().Set(first + (now - first) / 2 +
                    rng.Uniform(0, (now - first) / 4));
    for (int i = 0; i < 3; ++i) {
      DBFA_RETURN_IF_ERROR(workload.RunStatement(
          StrFormat("INSERT INTO Accounts VALUES (%lld, 'Evil%d', 'City', 1.0)",
                    (long long)(kForeignBase + 100 + i), i),
          /*logged=*/true));
    }
    db->clock().Set(now);
    std::vector<AuditEntry> entries = db->audit_log().entries();
    std::stable_sort(entries.begin(), entries.end(),
                     [](const AuditEntry& a, const AuditEntry& b) {
                       return a.timestamp < b.timestamp;
                     });
    for (size_t i = 0; i < entries.size(); ++i) {
      log_text += StrFormat("%zu|%lld|", i + 1,
                            static_cast<long long>(entries[i].timestamp));
      log_text += entries[i].sql;
      log_text += "\n";
    }
  } else {
    log_text = db->audit_log().ToText();
  }
  DBFA_ASSIGN_OR_RETURN(inst.log, AuditLog::FromText(log_text));
  DBFA_ASSIGN_OR_RETURN(inst.expected_active,
                        CountActive(db.get(), "Accounts"));
  DBFA_ASSIGN_OR_RETURN(inst.disk, db->SnapshotDisk());
  return inst;
}

}  // namespace

WorkloadResult RunRecover(const Env& env, Recorder* rec) {
  WorkloadResult out;
  Stopwatch setup;
  std::vector<Instance> instances;
  std::string setup_error;
  {
    ThreadPool pool(env.threads);
    setup_error = GenerateAll(&pool, kInstances, &instances, [&](size_t i) {
      return MakeInstance(env.seed, i);
    });
  }
  if (!setup_error.empty()) {
    out.failures.push_back("recover setup: " + setup_error);
    return out;
  }
  const CarverConfig config = ConfigFor(kDialect);
  const size_t n = CaseCount(env.seconds, kCasesPerSecond, kInstances);
  size_t bytes = 0;
  size_t entries = 0;
  for (const Instance& inst : instances) {
    bytes += inst.disk.size();
    entries += inst.log.entries().size();
  }
  out.inputs["instances"] = StrFormat("%zu", kInstances);
  out.inputs["dialect"] = kDialect;
  out.inputs["mean_image_bytes"] = StrFormat("%zu", bytes / kInstances);
  out.inputs["mean_log_entries"] = StrFormat("%zu", entries / kInstances);
  out.inputs["cases"] = StrFormat("%zu", n);

  Ratio accept;
  for (size_t c = 0; c <= n; ++c) {
    const bool warmup = c == 0;
    const Instance& inst = instances[c % kInstances];
    rec->SetCase(warmup ? kSetupCase : c);
    CaseSample sample;
    sample.image_bytes = static_cast<double>(inst.disk.size());
    sample.stmts = static_cast<double>(inst.log.entries().size());
    Result<CarveResult> carve = Status::Internal("not run");
    Result<ReenactedState> replay = Status::Internal("not run");
    Result<ProvenanceReport> provenance = Status::Internal("not run");
    Result<RecoveryScript> script = Status::Internal("not run");
    Result<RecoveryVerification> verify = Status::Internal("not run");
    Result<LogValidationReport> validation = Status::Internal("not run");
    CorePin pin(c, env.threads);
    Stopwatch watch;
    {
      ScopedSpan case_span(rec, "case");
      {
        ScopedSpan span(rec, "core.carve_ms");
        carve = Carver(config).Carve(inst.disk);
      }
      if (carve.ok()) {
        Reenactor reenactor(config);
        {
          ScopedSpan span(rec, "reenact.replay_ms");
          replay = reenactor.Replay(inst.log);
        }
        {
          ScopedSpan span(rec, "reenact.provenance_ms");
          provenance = ProvenanceAnalyzer(reenactor).Analyze(inst.log, *carve);
        }
        RecoveryPlanner planner(reenactor);
        {
          ScopedSpan span(rec, "reenact.plan_ms");
          script = planner.Plan(inst.log, *carve);
        }
        if (script.ok()) {
          ScopedSpan span(rec, "reenact.verify_ms");
          verify = planner.Verify(*script, inst.log, *carve);
        }
        {
          ScopedSpan span(rec, "reenact.validate_ms");
          validation = LogValidator(reenactor).Validate(inst.log, *carve);
        }
      }
    }
    sample.ms = watch.ms();

    // ---- untimed: errors, ground truth and correctness checks ----
    std::string error;
    for (const Status& st :
         {carve.status(), replay.status(), provenance.status(),
          script.status(), verify.status(), validation.status()}) {
      if (error.empty() && !st.ok()) error = st.ToString();
    }
    std::set<std::string> named;
    if (error.empty()) {
      for (const RowCorruption& rc : script->corruptions) {
        named.insert(Key(rc.kind, IdOf(rc.kind == RowCorruption::Kind::kMissing
                                           ? rc.claimed
                                           : rc.actual)));
      }
      size_t active =
          carve->RecordsForTable("Accounts", RowStatus::kActive).size();
      if (active != inst.expected_active) {
        error = StrFormat("carved %zu active rows, generator has %zu", active,
                          inst.expected_active);
      } else if (named != inst.corrupted) {
        error = StrFormat("recovery names %zu corrupted rows, %zu injected",
                          named.size(), inst.corrupted.size());
      }
    }
    if (!error.empty()) {
      sample.ok = false;
      out.failures.push_back(StrFormat("recover case %zu (%s): %s", c,
                                       KindName(inst.kind), error.c_str()));
    }
    if (warmup) {
      out.setup_s = setup.ms() / 1000.0;
      if (env.setup_only) return out;
      continue;
    }
    out.cases.push_back(sample);
    if (!error.empty()) continue;

    // Items: corrupted rows, plus one "backdated log" item per instance.
    std::set<std::string> injected = inst.corrupted;
    if (inst.kind == Kind::kBackdate) injected.insert("backdated-log");
    std::set<std::string> flagged = named;
    if (!validation->Consistent()) flagged.insert("backdated-log");
    size_t hits = 0;
    for (const std::string& item : injected) hits += flagged.count(item);
    out.recall.num += static_cast<double>(hits);
    out.recall.den += static_cast<double>(injected.size());
    out.precision.num += static_cast<double>(hits);
    out.precision.den += static_cast<double>(flagged.size());
    if (inst.kind != Kind::kClean) {
      out.exact.den += 1;
      out.exact.num += flagged == injected && verify->byte_identical ? 1 : 0;
    }
    out.counts["core.records_carved"] +=
        static_cast<double>(carve->records.size());
    out.counts["reenact.statements_failed"] +=
        static_cast<double>(replay->failed);
    accept.num += static_cast<double>(carve->stats.pages_accepted);
    accept.den += static_cast<double>(carve->stats.pages_probed);
  }
  out.ratios["core.page_accept_ratio"] = accept;
  return out;
}

}  // namespace pipebench
