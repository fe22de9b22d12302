// Reenactor: replays audit-log SQL history on a fresh reference engine.
//
// The audit log is the DBMS's own claim about what happened; the reference
// engine (engine/) is deterministic, so replaying the logged statements —
// full history, any prefix, or a what-if subset — materializes the state
// the log *claims* the instance reached at that position. Everything else
// in src/reenact/ is built on comparing that claimed state against the
// carved storage reality: provenance joins per-statement effects against
// carved artifacts, recovery diffs claimed vs carved to emit a surgical
// undo script, and the log validator replays to predict storage row ids.
// All of them read one capturing replay per log, memoized on the Reenactor
// as a ClaimedHistory (docs/reenactment.md).
//
// Follows Niu et al.'s reenactment idea (replay the logged history to
// reconstruct transaction effects) specialized to the single-statement
// transactions MiniDB logs.
#ifndef DBFA_REENACT_REENACTOR_H_
#define DBFA_REENACT_REENACTOR_H_

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "core/config_io.h"
#include "engine/audit_log.h"
#include "engine/database.h"

namespace dbfa {

struct ReplayOptions {
  /// Replay only entries with seq <= upto_seq (0 = the whole log). This is
  /// the "state at any log position" knob: prefixes reconstruct the claimed
  /// state as of a given logged transaction.
  uint64_t upto_seq = 0;
  /// Entries to suppress — what-if replay ("history without these
  /// transactions"), the primitive surgical recovery verification uses.
  std::set<uint64_t> skip_seqs;
  /// Stop at the first statement the reference engine rejects instead of
  /// recording the error and continuing (forged logs need not replay
  /// cleanly; honest ones do).
  bool stop_on_error = false;
  /// Observer invoked with the replayed engine *before* each entry
  /// executes (the clock already holds the entry's claimed timestamp).
  /// An observer sees pre-images here; an error aborts the replay.
  std::function<Status(Database*, const AuditEntry&)> before_statement;
};

/// One replayed log entry and what the reference engine did with it.
struct StatementOutcome {
  uint64_t seq = 0;
  int64_t timestamp = 0;
  std::string sql;
  bool applied = false;
  std::string error;  // empty when applied
  /// Row-id counter value before the statement ran: the id the statement's
  /// first inserted row version received (INSERTs and the new versions
  /// UPDATEs write both consume ids). Storage-order evidence for the
  /// backdating detector.
  uint64_t row_id_before = 0;

  std::string ToString() const;
};

enum class EffectKind { kInsert, kDelete, kUpdateBefore, kUpdateAfter };

const char* EffectKindName(EffectKind kind);

/// One row-level write a statement performed during replay.
struct RowEffect {
  EffectKind kind = EffectKind::kInsert;
  std::string table;  // catalog key (lower-cased)
  Record values;

  std::string ToString() const;
};

/// How carved storage evidence relates to a transaction's replayed effects.
enum class EvidenceVerdict {
  kConfirmed,     // every checkable effect found where storage should hold it
  kContradicted,  // storage actively disagrees (e.g. a "deleted" row is live)
  kMissing,       // a final effect is absent from the carved active records
  kUnverifiable,  // no row effects, or the dialect purged the evidence
};

const char* EvidenceVerdictName(EvidenceVerdict verdict);

/// One logged transaction's reconstructed footprint.
struct TransactionFootprint {
  uint64_t seq = 0;
  int64_t timestamp = 0;
  std::string sql;
  bool applied = false;             // replayed cleanly on the reference engine
  std::vector<RowEffect> writes;
  std::vector<std::string> reads;   // tables the statement read (scans)
  EvidenceVerdict verdict = EvidenceVerdict::kUnverifiable;
  std::string evidence;             // justification for the verdict

  std::string ToString() const;
};

/// One full replay's derived, immutable data: never a Database, so
/// mutating a replayed engine cannot change it.
struct ClaimedHistory {
  std::vector<StatementOutcome> outcomes;  // one per log entry
  /// Per-entry footprints (verdicts unset), up to the first capture error.
  std::vector<TransactionFootprint> footprints;
  /// That capture error, if any (e.g. a WHERE that fails to evaluate);
  /// the replay itself continues past it.
  Status capture_status;
  std::map<std::string, std::vector<Record>> final_rows;  // ActiveRowsByTable
  std::map<std::string, TableSchema> schemas;  // final catalog, by key
  std::string fingerprint;                     // CanonicalFingerprint
};

/// A materialized claimed state: the replayed engine plus the per-entry
/// outcome trail.
struct ReenactedState {
  std::unique_ptr<Database> db;
  std::vector<StatementOutcome> outcomes;
  size_t applied = 0;
  size_t failed = 0;

  /// CanonicalFingerprint of the replayed engine.
  Result<std::string> Fingerprint() const;
};

/// Active rows per table (catalog key → rows sorted by CompareRecords):
/// the logical state used for claimed-vs-carved diffs.
Result<std::map<std::string, std::vector<Record>>> ActiveRowsByTable(
    Database* db);

/// Canonical, byte-comparable dump of the engine's logical state: tables in
/// catalog order, rows sorted, rendered through RecordToString. Two engines
/// holding the same logical rows produce byte-identical fingerprints even
/// when their physical pages (row ids, LSNs, slot layout) differ.
Result<std::string> CanonicalFingerprint(Database* db);

/// Reference-engine options reproducing the carved instance's storage
/// dialect (the carver config is the ground truth the investigator has).
DatabaseOptions ReferenceOptionsFor(const CarverConfig& config);

class Reenactor {
 public:
  /// `base` configures every reference instance Replay() opens; the audit
  /// log of the replayed engine itself is disabled (it would only echo the
  /// input).
  explicit Reenactor(DatabaseOptions base) : base_(std::move(base)) {}
  explicit Reenactor(const CarverConfig& config)
      : base_(ReferenceOptionsFor(config)) {}

  /// Replays `log` on a fresh reference instance. The virtual clock is set
  /// to each entry's claimed timestamp before execution, so storage LSNs in
  /// the replayed engine reflect the *claimed* times. With default options
  /// the replay also captures the log's ClaimedHistory into the memo; any
  /// other options neither read nor write the memo.
  Result<ReenactedState> Replay(const AuditLog& log,
                                const ReplayOptions& options = {}) const;

  /// The ClaimedHistory of `log`: the memo when it was captured from
  /// exactly these entries (seq, timestamp, sql), else a capturing replay.
  Result<std::shared_ptr<const ClaimedHistory>> History(
      const AuditLog& log) const;

  /// Replays run so far: the one-replay-per-log witness, until a trace
  /// span records it (ROADMAP item 1).
  uint64_t replays() const { return replays_.load(); }

  const DatabaseOptions& base_options() const { return base_; }

 private:
  /// The replay loop; captures into `history` (and memoizes it) when set.
  Result<ReenactedState> Run(const AuditLog& log, const ReplayOptions& options,
                             std::shared_ptr<ClaimedHistory> history) const;

  DatabaseOptions base_;
  mutable std::atomic<uint64_t> replays_{0};
  mutable Mutex memo_mu_{"reenactor/memo", lock_rank::kReenactMemo};
  mutable std::shared_ptr<const ClaimedHistory> memo_
      DBFA_GUARDED_BY(memo_mu_);
};

}  // namespace dbfa

#endif  // DBFA_REENACT_REENACTOR_H_
