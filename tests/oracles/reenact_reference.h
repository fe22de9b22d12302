// The replay-per-call reenact consumers, kept as the differential oracle
// for the shared capturing replay (src/reenact/): each function replays the
// log itself — provenance through a before_statement hook, the rest through
// a plain Replay — exactly as ProvenanceAnalyzer, RecoveryPlanner and
// LogValidator did before they read the Reenactor's ClaimedHistory memo.
// Compiled into test targets only.
#ifndef DBFA_TESTS_ORACLES_REENACT_REFERENCE_H_
#define DBFA_TESTS_ORACLES_REENACT_REFERENCE_H_

#include "core/artifacts.h"
#include "engine/audit_log.h"
#include "reenact/log_validator.h"
#include "reenact/provenance.h"
#include "reenact/recovery.h"
#include "reenact/reenactor.h"

namespace dbfa::oracle {

/// ProvenanceAnalyzer::Analyze: the footprints captured by a hooked replay
/// (a capture error aborts it and is the result), joined against `disk`.
Result<ProvenanceReport> AnalyzeReference(const Reenactor& reenactor,
                                          const AuditLog& log,
                                          const CarveResult& disk);

/// RecoveryPlanner::Plan over its own full replay of `log`.
Result<RecoveryScript> PlanReference(const Reenactor& reenactor,
                                     const AuditLog& log,
                                     const CarveResult& disk);

/// RecoveryPlanner::Verify, fingerprinting its own full replay of `log`.
Result<RecoveryVerification> VerifyReference(const Reenactor& reenactor,
                                             const RecoveryScript& script,
                                             const AuditLog& log,
                                             const CarveResult& disk);

/// LogValidator::Validate: one replay for detector 3, plus PlanReference's.
Result<LogValidationReport> ValidateReference(const Reenactor& reenactor,
                                              const AuditLog& log,
                                              const CarveResult& disk);

}  // namespace dbfa::oracle

#endif  // DBFA_TESTS_ORACLES_REENACT_REFERENCE_H_
