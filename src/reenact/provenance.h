// Per-transaction provenance: read/write footprints joined against carved
// storage evidence.
//
// Replaying the log entry-by-entry lets us capture each statement's exact
// effect set *as of the claimed state it executed in*: INSERT post-images,
// DELETE pre-images, UPDATE before/after pairs, and the tables each
// statement read. Joining those effects against the carved before/after
// artifacts (active and delete-marked records) classifies every logged
// transaction: its effects are confirmed by storage, contradicted by it,
// missing from it, or simply unverifiable (the dialect purged the
// evidence). A log whose transactions all confirm is consistent with the
// disk; contradictions and missing effects are where tampering or log
// forgery shows.
#ifndef DBFA_REENACT_PROVENANCE_H_
#define DBFA_REENACT_PROVENANCE_H_

#include <string>
#include <vector>

#include "core/artifacts.h"
#include "reenact/reenactor.h"

namespace dbfa {

struct ProvenanceReport {
  std::vector<TransactionFootprint> transactions;
  size_t confirmed = 0;
  size_t contradicted = 0;
  size_t missing = 0;
  size_t unverifiable = 0;

  /// No transaction's effects are contradicted by or missing from storage.
  bool Consistent() const { return contradicted == 0 && missing == 0; }
  std::string ToString() const;
};

class ProvenanceAnalyzer {
 public:
  explicit ProvenanceAnalyzer(const Reenactor& reenactor)
      : reenactor_(&reenactor) {}

  /// Takes each entry's footprint from the log's ClaimedHistory, then
  /// joins the effects against `disk` (the carved reality of the same
  /// instance). A footprint-capture error is the result.
  Result<ProvenanceReport> Analyze(const AuditLog& log,
                                   const CarveResult& disk) const;

 private:
  const Reenactor* reenactor_;
};

}  // namespace dbfa

#endif  // DBFA_REENACT_PROVENANCE_H_
