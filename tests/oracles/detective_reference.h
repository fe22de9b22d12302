// The original name-resolving, tuple-at-a-time DBDetective modification
// matcher, kept as the differential oracle for DbDetective's prebound
// matcher (src/detective/dbdetective.cc): every carved record re-walks the
// whole parsed log and evaluates predicates through a per-record name
// binding. Compiled into test targets only.
#ifndef DBFA_TESTS_ORACLES_DETECTIVE_REFERENCE_H_
#define DBFA_TESTS_ORACLES_DETECTIVE_REFERENCE_H_

#include <vector>

#include "core/artifacts.h"
#include "detective/dbdetective.h"
#include "engine/audit_log.h"

namespace dbfa::oracle {

/// Figure 4 matching of `disk` against `log`: the findings
/// DbDetective::FindUnattributedModifications must reproduce, in carve
/// record order, with the same checked-record counts.
Result<std::vector<UnattributedModification>>
FindUnattributedModificationsReference(const CarveResult& disk,
                                       const AuditLog& log,
                                       size_t* deleted_checked = nullptr,
                                       size_t* active_checked = nullptr);

}  // namespace dbfa::oracle

#endif  // DBFA_TESTS_ORACLES_DETECTIVE_REFERENCE_H_
