// Shared differential-test helpers: assert two CarveResults are
// element-wise identical — every artifact collection, in order — and, for
// two carves, that their CarveStats counters agree. Used to prove pooled
// carves equal the serial Carver for any thread count / chunk size, and
// that snapshot assembly reproduces a serial carve. Wall times are never
// compared: they differ run to run.
#ifndef DBFA_TESTS_CARVE_EQUIVALENCE_H_
#define DBFA_TESTS_CARVE_EQUIVALENCE_H_

#include <gtest/gtest.h>

#include "core/artifacts.h"

namespace dbfa {

/// Artifacts only: the check for results that were not produced by a page
/// scan (SnapshotRepo::AssembleCarve, whose stats time the assembly).
inline void ExpectSameCarveArtifacts(const CarveResult& expected,
                                     const CarveResult& actual) {
  EXPECT_EQ(expected.dialect, actual.dialect);
  EXPECT_EQ(expected.image_size, actual.image_size);

  ASSERT_EQ(expected.pages.size(), actual.pages.size());
  for (size_t i = 0; i < expected.pages.size(); ++i) {
    EXPECT_EQ(expected.pages[i], actual.pages[i])
        << "page " << i << " differs (expected offset "
        << expected.pages[i].image_offset << ", actual "
        << actual.pages[i].image_offset << ")";
  }

  ASSERT_EQ(expected.records.size(), actual.records.size());
  for (size_t i = 0; i < expected.records.size(); ++i) {
    EXPECT_EQ(expected.records[i], actual.records[i])
        << "record " << i << " differs (expected page_id "
        << expected.records[i].page_id << " slot "
        << expected.records[i].slot << ", actual page_id "
        << actual.records[i].page_id << " slot " << actual.records[i].slot
        << ")";
  }

  ASSERT_EQ(expected.index_entries.size(), actual.index_entries.size());
  for (size_t i = 0; i < expected.index_entries.size(); ++i) {
    EXPECT_EQ(expected.index_entries[i], actual.index_entries[i])
        << "index entry " << i << " differs";
  }

  ASSERT_EQ(expected.catalog_entries.size(), actual.catalog_entries.size());
  for (size_t i = 0; i < expected.catalog_entries.size(); ++i) {
    EXPECT_EQ(expected.catalog_entries[i], actual.catalog_entries[i])
        << "catalog entry " << i << " differs";
  }

  EXPECT_EQ(expected.schemas, actual.schemas);
  EXPECT_EQ(expected.indexes, actual.indexes);
  EXPECT_EQ(expected.dropped_objects, actual.dropped_objects);
}

/// Artifacts plus the scan counters, which must not depend on the thread
/// count or chunk size.
inline void ExpectSameCarveResult(const CarveResult& expected,
                                  const CarveResult& actual) {
  ExpectSameCarveArtifacts(expected, actual);
  EXPECT_EQ(expected.stats.bytes_scanned, actual.stats.bytes_scanned);
  EXPECT_EQ(expected.stats.pages_probed, actual.stats.pages_probed);
  EXPECT_EQ(expected.stats.pages_accepted, actual.stats.pages_accepted);
  EXPECT_EQ(expected.stats.checksum_failures, actual.stats.checksum_failures);
}

/// Sanity conditions both carvers' stats must satisfy for `result`.
inline void ExpectSaneCarveStats(const CarveResult& result) {
  EXPECT_EQ(result.stats.bytes_scanned, result.image_size);
  EXPECT_EQ(result.stats.pages_accepted, result.pages.size());
  EXPECT_GE(result.stats.pages_probed, result.stats.pages_accepted);
  size_t bad = 0;
  for (const CarvedPage& p : result.pages) {
    if (!p.checksum_ok) ++bad;
  }
  EXPECT_EQ(result.stats.checksum_failures, bad);
}

}  // namespace dbfa

#endif  // DBFA_TESTS_CARVE_EQUIVALENCE_H_
