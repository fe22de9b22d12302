// Page detection (Figure 2, component F, step 1): the one implementation
// of the carver's cursor rule, shared by Carver (serial and pooled) and by
// SnapshotRepo::Ingest (store-accelerated).
//
// The serial scanner is a cursor over the image: it probes the window at
// the cursor, advances a full page when the window is accepted (so
// page-interior bytes are never re-read as page starts) and one scan step
// otherwise. ScanPages reproduces that page list exactly without walking
// the cursor during probing:
//
//   probe  — every offset the cursor could ever visit lies on the grid
//     gcd(scan_step, page_size) from 0. The grid is split into disjoint,
//     ascending chunks; each chunk probes all of its grid offsets. Chunks
//     run on the pool, or inline as one chunk when there is no pool. The
//     probe reads the whole window from the shared image, so a page that
//     straddles a chunk edge is seen by the chunk it starts in.
//   replay — the candidates, already in offset order, are walked with the
//     serial cursor: a candidate inside an accepted page or off the
//     cursor's stride is dropped, any other is accepted and moves the
//     cursor a page on.
//
// The accepted list and `pages_probed` (the offsets the serial cursor
// visits) are therefore the same for every pool size and chunk size; see
// docs/parallel_carving.md.
#ifndef DBFA_CORE_PAGE_SCAN_H_
#define DBFA_CORE_PAGE_SCAN_H_

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"

namespace dbfa {

struct PageScanParams {
  size_t page_size = 0;
  /// Cursor stride on a rejected window; 0 is read as 512.
  size_t scan_step = 512;
  /// Pages per pool task; 0 sizes chunks for ~4 tasks per worker. Unused
  /// without a pool.
  size_t chunk_pages = 0;
};

/// Runs page detection over `image`. `probe(offset)` returns a
/// std::optional<Candidate>, engaged when the window
/// [offset, offset + page_size) looks like a page; it must depend only on
/// that window and be safe to call concurrently. Returns the accepted
/// candidates in image order and sets `*pages_probed` to the number of
/// offsets the serial cursor visits.
template <typename Candidate, typename Probe>
std::vector<Candidate> ScanPages(ByteView image, const PageScanParams& params,
                                 ThreadPool* pool, const Probe& probe,
                                 size_t* pages_probed) {
  const size_t page_size = params.page_size;
  const size_t step = params.scan_step == 0 ? 512 : params.scan_step;
  const size_t grid = std::gcd(step, page_size);
  *pages_probed = 0;
  if (page_size == 0 || image.size() < page_size) return {};
  const size_t probe_end = image.size() - page_size + 1;

  // Chunk boundaries are multiples of whole pages, hence of the grid.
  size_t chunk_bytes = probe_end;
  if (pool != nullptr) {
    size_t chunk_pages = params.chunk_pages;
    if (chunk_pages == 0) {
      size_t tasks = pool->thread_count() * 4;
      size_t image_pages = image.size() / page_size + 1;
      chunk_pages = std::max<size_t>(16, (image_pages + tasks - 1) / tasks);
    }
    chunk_bytes = chunk_pages * page_size;
  }
  size_t n_chunks = (probe_end + chunk_bytes - 1) / chunk_bytes;
  std::vector<std::vector<std::pair<size_t, Candidate>>> found(n_chunks);
  auto probe_chunk = [&](size_t c) {
    size_t end = std::min(probe_end, (c + 1) * chunk_bytes);
    for (size_t offset = c * chunk_bytes; offset < end; offset += grid) {
      std::optional<Candidate> candidate = probe(offset);
      if (candidate.has_value()) {
        found[c].emplace_back(offset, std::move(*candidate));
      }
    }
  };
  if (pool != nullptr && n_chunks > 1) {
    pool->ParallelFor(n_chunks, probe_chunk);
  } else {
    for (size_t c = 0; c < n_chunks; ++c) probe_chunk(c);
  }

  // The cursor rule. From cursor `next`, the serial scan rejects
  // (offset - next) / step windows before it reaches `offset`, then
  // accepts it and jumps a full page.
  std::vector<Candidate> pages;
  size_t next = 0;
  size_t probed = 0;
  for (auto& chunk : found) {
    for (auto& [offset, candidate] : chunk) {
      if (offset < next || (offset - next) % step != 0) continue;
      probed += (offset - next) / step + 1;
      pages.push_back(std::move(candidate));
      next = offset + page_size;
    }
  }
  if (next < probe_end) probed += (probe_end - 1 - next) / step + 1;
  *pages_probed = probed;
  return pages;
}

}  // namespace dbfa

#endif  // DBFA_CORE_PAGE_SCAN_H_
