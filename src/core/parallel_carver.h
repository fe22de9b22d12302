// Parallel carving: the Carver pipeline run on a reusable worker pool.
// Same inputs and byte-identical outputs (artifacts and counters) as the
// serial Carver for any thread count and chunk size; see
// docs/parallel_carving.md for the equivalence argument.
//
//   detection — the shared page scan (core/page_scan.h) probes the image
//     in disjoint page-aligned chunks on the pool, then replays the serial
//     cursor rule over the candidates in offset order.
//   catalog   — serial (it touches only the few catalog pages and its
//     output gates typed decoding).
//   content   — contiguous ranges of the accepted page list are decoded
//     concurrently; per-range outputs are appended in range order,
//     reproducing the serial artifact ordering.
#ifndef DBFA_CORE_PARALLEL_CARVER_H_
#define DBFA_CORE_PARALLEL_CARVER_H_

#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/thread_pool.h"
#include "core/carver.h"

namespace dbfa {

class ParallelCarver {
 public:
  /// Owns a pool of options.num_threads workers (0 = hardware concurrency).
  explicit ParallelCarver(CarverConfig config, CarveOptions options = {});

  /// Borrows `pool` (must outlive the carver); options.num_threads is
  /// ignored in favor of the pool's size.
  ParallelCarver(CarverConfig config, CarveOptions options, ThreadPool* pool);

  const CarverConfig& config() const { return carver_.config(); }
  size_t thread_count() const { return pool_->thread_count(); }

  /// Reconstructs all artifacts from `image`; byte-identical to
  /// Carver(config, options).Carve(image).
  Result<CarveResult> Carve(ByteView image) const;

  /// Runs all configs over one image on one shared pool of
  /// options.num_threads workers. Results match Carver::CarveMulti
  /// element-wise, same order.
  static Result<std::vector<CarveResult>> CarveMulti(
      ByteView image, const std::vector<CarverConfig>& configs,
      CarveOptions options = {});

 private:
  Carver carver_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;  // owned_pool_.get() or a borrowed pool
};

}  // namespace dbfa

#endif  // DBFA_CORE_PARALLEL_CARVER_H_
