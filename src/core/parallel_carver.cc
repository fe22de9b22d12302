#include "core/parallel_carver.h"

namespace dbfa {

ParallelCarver::ParallelCarver(CarverConfig config, CarveOptions options)
    : carver_(std::move(config), options),
      owned_pool_(new ThreadPool(options.num_threads)),
      pool_(owned_pool_.get()) {}

ParallelCarver::ParallelCarver(CarverConfig config, CarveOptions options,
                               ThreadPool* pool)
    : carver_(std::move(config), options), pool_(pool) {}

Result<CarveResult> ParallelCarver::Carve(ByteView image) const {
  return carver_.Carve(image, pool_);
}

Result<std::vector<CarveResult>> ParallelCarver::CarveMulti(
    ByteView image, const std::vector<CarverConfig>& configs,
    CarveOptions options) {
  ThreadPool pool(options.num_threads);
  return Carver::CarveMulti(image, configs, options, &pool);
}

}  // namespace dbfa
