// Wall-clock phase timing shared by the carve and ingest pipelines.
#ifndef DBFA_COMMON_TIMING_H_
#define DBFA_COMMON_TIMING_H_

#include <chrono>

namespace dbfa {

/// Seconds elapsed on the steady clock since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace dbfa

#endif  // DBFA_COMMON_TIMING_H_
