// Shared types of the pipeline benchmark's workload drivers.
#ifndef PIPEBENCH_BENCH_H_
#define PIPEBENCH_BENCH_H_

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace pipebench {

/// Case id of the untimed warm-up case and of set-up work; spans stamped
/// with it never enter a per-case median.
inline constexpr uint64_t kSetupCase = std::numeric_limits<uint64_t>::max();

struct Env {
  uint64_t seed = 1;
  int seconds = 10;
  /// Worker threads for every pool the benchmark creates (ParallelCarver,
  /// SnapshotRepo, daemon shards); fixed for the whole benchmark.
  size_t threads = 4;
  /// Scratch directory on the checkout's file system (repositories and
  /// daemon roots live here).
  std::string work_dir;
  /// Stop after set-up and the warm-up case (extra set-up samples).
  bool setup_only = false;
};

/// One timed case.
struct CaseSample {
  double ms = 0.0;
  /// False when a call returned an error Status or a correctness check
  /// failed.
  bool ok = true;
  /// Image bytes brought to a verdict by the case.
  double image_bytes = 0.0;
  /// Audit-log statements checked against storage by the case.
  double stmts = 0.0;
};

struct WorkloadResult {
  double setup_s = 0.0;
  std::vector<CaseSample> cases;
  /// Tampering flagged / injected, and flagged items that were injected /
  /// all flagged (distinct items over the run).
  Ratio recall;
  Ratio precision;
  /// Tampered cases whose output names exactly the tampered rows (and, on
  /// recover, whose recovery verifies byte-identical) / tampered cases.
  Ratio exact;
  /// Deterministic per-layer counts, summed over the timed cases.
  std::map<std::string, double> counts;
  /// Per-layer ratios with their bases.
  std::map<std::string, Ratio> ratios;
  /// Input sizes and other facts that describe what was measured.
  std::map<std::string, std::string> inputs;
  /// One line per failed case or check.
  std::vector<std::string> failures;
};

/// Wall-clock stopwatch for a timed region.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Pins the calling thread to one core while alive, then restores its
/// previous affinity. A serial case runs under one, on core `index` modulo
/// the first `cores` cores the process may use, so that every run spends
/// equal time on each: a busy thread otherwise stays on one core for
/// seconds, and on a shared host the cores' speeds differ by up to 40% for
/// seconds at a time. Thread pools made before it keep every core. Does
/// nothing with fewer than two cores.
class CorePin {
 public:
  CorePin(size_t index, size_t cores) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    std::vector<int> allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) allowed.push_back(cpu);
    }
    const size_t n = std::min(cores, allowed.size());
    if (n < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowed[index % n], &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  ~CorePin() {
    if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  CorePin(const CorePin&) = delete;
  CorePin& operator=(const CorePin&) = delete;

 private:
  cpu_set_t saved_;
  bool pinned_ = false;
};

WorkloadResult RunInvestigate(const Env& env, Recorder* rec);
WorkloadResult RunReaudit(const Env& env, Recorder* rec);
WorkloadResult RunRecover(const Env& env, Recorder* rec);
WorkloadResult RunFleet(const Env& env, Recorder* rec);

}  // namespace pipebench

#endif  // PIPEBENCH_BENCH_H_
