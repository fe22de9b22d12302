// pipebench — end-to-end forensic-pipeline benchmark with per-layer
// attribution. See README.md in this directory for the workloads, the
// metrics and the layer-to-metric map.
//
//   pipebench --workload <investigate|reaudit|recover|fleet> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Prints a run header, a table of every metric with its unit (and base,
// for ratios), and as its last stdout line one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the
// end-to-end metrics; --trace 1 runs the same cases untraced and then
// traced, reports the per-layer metrics and the tracing overhead, and
// writes the spans as Chrome trace-event JSON. Exits 1 when a case failed
// or a correctness check did not hold, 2 on bad arguments.
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "trace.h"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace pipebench {
namespace {

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Seeds recorded with every result: the default seed used while the
/// benchmark and optimisations are developed, and a hold-out seed kept for
/// confirming claims.
constexpr uint64_t kDevSeed = 1;
constexpr uint64_t kHoldOutSeed = 7919;

/// Per-layer timing metrics, each the median over cases of the per-case
/// self time of the spans with that name.
const char* const kLayerTimings[] = {
    "core.carve_ms",
    "core.ram_carve_ms",
    "auditor.audit_ms",
    "metaquery.register_ms",
    "metaquery.deleted_scan_ms",
    "metaquery.disk_ram_join_ms",
    "metaquery.group_agg_ms",
    "detective.analyze_ms",
    "reenact.replay_ms",
    "reenact.provenance_ms",
    "reenact.plan_ms",
    "reenact.verify_ms",
    "reenact.validate_ms",
    "serve.submit_ms",
    "serve.drain_ms",
    "case.self_ms",
};
/// Timings only the reaudit workload records (it is not in BENCHMARK.json,
/// see README.md); reported only by a run that has spans of that name.
const char* const kReauditTimings[] = {
    "metaquery.history_ms",
    "snapshot.cold_ingest_ms",
    "snapshot.warm_ingest_ms",
    "snapshot.detect_incremental_ms",
    "snapshot.history_ms",
};
const char* const kLayerCounts[] = {
    "core.records_carved",       "metaquery.rows_out",
    "detective.records_checked", "reenact.statements_failed",
    "serve.queue_high_water",    "serve.rejected",
    "serve.findings",
};
struct RatioMetric {
  const char* name;
  const char* unit;
};
const RatioMetric kLayerRatios[] = {
    {"core.page_accept_ratio", "ratio"},
    {"snapshot.pages_new_ratio", "ratio"},
    {"snapshot.artifact_reuse_ratio", "ratio"},
    {"snapshot.stored_bytes_per_image_byte", "B/B"},
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // base of a ratio, sample count of a percentile
};

int Usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload <investigate|reaudit|recover|"
               "fleet> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

bool ParseU64(const char* s, uint64_t* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0';
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Names the file system of `dir`: repositories must sit on a disk-backed
/// one, and the flush policy is only meaningful with it recorded.
std::string FileSystemOf(const std::string& dir) {
  struct statfs st;
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext4";
    case 0x58465342UL:
      return "xfs";
    case 0x9123683EUL:
      return "btrfs";
    case 0x794C7630UL:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

using Driver = WorkloadResult (*)(const Env&, Recorder*);

/// nullptr for an unknown workload.
Driver DriverFor(const std::string& workload) {
  if (workload == "investigate") return RunInvestigate;
  if (workload == "reaudit") return RunReaudit;
  if (workload == "recover") return RunRecover;
  if (workload == "fleet") return RunFleet;
  return nullptr;
}

std::vector<double> CaseMs(const WorkloadResult& r) {
  std::vector<double> ms;
  for (const CaseSample& c : r.cases) ms.push_back(c.ms);
  return ms;
}

/// Runs the workload in a fresh scratch directory and removes it after.
WorkloadResult RunOnce(Driver driver, Env env, const std::string& tag,
                       Recorder* rec) {
  env.work_dir += "/" + tag;
  std::error_code ec;
  std::filesystem::create_directories(env.work_dir, ec);
  WorkloadResult r;
  if (ec) {
    r.failures.push_back("cannot create " + env.work_dir + ": " +
                         ec.message());
    return r;
  }
  r = driver(env, rec);
  std::filesystem::remove_all(env.work_dir, ec);
  return r;
}

std::vector<Metric> EndToEnd(const WorkloadResult& r, bool* ok) {
  std::vector<Metric> m;
  std::vector<double> ms = CaseMs(r);
  double sum_ms = 0.0;
  double bytes = 0.0;
  double stmts = 0.0;
  for (const CaseSample& c : r.cases) {
    sum_ms += c.ms;
    bytes += c.image_bytes;
    stmts += c.stmts;
  }
  auto p50 = Percentile(ms, 50);
  auto p90 = Percentile(ms, 90);
  if (!p50 || !p90) {
    *ok = false;
    std::fprintf(stderr, "too few cases (%zu) for the 90th percentile\n",
                 ms.size());
  }
  std::string n = std::to_string(ms.size()) + " cases";
  m.push_back({"setup_s", r.setup_s, "s", "median of set-ups"});
  m.push_back({"case_p50_ms", p50.value_or(0.0), "ms", n});
  m.push_back({"case_p90_ms", p90.value_or(0.0), "ms", n});
  m.push_back({"audit_mbps", sum_ms > 0 ? bytes / 1e6 / (sum_ms / 1e3) : 0.0,
               "MB/s", Num(bytes) + " B / " + Num(sum_ms) + " ms"});
  m.push_back({"stmts_per_s", sum_ms > 0 ? stmts / (sum_ms / 1e3) : 0.0,
               "stmt/s", Num(stmts) + " stmts / " + Num(sum_ms) + " ms"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MB", ""});
  const std::pair<const char*, const Ratio*> ratios[] = {
      {"detect_recall", &r.recall},
      {"detect_precision", &r.precision},
      {"recovery_exact", &r.exact}};
  for (const auto& [name, ratio] : ratios) {
    if (!ratio->value()) {
      *ok = false;
      std::fprintf(stderr, "%s has a zero base: no tampering was measured\n",
                   name);
    }
    m.push_back({name, ratio->ValueOr(0.0), "ratio", ratio->ToString()});
  }
  return m;
}

std::vector<Metric> PerLayer(const WorkloadResult& traced,
                             const WorkloadResult& untraced,
                             const Recorder& rec) {
  std::vector<Metric> m;
  auto by_case = rec.SelfMsByCase();
  std::vector<const char*> timings(std::begin(kLayerTimings),
                                   std::end(kLayerTimings));
  for (const char* name : kReauditTimings) {
    if (by_case.count(name) != 0) timings.push_back(name);
  }
  for (const char* name : timings) {
    std::vector<double> per_case;
    auto it = by_case.find(name == std::string("case.self_ms") ? "case" : name);
    if (it != by_case.end()) {
      for (const auto& [id, ms] : it->second) {
        if (id != kSetupCase) per_case.push_back(ms);
      }
    }
    // Set-up-only layers (the cold ingest) have their one sample there.
    if (per_case.empty() && it != by_case.end()) {
      for (const auto& [id, ms] : it->second) per_case.push_back(ms);
    }
    m.push_back({name, Median(per_case), "ms",
                 std::to_string(per_case.size()) + " cases"});
  }
  for (const char* name : kLayerCounts) {
    auto it = traced.counts.find(name);
    m.push_back({name, it == traced.counts.end() ? 0.0 : it->second, "count",
                 ""});
  }
  for (const RatioMetric& rm : kLayerRatios) {
    auto it = traced.ratios.find(rm.name);
    Ratio r = it == traced.ratios.end() ? Ratio{} : it->second;
    m.push_back({rm.name, r.ValueOr(0.0), rm.unit, r.ToString()});
  }
  // The two-pass difference below is dominated by host drift when the
  // recorder's true cost is microseconds; the direct cost of one span
  // bounds it: spans per case times this.
  Recorder probe(true);
  Stopwatch watch;
  constexpr int kProbeSpans = 100000;
  for (int i = 0; i < kProbeSpans; ++i) ScopedSpan span(&probe, "probe");
  m.push_back({"trace.span_cost_us", watch.ms() * 1000.0 / kProbeSpans, "us",
               std::to_string(kProbeSpans) + " spans"});
  auto traced_p50 = Percentile(CaseMs(traced), 50);
  auto untraced_p50 = Percentile(CaseMs(untraced), 50);
  m.push_back({"trace.overhead_ms",
               traced_p50.value_or(0.0) - untraced_p50.value_or(0.0), "ms",
               "traced p50 " + Num(traced_p50.value_or(0.0)) +
                   " - untraced p50 " + Num(untraced_p50.value_or(0.0))});
  return m;
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << text;
  return static_cast<bool>(f);
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  using namespace pipebench;
  std::string workload;
  uint64_t seed = kDevSeed;
  uint64_t seconds = 10;
  uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    bool good = true;
    if (arg == "--workload" && value != nullptr) {
      workload = value;
    } else if (arg == "--seed") {
      good = ParseU64(value, &seed);
    } else if (arg == "--seconds") {
      good = ParseU64(value, &seconds) && seconds >= 1 && seconds <= 3600;
    } else if (arg == "--trace") {
      good = ParseU64(value, &trace) && trace <= 1;
    } else {
      good = false;
    }
    if (!good) return Usage();
    ++i;
  }
  const Driver driver = DriverFor(workload);
  if (driver == nullptr) return Usage();

  Env env;
  env.seed = seed;
  env.seconds = static_cast<int>(seconds);
  const size_t nproc = std::max(1u, std::thread::hardware_concurrency());
  env.threads = std::min<size_t>(4, nproc);
  const std::string out_dir = ".pipebench";
  env.work_dir = out_dir + "/work/" + workload + "-" +
                 std::to_string(static_cast<long long>(getpid()));
  std::error_code ec;
  std::filesystem::create_directories(env.work_dir, ec);
  std::filesystem::create_directories(out_dir + "/results", ec);
  std::filesystem::create_directories(out_dir + "/traces", ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", out_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }
  const char* commit = std::getenv("PIPEBENCH_COMMIT");
  std::map<std::string, std::string> run_env = {
      {"commit", commit != nullptr ? commit : "unknown"},
      {"build_type", PIPEBENCH_BUILD_TYPE},
      {"nproc", std::to_string(nproc)},
      {"threads", std::to_string(env.threads)},
      {"workload", workload},
      {"seed", std::to_string(seed)},
      {"dev_seed", std::to_string(kDevSeed)},
      {"hold_out_seed", std::to_string(kHoldOutSeed)},
      {"seconds", std::to_string(seconds)},
      {"trace", std::to_string(trace)},
      {"flush_policy",
       "no fsync by the program (OS write-back); work dir on " +
           FileSystemOf(env.work_dir)},
  };

  // setup_s is the median over kSetups set-ups: kSetups - 1 that stop
  // after the warm-up case, then the run's own.
  constexpr int kSetups = 3;
  std::vector<double> setups;
  std::vector<std::string> failures;
  Recorder off(false);
  for (int i = 1; trace == 0 && i < kSetups; ++i) {
    Env setup_env = env;
    setup_env.setup_only = true;
    WorkloadResult r =
        RunOnce(driver, setup_env, "setup" + std::to_string(i), &off);
    setups.push_back(r.setup_s);
    failures.insert(failures.end(), r.failures.begin(), r.failures.end());
  }
  WorkloadResult untraced = RunOnce(driver, env, "untraced", &off);
  setups.push_back(untraced.setup_s);
  untraced.setup_s = Median(setups);
  Recorder on(true);
  WorkloadResult traced;
  if (trace == 1) traced = RunOnce(driver, env, "traced", &on);
  std::filesystem::remove_all(env.work_dir, ec);
  std::filesystem::remove(out_dir + "/work", ec);  // only when empty
  const WorkloadResult& main_result = trace == 1 ? traced : untraced;

  // The end-to-end checks (enough cases for the 90th percentile, a
  // nonzero base for every ratio) apply to traced runs too.
  bool ok = true;
  std::vector<Metric> metrics = EndToEnd(untraced, &ok);
  if (trace == 1) metrics = PerLayer(traced, untraced, on);
  size_t attempted = 0;
  size_t failed = 0;
  failures.insert(failures.end(), untraced.failures.begin(),
                  untraced.failures.end());
  for (const WorkloadResult* r : {&untraced, &traced}) {
    if (r == &traced && trace == 0) continue;
    for (const CaseSample& c : r->cases) {
      ++attempted;
      failed += c.ok ? 0 : 1;
    }
  }
  if (trace == 1) {
    failures.insert(failures.end(), traced.failures.begin(),
                    traced.failures.end());
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  if (!failures.empty() || attempted == 0) ok = false;
  if (attempted == 0) attempted = 1;  // a run that made no case failed it
  if (!ok && failed == 0) failed = 1;

  // ---- report ----
  std::string env_json = "{";
  for (const auto& [k, v] : run_env) {
    env_json += (env_json.size() > 1 ? "," : "") + ("\"" + k + "\":\"" +
                                                     JsonEscape(v) + "\"");
  }
  std::string inputs_json = "{";
  for (const auto& [k, v] : main_result.inputs) {
    inputs_json += (inputs_json.size() > 1 ? "," : "") +
                   ("\"" + k + "\":\"" + JsonEscape(v) + "\"");
  }
  env_json += "}";
  inputs_json += "}";
  std::printf("# pipebench env %s\n# pipebench inputs %s\n", env_json.c_str(),
              inputs_json.c_str());
  std::printf("# fail_ratio %s (%zu/%zu)\n",
              Num(static_cast<double>(failed) / static_cast<double>(attempted))
                  .c_str(),
              failed, attempted);
  for (const Metric& mt : metrics) {
    std::printf("# %-38s %14.6g %-7s %s\n", mt.name.c_str(), mt.value,
                mt.unit.c_str(), mt.note.c_str());
  }

  std::string metrics_json = "{";
  std::string notes_json = "{";
  for (const Metric& mt : metrics) {
    metrics_json += (metrics_json.size() > 1 ? "," : "") +
                    ("\"" + mt.name + "\":{\"value\":" + Num(mt.value) +
                     ",\"unit\":\"" + mt.unit + "\"}");
    notes_json += (notes_json.size() > 1 ? "," : "") +
                  ("\"" + mt.name + "\":\"" + JsonEscape(mt.note) + "\"");
  }
  metrics_json += "}";
  notes_json += "}";

  const std::string stem = out_dir + "/results/" + workload + "-seed" +
                           std::to_string(seed) + "-trace" +
                           std::to_string(trace);
  WriteFile(stem + ".json",
            "{\"env\":" + env_json + ",\"inputs\":" + inputs_json +
                ",\"attempted\":" + std::to_string(attempted) +
                ",\"failed\":" + std::to_string(failed) +
                ",\"metrics\":" + metrics_json + ",\"notes\":" + notes_json +
                "}\n");
  if (trace == 1) {
    const std::string tstem = out_dir + "/traces/" + workload + "-seed" +
                              std::to_string(seed);
    WriteFile(tstem + ".trace.json", on.ToChromeJson());
    std::string summary = "{\"env\":" + env_json + ",\"layers\":{";
    bool first = true;
    for (const auto& [name, s] : on.Summary()) {
      summary += (first ? "\n" : ",\n") +
                 ("\"" + name + "\":{\"count\":" + std::to_string(s.count) +
                  ",\"total_ms\":" + Num(s.total_ms) +
                  ",\"self_ms\":" + Num(s.self_ms) + "}");
      first = false;
    }
    summary += "\n}}\n";
    WriteFile(tstem + ".summary.json", summary);
    for (const auto& [name, s] : on.Summary()) {
      std::fprintf(stderr,
                   "span %-34s count %6zu total %10.3f ms self %10.3f ms\n",
                   name.c_str(), s.count, s.total_ms, s.self_ms);
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              ok ? "true" : "false", attempted, failed, metrics_json.c_str());
  std::fflush(stdout);
  return ok ? 0 : 1;
}
