// fleet: the continuous-audit daemon over a simulated fleet.
//
// Why: the only workload that exercises serve (shard queues, workers,
// findings feed, dedup). It also measures the snapshot layer's fixed
// per-capture cost across many tiny repositories, where per-page work is
// small.
//
// Inputs: kInstances FleetSimulator instances (captures of 32 KB in the
// first round, growing to ~45 KB as the instances insert; six logged
// statements per tick; attack rate 0.05: an unlogged INSERT on ids the
// workload never reaches). The daemon runs T shards with the
// delay (block-on-full) policy and the default queue capacity. One case
// is one audit round: one SubmitCapture per instance, then Drain. The
// next round's captures are generated outside the timed region. Round 0
// (every instance's cold first ingest) is the untimed warm-up.
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/strings.h"
#include "gen.h"
#include "serve/audit_daemon.h"
#include "workload/fleet.h"

namespace pipebench {
namespace {

using namespace dbfa;

constexpr size_t kInstances = 64;
constexpr int kSeedRows = 300;
constexpr double kAttackRate = 0.05;
constexpr int64_t kAttackBase = 1'000'000;  // FleetSimulator's attack ids
// A fixed round count, whatever --seconds says: the daemon's resident
// memory grows by several MB a round (~800 MB after 100 rounds), so longer
// runs would measure the memory pressure of the host, not the daemon.
constexpr size_t kRounds = 100;

}  // namespace

WorkloadResult RunFleet(const Env& env, Recorder* rec) {
  WorkloadResult out;
  Stopwatch setup;
  auto fail = [&](const std::string& what, const Status& s) {
    out.failures.push_back("fleet " + what + ": " + s.ToString());
    return out;
  };

  FleetOptions fleet_options;
  fleet_options.instances = kInstances;
  fleet_options.seed_rows = kSeedRows;
  fleet_options.attack_rate = kAttackRate;
  fleet_options.seed = env.seed;
  auto fleet = FleetSimulator::Make(fleet_options);
  if (!fleet.ok()) return fail("make", fleet.status());

  ServeOptions serve_options;
  serve_options.root = env.work_dir + "/daemon";
  serve_options.shards = env.threads;
  serve_options.block_on_full = true;
  auto daemon = AuditDaemon::Start(serve_options);
  if (!daemon.ok()) return fail("start", daemon.status());
  for (size_t i = 0; i < kInstances; ++i) {
    auto id = (*daemon)->AddInstance(FleetSimulator::InstanceName(i),
                                     (*fleet)->Config());
    if (!id.ok()) return fail("add instance", id.status());
  }

  const size_t n = kRounds;
  out.inputs["instances"] = StrFormat("%zu", kInstances);
  out.inputs["seed_rows"] = StrFormat("%d", kSeedRows);
  out.inputs["ops_per_tick"] = StrFormat("%d", fleet_options.ops_per_tick);
  out.inputs["attack_rate"] = StrFormat("%g", kAttackRate);
  out.inputs["dialect"] = fleet_options.dialect;
  out.inputs["shards"] = StrFormat("%zu", env.threads);
  out.inputs["queue_capacity"] = StrFormat("%zu", serve_options.queue_capacity);
  out.inputs["policy"] = "delay";
  out.inputs["cases"] = StrFormat("%zu", n);

  std::set<std::pair<size_t, int64_t>> injected_all;
  std::set<std::pair<size_t, int64_t>> flagged_all;
  std::vector<size_t> attacks_seen(kInstances, 0);
  size_t findings_seen = 0;
  double capture_bytes = 0.0;
  double first_capture_bytes = 0.0;
  ServeStats before;
  for (size_t c = 0; c <= n; ++c) {
    const bool warmup = c == 0;
    // ---- untimed: this round's captures ----
    std::vector<Bytes> captures(kInstances);
    std::set<std::pair<size_t, int64_t>> injected;
    double round_bytes = 0.0;
    double round_stmts = 0.0;
    for (size_t i = 0; i < kInstances; ++i) {
      auto capture = (*fleet)->Tick(i);
      if (!capture.ok()) return fail("tick", capture.status());
      round_bytes += static_cast<double>(capture->size());
      round_stmts += static_cast<double>((*fleet)->Log(i).entries().size());
      captures[i] = std::move(*capture);
      for (; attacks_seen[i] < (*fleet)->Attacks(i); ++attacks_seen[i]) {
        injected.emplace(i, kAttackBase + 1 + attacks_seen[i]);
      }
    }
    capture_bytes += round_bytes;
    if (warmup) first_capture_bytes = round_bytes / kInstances;

    rec->SetCase(warmup ? kSetupCase : c);
    CaseSample sample;
    sample.image_bytes = round_bytes;
    sample.stmts = round_stmts;
    std::string error;
    Stopwatch watch;
    {
      ScopedSpan case_span(rec, "case");
      {
        ScopedSpan span(rec, "serve.submit_ms");
        for (size_t i = 0; i < kInstances && error.empty(); ++i) {
          Status s = (*daemon)->SubmitCapture(i, std::move(captures[i]),
                                              (*fleet)->Log(i));
          if (!s.ok()) error = "submit: " + s.ToString();
        }
      }
      ScopedSpan span(rec, "serve.drain_ms");
      (*daemon)->Drain();
    }
    sample.ms = watch.ms();

    // ---- untimed: checks and ground truth ----
    ServeStats stats = (*daemon)->Stats();
    if (error.empty() && stats.captures_failed != 0) {
      error = StrFormat("%llu captures failed",
                        (unsigned long long)stats.captures_failed);
    }
    if (error.empty() && stats.invariants != "ok") {
      error = "daemon invariants: " + stats.invariants;
    }
    if (error.empty() &&
        stats.captures_completed != (c + 1) * kInstances) {
      error = StrFormat("%llu captures completed after %zu rounds",
                        (unsigned long long)stats.captures_completed, c + 1);
    }
    std::vector<ServeFinding> findings = (*daemon)->Findings();
    std::set<std::pair<size_t, int64_t>> flagged;
    for (size_t f = findings_seen; f < findings.size(); ++f) {
      size_t instance = kInstances;
      for (size_t i = 0; i < kInstances; ++i) {
        if (findings[f].instance == FleetSimulator::InstanceName(i)) {
          instance = i;
        }
      }
      flagged.emplace(instance, IdOf(findings[f].mod.values));
    }
    findings_seen = findings.size();
    if (!error.empty()) {
      sample.ok = false;
      out.failures.push_back(
          StrFormat("fleet round %zu: %s", c, error.c_str()));
    }
    if (warmup) {
      before = stats;
      out.setup_s = setup.ms() / 1000.0;
      if (env.setup_only) return out;
      continue;
    }
    out.cases.push_back(sample);
    injected_all.insert(injected.begin(), injected.end());
    flagged_all.insert(flagged.begin(), flagged.end());
    if (!injected.empty()) {
      out.exact.den += 1;
      out.exact.num += flagged == injected ? 1 : 0;
    }
  }

  ServeStats stats = (*daemon)->Stats();
  Status shut = (*daemon)->Shutdown();
  if (!shut.ok()) out.failures.push_back("fleet shutdown: " + shut.ToString());
  size_t hits = 0;
  for (const auto& item : injected_all) hits += flagged_all.count(item);
  out.recall = Ratio{static_cast<double>(hits),
                     static_cast<double>(injected_all.size())};
  out.precision = Ratio{static_cast<double>(hits),
                        static_cast<double>(flagged_all.size())};
  out.counts["serve.findings"] =
      static_cast<double>(stats.findings - before.findings);
  out.counts["serve.rejected"] = static_cast<double>(stats.captures_rejected);
  out.counts["serve.queue_high_water"] =
      static_cast<double>(stats.MaxQueueHighWater());
  const double pages =
      static_cast<double>(stats.pages_total - before.pages_total);
  const double reused =
      static_cast<double>(stats.pages_reused - before.pages_reused);
  out.ratios["snapshot.pages_new_ratio"] = Ratio{pages - reused, pages};
  const double art_reused =
      static_cast<double>(stats.artifacts_reused - before.artifacts_reused);
  const double art_carved =
      static_cast<double>(stats.artifacts_carved - before.artifacts_carved);
  out.ratios["snapshot.artifact_reuse_ratio"] =
      Ratio{art_reused, art_reused + art_carved};
  out.ratios["snapshot.stored_bytes_per_image_byte"] = Ratio{
      static_cast<double>(DirBytes(serve_options.root + "/instances")),
      capture_bytes};
  out.inputs["mean_capture_bytes"] = StrFormat("%.0f", first_capture_bytes);
  return out;
}

}  // namespace pipebench
