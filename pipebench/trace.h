// The benchmark's own span recorder. It wraps calls into the program's
// public API from outside (the program itself is not instrumented): each
// span carries a metric name, the case id, its parent span, start and end.
// Spans stay in memory and are written out at exit as Chrome trace-event
// JSON plus a per-layer summary of count, total and self time.
//
// Spans are opened and closed on the driver thread only; the recorder is
// not thread-safe. A disabled recorder records nothing.
#ifndef PIPEBENCH_TRACE_H_
#define PIPEBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

struct Span {
  std::string name;
  uint64_t case_id = 0;
  int64_t id = 0;
  int64_t parent = -1;  // -1: a root span
  double start_us = 0.0;
  double end_us = 0.0;
};

/// Self time of every span, in milliseconds, parallel to `spans`: the
/// span's duration minus the part of its interval covered by its direct
/// children (overlapping children are counted once). Spans must be ordered
/// so that `id` equals the index.
std::vector<double> SelfTimesMs(const std::vector<Span>& spans);

/// Per-name totals over a whole run.
struct LayerSummary {
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

class Recorder {
 public:
  explicit Recorder(bool enabled);

  /// Case id stamped on spans opened from now on.
  void SetCase(uint64_t case_id) { case_id_ = case_id; }

  /// Opens a span under the innermost open span; -1 when disabled.
  int64_t Begin(const char* name);
  /// Closes span `id` (must be the innermost open span); no-op for -1.
  void End(int64_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Summary per span name.
  std::map<std::string, LayerSummary> Summary() const;

  /// Self time per span name and case, in ms, summed over that case's
  /// spans of the name. Only cases in which the name occurs are present.
  std::map<std::string, std::map<uint64_t, double>> SelfMsByCase() const;

  /// Chrome trace-event JSON ("X" complete events), loadable in Perfetto
  /// or chrome://tracing.
  std::string ToChromeJson() const;

 private:
  double NowUs() const;

  bool enabled_;
  uint64_t case_id_ = 0;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Opens a span for the lifetime of the object.
class ScopedSpan {
 public:
  ScopedSpan(Recorder* recorder, const char* name)
      : recorder_(recorder), id_(recorder->Begin(name)) {}
  ~ScopedSpan() { recorder_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder* recorder_;
  int64_t id_;
};

}  // namespace pipebench

#endif  // PIPEBENCH_TRACE_H_
