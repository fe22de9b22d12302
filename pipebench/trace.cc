#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace pipebench {

std::vector<double> SelfTimesMs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_us,
                                                           s.end_us);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_us);
      hi = std::min(hi, s.end_us);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (s.end_us - s.start_us) - covered) / 1000.0;
  }
  return self;
}

Recorder::Recorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Recorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t Recorder::Begin(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.case_id = case_id_;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Recorder::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_us = NowUs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, LayerSummary> Recorder::Summary() const {
  std::vector<double> self = SelfTimesMs(spans_);
  std::map<std::string, LayerSummary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    LayerSummary& s = out[spans_[i].name];
    ++s.count;
    s.total_ms += (spans_[i].end_us - spans_[i].start_us) / 1000.0;
    s.self_ms += self[i];
  }
  return out;
}

std::map<std::string, std::map<uint64_t, double>> Recorder::SelfMsByCase()
    const {
  std::vector<double> self = SelfTimesMs(spans_);
  std::map<std::string, std::map<uint64_t, double>> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name][spans_[i].case_id] += self[i];
  }
  return out;
}

std::string Recorder::ToChromeJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"case\":%llu,"
                  "\"id\":%lld,\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_us,
                  s.end_us - s.start_us,
                  static_cast<unsigned long long>(s.case_id),
                  static_cast<long long>(s.id),
                  static_cast<long long>(s.parent));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace pipebench
