#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace pipebench {

std::optional<double> Percentile(std::vector<double> samples, double p) {
  if (samples.empty() || !(p > 0.0 && p < 100.0)) return std::nullopt;
  const size_t n = samples.size();
  // Nearest rank: the smallest value with at least p% of the sample at or
  // below it (1-based rank ceil(p/100 * n)).
  size_t rank =
      static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < kMinTailSamples) return std::nullopt;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t CaseCount(int seconds, double cases_per_second, size_t cycle) {
  const double want = static_cast<double>(seconds) * cases_per_second;
  const size_t n = std::max<size_t>(
      10 * kMinTailSamples, static_cast<size_t>(std::max(0.0, want) + 0.5));
  cycle = std::max<size_t>(1, cycle);
  return (n + cycle - 1) / cycle * cycle;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

std::optional<double> Ratio::value() const {
  if (den == 0.0) return std::nullopt;
  return num / den;
}

double Ratio::ValueOr(double fallback) const {
  return value().value_or(fallback);
}

std::string Ratio::ToString() const {
  char buf[96];
  if (auto v = value()) {
    std::snprintf(buf, sizeof(buf), "%.6g (%.0f/%.0f)", *v, num, den);
  } else {
    std::snprintf(buf, sizeof(buf), "n/a (%.0f/0)", num);
  }
  return buf;
}

}  // namespace pipebench
