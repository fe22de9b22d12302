// Statistics helpers for the pipeline benchmark. Timing metrics are
// medians or percentiles over many cases, never means, and a percentile is
// only reported when the sample can support it.
#ifndef PIPEBENCH_STATS_H_
#define PIPEBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace pipebench {

/// Fewest samples that must lie strictly beyond a reported percentile.
inline constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `samples`. Returns nullopt
/// when fewer than kMinTailSamples samples lie strictly above the rank,
/// i.e. when the sample is too small to support that percentile.
std::optional<double> Percentile(std::vector<double> samples, double p);

/// Number of timed cases for a run of `seconds` at a nominal rate of
/// `cases_per_second`: never fewer than 100, so that the 90th percentile
/// has kMinTailSamples cases beyond it, and rounded up to a whole number of
/// `cycle`s, so that cases cycling over `cycle` inputs visit each equally
/// often. The count depends only on the arguments, so every run with the
/// same arguments does the same cases in the same order.
size_t CaseCount(int seconds, double cases_per_second, size_t cycle = 1);

/// Median (mean of the two middle values for an even count); 0 for an
/// empty sample. Used for per-layer medians, which carry no tail claim.
double Median(std::vector<double> samples);

/// A ratio kept together with its base, so that it is always printed with
/// it and a zero base is never silently turned into a number.
struct Ratio {
  double num = 0.0;
  double den = 0.0;

  /// nullopt when the base is zero.
  std::optional<double> value() const;
  /// The value, or `fallback` when the base is zero.
  double ValueOr(double fallback) const;
  /// "0.98 (49/50)", or "n/a (0/0)" for a zero base.
  std::string ToString() const;
};

}  // namespace pipebench

#endif  // PIPEBENCH_STATS_H_
