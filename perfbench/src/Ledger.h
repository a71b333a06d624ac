//===- Ledger.h - Samples, percentiles and failure accounting --*- C++ -*-===//
//
// Part of the retypd benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statistics the benchmark reports: nearest-rank percentiles over a
/// latency sample, the rule that says which percentiles a sample can
/// resolve, and the check ledger behind `failed`/`attempted`.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile \p Q (0 < Q <= 100) of \p V: the smallest
/// sample with at least Q% of the sample at or below it. 0 when empty.
double percentile(std::vector<double> V, double Q);

inline double median(std::vector<double> V) {
  return percentile(std::move(V), 50);
}

/// Samples strictly above the nearest-rank \p Q percentile of \p N samples.
size_t samplesBeyond(size_t N, double Q);

/// The highest percentile of {50, 75, 90, 95, 99, 99.9} that has at least
/// ten samples beyond it in a sample of \p N, or 0 when even the median
/// has fewer (N < 20). A tail figure above this percentile is one or two
/// outliers, not a tail.
double highestResolvedPercentile(size_t N);

/// Counts every attempted operation and every failed one. An operation
/// fails when any check of its output fails; the failure is recorded and
/// counted, never thrown, so the run finishes and reports
/// failed/attempted (`failed_frac`).
struct Ledger {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< the first few, for the log

  /// Records one operation's verdict; returns \p Ok. \p What names the
  /// operation in the failure log.
  bool check(bool Ok, const std::string &What);

  double failedFrac() const {
    return Attempted ? static_cast<double>(Failed) / Attempted : 0;
  }
};

} // namespace perfbench

#endif // PERFBENCH_LEDGER_H
