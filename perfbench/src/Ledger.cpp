//===- Ledger.cpp - Samples, percentiles and failure accounting -----------===//

#include "Ledger.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile \p Q in \p N samples.
size_t nearestRank(size_t N, double Q) {
  double R = std::ceil(Q / 100.0 * static_cast<double>(N) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(R), 1, N);
}

} // namespace

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  size_t K = nearestRank(V.size(), Q) - 1;
  std::nth_element(V.begin(), V.begin() + K, V.end());
  return V[K];
}

size_t samplesBeyond(size_t N, double Q) {
  return N ? N - nearestRank(N, Q) : 0;
}

double highestResolvedPercentile(size_t N) {
  double Best = 0;
  for (double Q : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9})
    if (samplesBeyond(N, Q) >= 10)
      Best = Q;
  return Best;
}

constexpr size_t kMaxLoggedFailures = 16;

bool Ledger::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (!Ok) {
    ++Failed;
    if (Failures.size() < kMaxLoggedFailures)
      Failures.push_back(What);
  }
  return Ok;
}

} // namespace perfbench
