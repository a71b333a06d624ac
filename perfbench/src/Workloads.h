//===- Workloads.h - The benchmark's three workloads -----------*- C++ -*-===//
//
// Part of the retypd benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `runWorkload` measures one run into a `RunData` (raw samples, sums and
/// the input shape); `reduce` turns it into the printed metrics.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Layers.h"
#include "Ledger.h"

#include "eval/Metrics.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10; ///< how long the closed loop measures
  bool Trace = false;
  std::string RepoRoot; ///< checkout root (reads tests/frontend/golden)
  std::string WorkDir;  ///< scratch space for stores and the trace file
};

/// What a run measured, before reduction to metrics.
struct RunData {
  Ledger Ops;
  /// Op wall times (ms) by op kind; in traced runs also split into probed
  /// and unprobed ops.
  std::map<std::string, std::vector<double>> Samples, ProbedMs, PlainMs;
  double OpMs = 0, OpCpuSecs = 0, OpInstructions = 0;
  double PeakHeapBytes = 0;
  std::vector<double> SetupSecs;
  retypd::MetricSummary Precision;
  LayerValues LayerSum; ///< per-layer values summed over probed ops
  double LayerOps = 0;
  std::map<std::string, std::string> Labels; ///< input shape
  std::vector<std::string> TraceEvents;       ///< Chrome trace events (JSON)
};

/// Runs one workload; false when the workload name is unknown or its
/// inputs cannot be set up (missing golden files, a module that does not
/// parse).
bool runWorkload(const RunConfig &Cfg, RunData &Out, std::string &Err);

struct RunResult {
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::map<std::string, double> Metrics;
  /// Input shape and run conditions printed beside the metrics.
  std::map<std::string, std::string> Shape;
};

/// Reduces a run's data to its metrics.
RunResult reduce(const RunConfig &Cfg, const RunData &D);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
