//===- Layers.h - One adapter over the program's published metrics -*- C++ -*-===//
//
// Part of the retypd benchmark (perfbench/README.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every per-layer number the benchmark reports is read here and nowhere
/// else. The program publishes its timers and counters process-wide
/// (`PhaseTimes::snapshot()`, `CounterSnapshot`, `MemStats`) and per run
/// (`TypeReport::Stats`); a `LayerProbe` is taken before and after one
/// benchmark operation and `layerDelta` turns the difference into values
/// keyed by the benchmark's per-layer metric names. When the program's
/// metrics move to another source, only `LayerProbe::take` and
/// `layerDelta` change.
///
/// Additive layers partition an operation's wall time: their sum plus
/// `frontend.unattributed_ms` is `op.wall_ms` by construction. The cache
/// timers run inside the additive ones and are reported beside them, not
/// added. Worker-side timers (`core.simplify_ms`, `core.solve_ms`) are
/// summed over executors, so with more than one job the residual can go
/// negative; `frontend.cpu_over_wall` shows how far.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include "support/Stats.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace retypd {
struct TypeReport;
}

namespace perfbench {

/// Named values of one operation (or a mean over operations), in the
/// order of `perLayerNames()`.
using LayerValues = std::map<std::string, double>;

/// Every per-layer metric name the traced run prints.
const std::vector<std::string> &perLayerNames();

/// A reading of every process-wide timer and counter at one instant.
struct LayerProbe {
  std::chrono::steady_clock::time_point Wall;
  double CpuSecs = 0; ///< process user+system CPU (getrusage)
  uint64_t Allocs = 0;
  std::vector<std::pair<std::string, double>> Phases;
  retypd::CounterSnapshot Counters;

  static LayerProbe take();
};

/// Process user+system CPU seconds so far.
double processCpuSecs();

/// Time the benchmark itself measured around calls into one layer.
struct BenchSpans {
  double ParseMs = 0;     ///< AsmParser::parse
  double VerifyMs = 0;    ///< verifyModule
  double StoreOpenMs = 0; ///< AnalysisSession construction with a StoreDir
};

/// Per-layer values of the operation between \p Before and \p After.
/// \p Report is the report the operation produced (nullptr when it made
/// none); \p StoreBytes is the store's size on disk after the operation.
LayerValues layerDelta(const LayerProbe &Before, const LayerProbe &After,
                       const BenchSpans &Spans,
                       const retypd::TypeReport *Report, double StoreBytes);

/// The unit of metric \p Name (end-to-end or per-layer), from its suffix.
std::string metricUnit(const std::string &Name);

/// Adds \p V into \p Sum name by name.
void accumulate(LayerValues &Sum, const LayerValues &V);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
