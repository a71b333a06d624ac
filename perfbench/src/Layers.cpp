//===- Layers.cpp - One adapter over the program's published metrics -------===//

#include "Layers.h"

#include "frontend/Session.h"

#include <algorithm>
#include <cstring>

#include <sys/resource.h>

namespace perfbench {

using namespace retypd;

namespace {

/// Program phase timer -> per-layer name. `Additive` timers do not nest
/// in one another, so together they partition an operation's wall time.
struct PhaseMap {
  const char *Phase;
  const char *Layer;
  bool Additive;
};

constexpr PhaseMap kPhases[] = {
    {"pipeline.phase0", "analysis.phase0_ms", true},
    {"pipeline.generate", "absint.generate_ms", true},
    {"pipeline.simplify", "core.simplify_ms", true},
    {"pipeline.solveprep", "core.solveprep_ms", true},
    {"pipeline.solve", "core.solve_ms", true},
    {"pipeline.convert", "ctypes.convert_ms", true},
    {"store.flush", "store.flush_ms", true},
    // Nested inside the timers above.
    {"cache.hash", "cache.hash_ms", false},
    {"gencache.key", "cache.genkey_ms", false},
    {"cache.encode", "cache.encode_ms", false},
    {"cache.decode", "cache.decode_ms", false},
    {"cache.poolbind", "cache.poolbind_ms", false},
};

double phaseSecs(const std::vector<std::pair<std::string, double>> &P,
                 const char *Name) {
  // PhaseTimes::snapshot() is sorted by name.
  auto It = std::lower_bound(
      P.begin(), P.end(), Name,
      [](const std::pair<std::string, double> &E, const char *N) {
        return E.first < N;
      });
  return It != P.end() && It->first == Name ? It->second : 0;
}

} // namespace

const std::vector<std::string> &perLayerNames() {
  static const std::vector<std::string> Names = {
      "op.wall_ms",
      "mir.parse_ms",
      "mir.verify_ms",
      "analysis.phase0_ms",
      "absint.generate_ms",
      "absint.constraints",
      "core.simplify_ms",
      "core.solveprep_ms",
      "core.solve_ms",
      "core.saturation_edges",
      "core.simplify_ns_per_constraint",
      "core.sccs_simplified",
      "core.sccs_reused",
      "core.sccs_solved",
      "core.sccs_refined_only",
      "core.sccs_solve_reused",
      "cache.hash_ms",
      "cache.genkey_ms",
      "cache.encode_ms",
      "cache.decode_ms",
      "cache.poolbind_ms",
      "cache.hits",
      "cache.misses",
      "cache.hit_ratio",
      "cache.gen_hits",
      "cache.gen_misses",
      "cache.parse_calls",
      "ctypes.convert_ms",
      "frontend.sccs",
      "frontend.sccs_scheduled",
      "frontend.batches",
      "frontend.max_ready_queue",
      "frontend.commit_stalls",
      "frontend.cpu_over_wall",
      "frontend.unattributed_ms",
      "store.open_ms",
      "store.flush_ms",
      "store.hits",
      "store.appends",
      "store.pool_binds",
      "store.pool_bind_hits",
      "store.segment_validates",
      "store.payload_copies",
      "store.bytes_on_disk",
      "support.allocs",
      "eval.pointer_accuracy",
      "trace.overhead_frac",
  };
  return Names;
}

double processCpuSecs() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Secs = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + T.tv_usec / 1e6;
  };
  return Secs(U.ru_utime) + Secs(U.ru_stime);
}

LayerProbe LayerProbe::take() {
  LayerProbe P;
  P.Phases = PhaseTimes::snapshot();
  P.Counters = CounterSnapshot::take();
  P.Allocs = MemStats::TotalAllocs.load(std::memory_order_relaxed);
  P.CpuSecs = processCpuSecs();
  P.Wall = std::chrono::steady_clock::now();
  return P;
}

LayerValues layerDelta(const LayerProbe &Before, const LayerProbe &After,
                       const BenchSpans &Spans, const TypeReport *Report,
                       double StoreBytes) {
  LayerValues V;
  for (const std::string &N : perLayerNames())
    V[N] = 0;

  const double WallMs =
      std::chrono::duration<double, std::milli>(After.Wall - Before.Wall)
          .count();
  V["op.wall_ms"] = WallMs;
  V["mir.parse_ms"] = Spans.ParseMs;
  V["mir.verify_ms"] = Spans.VerifyMs;
  V["store.open_ms"] = Spans.StoreOpenMs;
  double Attributed = Spans.ParseMs + Spans.VerifyMs + Spans.StoreOpenMs;
  for (const PhaseMap &P : kPhases) {
    double Ms = (phaseSecs(After.Phases, P.Phase) -
                 phaseSecs(Before.Phases, P.Phase)) *
                1e3;
    V[P.Layer] = Ms;
    if (P.Additive)
      Attributed += Ms;
  }
  V["frontend.unattributed_ms"] = WallMs - Attributed;
  V["frontend.cpu_over_wall"] =
      WallMs > 0 ? (After.CpuSecs - Before.CpuSecs) * 1e3 / WallMs : 0;
  V["support.allocs"] = static_cast<double>(After.Allocs - Before.Allocs);

  auto D = [&](uint64_t CounterSnapshot::*F) {
    return static_cast<double>(After.Counters.*F - Before.Counters.*F);
  };
  V["cache.parse_calls"] = D(&CounterSnapshot::ConstraintParseCalls);
  V["cache.gen_hits"] = D(&CounterSnapshot::GenCacheHits);
  V["cache.gen_misses"] = D(&CounterSnapshot::GenCacheMisses);
  V["store.hits"] = D(&CounterSnapshot::StoreHits);
  V["store.appends"] = D(&CounterSnapshot::StoreAppends);
  V["store.pool_binds"] = D(&CounterSnapshot::PoolBinds);
  V["store.pool_bind_hits"] = D(&CounterSnapshot::PoolBindHits);
  V["store.segment_validates"] = D(&CounterSnapshot::SegmentValidates);
  V["store.payload_copies"] = D(&CounterSnapshot::StorePayloadCopies);
  V["store.bytes_on_disk"] = StoreBytes;

  if (Report) {
    const PipelineStats &S = Report->Stats;
    V["absint.constraints"] = static_cast<double>(Report->ConstraintsGenerated);
    V["core.saturation_edges"] = static_cast<double>(Report->SaturationEdges);
    V["core.simplify_ns_per_constraint"] =
        Report->ConstraintsGenerated
            ? V["core.simplify_ms"] * 1e6 / Report->ConstraintsGenerated
            : 0;
    V["core.sccs_simplified"] = static_cast<double>(S.SccsSimplified);
    V["core.sccs_reused"] = static_cast<double>(S.SccsReused);
    V["core.sccs_solved"] = static_cast<double>(S.SccsSolved);
    V["core.sccs_refined_only"] = static_cast<double>(S.SccsRefinedOnly);
    V["core.sccs_solve_reused"] = static_cast<double>(S.SccsSolveReused);
    V["cache.hits"] = static_cast<double>(S.CacheHits);
    V["cache.misses"] = static_cast<double>(S.CacheMisses);
    V["cache.hit_ratio"] =
        S.CacheHits + S.CacheMisses
            ? static_cast<double>(S.CacheHits) / (S.CacheHits + S.CacheMisses)
            : 0;
    V["frontend.sccs"] = static_cast<double>(S.SccCount);
    V["frontend.sccs_scheduled"] = static_cast<double>(S.SccsScheduled);
    V["frontend.batches"] = static_cast<double>(S.BatchesFormed);
    V["frontend.max_ready_queue"] = static_cast<double>(S.MaxReadyQueue);
    V["frontend.commit_stalls"] = static_cast<double>(S.CommitStalls);
  }
  return V;
}

std::string metricUnit(const std::string &Name) {
  auto Ends = [&](const char *S) {
    size_t L = std::strlen(S);
    return Name.size() >= L && Name.compare(Name.size() - L, L, S) == 0;
  };
  if (Ends("_ms"))
    return "ms";
  if (Ends("_per_s"))
    return "instr/s";
  if (Ends("_s"))
    return "s";
  if (Ends("_us_per_instr"))
    return "us/instr";
  if (Ends("_ns_per_constraint"))
    return "ns/constraint";
  if (Ends("_mib"))
    return "MiB";
  if (Ends("bytes_on_disk"))
    return "bytes";
  if (Name == "type_distance")
    return "distance";
  if (Ends("_frac") || Ends("_ratio") || Ends("accuracy") ||
      Name == "conservativeness" || Name == "const_recall")
    return "share";
  if (Ends("cpu_over_wall"))
    return "cpu_s/wall_s";
  return "count";
}

void accumulate(LayerValues &Sum, const LayerValues &V) {
  for (const auto &[N, X] : V)
    Sum[N] += X;
}

} // namespace perfbench
