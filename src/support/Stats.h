//===- Stats.h - Run-scoped metrics & memory counters ---------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One metrics source: event counters (`Counter`) and wall-clock phase
/// timers (`Phase`) in a `RunMetrics` per run. `AnalysisSession::analyze()`
/// installs its run with a `RunScope` and every worker task with a
/// `MetricsScope`, so concurrent sessions never see each other's figures.
/// Counts made outside any run go to the process sink, which a run joins
/// when it ends; `PhaseTimes::snapshot()`, `CounterSnapshot` and `MemStats`
/// are the process-wide views the benchmarks read. The memory counters are
/// driven by operator new/delete hooks linked only into benchmark binaries
/// (bench/MemHooks.cpp); elsewhere they stay at zero.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_SUPPORT_STATS_H
#define RETYPD_SUPPORT_STATS_H

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace retypd {

/// Global allocation counters. Updated by the benchmark-only operator
/// new/delete hooks; read by the Figure 12 harness.
struct MemStats {
  static std::atomic<uint64_t> LiveBytes;
  static std::atomic<uint64_t> PeakBytes;
  static std::atomic<uint64_t> TotalAllocs;

  /// Resets the peak to the current live size. Call before a measured phase.
  static void resetPeak();

  /// Records an allocation of \p Size bytes.
  static void noteAlloc(size_t Size);

  /// Records a deallocation of \p Size bytes.
  static void noteFree(size_t Size);
};

/// Every event counter, in `Counter` order. The zero pins are asserted by
/// tests and the benchmark gates (bench_warmpath, bench_store).
#define RETYPD_COUNTERS(X)                                                    \
  X(ConstraintParseCalls) /* 0 on warm runs (codec replay) */                 \
  X(SchemeDecodes)        /* binary payload decodes */                        \
  X(SchemeEncodes)        /* binary payload encodes */                        \
  X(GenCacheHits)         /* SummaryCache::lookupGen(Meta) */                 \
  X(GenCacheMisses)       /* 0 on a fully warm run */                         \
  X(StoreHits)            /* probes served from the store */                  \
  X(StoreAppends)         /* records journaled */                             \
  X(StoreCompactions)                                                         \
  X(StorePayloadCopies)   /* 0 on the mmap read path */                       \
  X(SegmentValidates)     /* records validated at open */                     \
  X(PoolBinds)            /* pool names interned */                           \
  X(PoolBindHits)         /* decodes via the pool table */                    \
  X(VerifierChecks)       /* 0 with --verify=off */                           \
  X(TraceEvents)          /* 0 with tracing off */

/// Every phase timer and its published name, in `Phase` order. The
/// `pipeline.*` and `store.flush` timers do not nest in one another; the
/// `cache.*`, `gencache.key` and `parser.parse` timers run inside them.
#define RETYPD_PHASES(X)                                                      \
  X(Phase0, "pipeline.phase0")                                                \
  X(Generate, "pipeline.generate")                                            \
  X(Simplify, "pipeline.simplify")                                            \
  X(SolvePrep, "pipeline.solveprep")                                          \
  X(Solve, "pipeline.solve")                                                  \
  X(Convert, "pipeline.convert")                                              \
  X(StoreFlush, "store.flush")                                                \
  X(CacheHash, "cache.hash")                                                  \
  X(GenCacheKey, "gencache.key")                                              \
  X(CacheEncode, "cache.encode")                                              \
  X(CacheDecode, "cache.decode")                                              \
  X(CachePoolBind, "cache.poolbind")                                          \
  X(ParserParse, "parser.parse")

enum class Counter : unsigned {
#define RETYPD_COUNTER_ENUM(Name) Name,
  RETYPD_COUNTERS(RETYPD_COUNTER_ENUM)
#undef RETYPD_COUNTER_ENUM
};

enum class Phase : unsigned {
#define RETYPD_PHASE_ENUM(Name, Str) Name,
  RETYPD_PHASES(RETYPD_PHASE_ENUM)
#undef RETYPD_PHASE_ENUM
};

#define RETYPD_COUNT_ONE(...) +1
constexpr size_t kNumCounters = 0 RETYPD_COUNTERS(RETYPD_COUNT_ONE);
constexpr size_t kNumPhases = 0 RETYPD_PHASES(RETYPD_COUNT_ONE);
#undef RETYPD_COUNT_ONE

/// The published name of \p P ("pipeline.simplify", ...).
const char *phaseName(Phase P);

/// The counters and phase timers of one run (or of the whole process), as
/// relaxed atomics indexed by the enums. Worker threads add concurrently,
/// so a phase's total is wall time summed over threads and can exceed the
/// elapsed wall time.
class RunMetrics {
public:
  void count(Counter C, uint64_t N = 1) {
    Counts[static_cast<size_t>(C)].fetch_add(N, std::memory_order_relaxed);
  }
  void addTime(Phase P, std::chrono::nanoseconds D) {
    Nanos[static_cast<size_t>(P)].fetch_add(static_cast<uint64_t>(D.count()),
                                            std::memory_order_relaxed);
  }
  uint64_t counter(Counter C) const {
    return Counts[static_cast<size_t>(C)].load(std::memory_order_relaxed);
  }
  double seconds(Phase P) const {
    return static_cast<double>(
               Nanos[static_cast<size_t>(P)].load(std::memory_order_relaxed)) *
           1e-9;
  }

  /// Adds every total of this run into \p Sink.
  void addTo(RunMetrics &Sink) const;
  /// Zeroes every counter and timer. Call between measured runs.
  void reset();

  /// The process sink: counts made outside any run, plus the totals of
  /// every run that has ended.
  static RunMetrics &process();
  /// Where the calling thread's counts go: the innermost scope's run, or
  /// the process sink outside any scope.
  static RunMetrics &current();

private:
  std::array<std::atomic<uint64_t>, kNumCounters> Counts{};
  std::array<std::atomic<uint64_t>, kNumPhases> Nanos{};
};

/// Bumps \p C by \p N in the calling thread's current run.
inline void countEvent(Counter C, uint64_t N = 1) {
  RunMetrics::current().count(C, N);
}

/// Routes the calling thread's counts and timers to \p Run until the scope
/// ends, then restores the previous target. Scopes nest.
class MetricsScope {
public:
  explicit MetricsScope(RunMetrics &Run);
  ~MetricsScope();
  MetricsScope(const MetricsScope &) = delete;
  MetricsScope &operator=(const MetricsScope &) = delete;

private:
  RunMetrics *Prev;
};

/// The scope of one whole run: a MetricsScope that, when it ends (also by
/// exception), adds the run's totals into the process sink. Worker tasks
/// of the run use plain MetricsScopes, so the run is published once.
class RunScope : public MetricsScope {
public:
  explicit RunScope(RunMetrics &Run) : MetricsScope(Run), Run(Run) {}
  ~RunScope() { Run.addTo(RunMetrics::process()); }

private:
  RunMetrics &Run;
};

/// Point-in-time copy of the process sink's counters, one named field per
/// `Counter`: take() one snapshot before a measured region, then delta()
/// against the process sink afterwards.
struct CounterSnapshot {
#define RETYPD_COUNTER_FIELD(Name) uint64_t Name = 0;
  RETYPD_COUNTERS(RETYPD_COUNTER_FIELD)
#undef RETYPD_COUNTER_FIELD

  /// Copies the process sink's counters (relaxed loads).
  static CounterSnapshot take();

  /// Member-wise (process sink now) - (this snapshot). Call on the
  /// snapshot taken BEFORE the measured region.
  CounterSnapshot delta() const;
};

/// Process-wide view of the phase timers.
struct PhaseTimes {
  /// (phase name, accumulated seconds) of the process sink. CONTRACT: the
  /// result is sorted ascending by phase name and omits phases that never
  /// accumulated time, so consumers must NOT re-sort it —
  /// tests/support/StatsTest.cpp pins this.
  static std::vector<std::pair<std::string, double>> snapshot();
};

/// RAII helper: accumulates its lifetime onto phase \p P of the run that
/// was current when it started.
class ScopedPhaseTimer {
public:
  explicit ScopedPhaseTimer(Phase P)
      : Sink(RunMetrics::current()), P(P),
        Start(std::chrono::steady_clock::now()) {}
  ~ScopedPhaseTimer() {
    Sink.addTime(P, std::chrono::steady_clock::now() - Start);
  }
  ScopedPhaseTimer(const ScopedPhaseTimer &) = delete;
  ScopedPhaseTimer &operator=(const ScopedPhaseTimer &) = delete;

private:
  RunMetrics &Sink;
  Phase P;
  std::chrono::steady_clock::time_point Start;
};

} // namespace retypd

#endif // RETYPD_SUPPORT_STATS_H
