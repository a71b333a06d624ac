//===- Stats.cpp - Run-scoped metrics & memory counters ------------------===//

#include "support/Stats.h"

#include <algorithm>

using namespace retypd;

std::atomic<uint64_t> MemStats::LiveBytes{0};
std::atomic<uint64_t> MemStats::PeakBytes{0};
std::atomic<uint64_t> MemStats::TotalAllocs{0};

void MemStats::resetPeak() {
  PeakBytes.store(LiveBytes.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

void MemStats::noteAlloc(size_t Size) {
  TotalAllocs.fetch_add(1, std::memory_order_relaxed);
  uint64_t Live = LiveBytes.fetch_add(Size, std::memory_order_relaxed) + Size;
  uint64_t Peak = PeakBytes.load(std::memory_order_relaxed);
  while (Live > Peak &&
         !PeakBytes.compare_exchange_weak(Peak, Live,
                                          std::memory_order_relaxed)) {
  }
}

void MemStats::noteFree(size_t Size) {
  LiveBytes.fetch_sub(Size, std::memory_order_relaxed);
}

const char *retypd::phaseName(Phase P) {
  static constexpr const char *Names[] = {
#define RETYPD_PHASE_NAME(Name, Str) Str,
      RETYPD_PHASES(RETYPD_PHASE_NAME)
#undef RETYPD_PHASE_NAME
  };
  return Names[static_cast<size_t>(P)];
}

namespace {
constinit RunMetrics ProcessSink;
thread_local RunMetrics *CurrentRun = nullptr;
} // namespace

RunMetrics &RunMetrics::process() { return ProcessSink; }

RunMetrics &RunMetrics::current() {
  return CurrentRun ? *CurrentRun : process();
}

void RunMetrics::addTo(RunMetrics &Sink) const {
  for (size_t I = 0; I < kNumCounters; ++I)
    Sink.Counts[I].fetch_add(Counts[I].load(std::memory_order_relaxed),
                             std::memory_order_relaxed);
  for (size_t I = 0; I < kNumPhases; ++I)
    Sink.Nanos[I].fetch_add(Nanos[I].load(std::memory_order_relaxed),
                            std::memory_order_relaxed);
}

void RunMetrics::reset() {
  for (auto &C : Counts)
    C.store(0, std::memory_order_relaxed);
  for (auto &N : Nanos)
    N.store(0, std::memory_order_relaxed);
}

MetricsScope::MetricsScope(RunMetrics &Run) : Prev(CurrentRun) {
  CurrentRun = &Run;
}

MetricsScope::~MetricsScope() { CurrentRun = Prev; }

CounterSnapshot CounterSnapshot::take() {
  const RunMetrics &P = RunMetrics::process();
  CounterSnapshot S;
#define RETYPD_COUNTER_TAKE(Name) S.Name = P.counter(Counter::Name);
  RETYPD_COUNTERS(RETYPD_COUNTER_TAKE)
#undef RETYPD_COUNTER_TAKE
  return S;
}

CounterSnapshot CounterSnapshot::delta() const {
  CounterSnapshot D = take();
#define RETYPD_COUNTER_DELTA(Name) D.Name -= Name;
  RETYPD_COUNTERS(RETYPD_COUNTER_DELTA)
#undef RETYPD_COUNTER_DELTA
  return D;
}

std::vector<std::pair<std::string, double>> PhaseTimes::snapshot() {
  const RunMetrics &P = RunMetrics::process();
  std::vector<std::pair<std::string, double>> Out;
  for (size_t I = 0; I < kNumPhases; ++I)
    if (double Secs = P.seconds(static_cast<Phase>(I)); Secs > 0)
      Out.emplace_back(phaseName(static_cast<Phase>(I)), Secs);
  std::sort(Out.begin(), Out.end());
  return Out;
}
