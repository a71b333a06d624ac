//===- Stats.cpp - Lightweight statistics & memory counters --------------===//

#include "support/Stats.h"

#include <functional>
#include <map>
#include <mutex>
#include <string_view>

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

std::atomic<uint64_t> EventCounters::ConstraintParseCalls{0};
std::atomic<uint64_t> EventCounters::SchemeDecodes{0};
std::atomic<uint64_t> EventCounters::SchemeEncodes{0};
std::atomic<uint64_t> EventCounters::GenCacheHits{0};
std::atomic<uint64_t> EventCounters::GenCacheMisses{0};
std::atomic<uint64_t> EventCounters::StoreHits{0};
std::atomic<uint64_t> EventCounters::StoreAppends{0};
std::atomic<uint64_t> EventCounters::StoreCompactions{0};
std::atomic<uint64_t> EventCounters::StorePayloadCopies{0};
std::atomic<uint64_t> EventCounters::SegmentValidates{0};
std::atomic<uint64_t> EventCounters::PoolBinds{0};
std::atomic<uint64_t> EventCounters::PoolBindHits{0};
std::atomic<uint64_t> EventCounters::VerifierChecks{0};
std::atomic<uint64_t> EventCounters::TraceEvents{0};

void EventCounters::reset() {
  ConstraintParseCalls.store(0, std::memory_order_relaxed);
  SchemeDecodes.store(0, std::memory_order_relaxed);
  SchemeEncodes.store(0, std::memory_order_relaxed);
  GenCacheHits.store(0, std::memory_order_relaxed);
  GenCacheMisses.store(0, std::memory_order_relaxed);
  StoreHits.store(0, std::memory_order_relaxed);
  StoreAppends.store(0, std::memory_order_relaxed);
  StoreCompactions.store(0, std::memory_order_relaxed);
  StorePayloadCopies.store(0, std::memory_order_relaxed);
  SegmentValidates.store(0, std::memory_order_relaxed);
  PoolBinds.store(0, std::memory_order_relaxed);
  PoolBindHits.store(0, std::memory_order_relaxed);
  VerifierChecks.store(0, std::memory_order_relaxed);
  TraceEvents.store(0, std::memory_order_relaxed);
}

CounterSnapshot CounterSnapshot::take() {
  CounterSnapshot S;
  S.ConstraintParseCalls =
      EventCounters::ConstraintParseCalls.load(std::memory_order_relaxed);
  S.SchemeDecodes =
      EventCounters::SchemeDecodes.load(std::memory_order_relaxed);
  S.SchemeEncodes =
      EventCounters::SchemeEncodes.load(std::memory_order_relaxed);
  S.GenCacheHits = EventCounters::GenCacheHits.load(std::memory_order_relaxed);
  S.GenCacheMisses =
      EventCounters::GenCacheMisses.load(std::memory_order_relaxed);
  S.StoreHits = EventCounters::StoreHits.load(std::memory_order_relaxed);
  S.StoreAppends = EventCounters::StoreAppends.load(std::memory_order_relaxed);
  S.StoreCompactions =
      EventCounters::StoreCompactions.load(std::memory_order_relaxed);
  S.StorePayloadCopies =
      EventCounters::StorePayloadCopies.load(std::memory_order_relaxed);
  S.SegmentValidates =
      EventCounters::SegmentValidates.load(std::memory_order_relaxed);
  S.PoolBinds = EventCounters::PoolBinds.load(std::memory_order_relaxed);
  S.PoolBindHits = EventCounters::PoolBindHits.load(std::memory_order_relaxed);
  S.VerifierChecks =
      EventCounters::VerifierChecks.load(std::memory_order_relaxed);
  S.TraceEvents = EventCounters::TraceEvents.load(std::memory_order_relaxed);
  return S;
}

CounterSnapshot CounterSnapshot::delta() const {
  CounterSnapshot Now = take();
  CounterSnapshot D;
  D.ConstraintParseCalls = Now.ConstraintParseCalls - ConstraintParseCalls;
  D.SchemeDecodes = Now.SchemeDecodes - SchemeDecodes;
  D.SchemeEncodes = Now.SchemeEncodes - SchemeEncodes;
  D.GenCacheHits = Now.GenCacheHits - GenCacheHits;
  D.GenCacheMisses = Now.GenCacheMisses - GenCacheMisses;
  D.StoreHits = Now.StoreHits - StoreHits;
  D.StoreAppends = Now.StoreAppends - StoreAppends;
  D.StoreCompactions = Now.StoreCompactions - StoreCompactions;
  D.StorePayloadCopies = Now.StorePayloadCopies - StorePayloadCopies;
  D.SegmentValidates = Now.SegmentValidates - SegmentValidates;
  D.PoolBinds = Now.PoolBinds - PoolBinds;
  D.PoolBindHits = Now.PoolBindHits - PoolBindHits;
  D.VerifierChecks = Now.VerifierChecks - VerifierChecks;
  D.TraceEvents = Now.TraceEvents - TraceEvents;
  return D;
}

namespace {

struct PhaseRegistry {
  std::mutex Mutex;
  // Transparent comparator: add() probes with the caller's const char*,
  // so only a phase's first use builds a std::string key.
  std::map<std::string, double, std::less<>> Seconds;

  static PhaseRegistry &get() {
    static PhaseRegistry R;
    return R;
  }
};

} // namespace

void PhaseTimes::add(const char *Phase, double Seconds) {
  PhaseRegistry &R = PhaseRegistry::get();
  std::string_view Name(Phase);
  std::lock_guard<std::mutex> Lock(R.Mutex);
  auto It = R.Seconds.find(Name);
  if (It == R.Seconds.end())
    It = R.Seconds.emplace(std::string(Name), 0.0).first;
  It->second += Seconds;
}

std::vector<std::pair<std::string, double>> PhaseTimes::snapshot() {
  PhaseRegistry &R = PhaseRegistry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  return {R.Seconds.begin(), R.Seconds.end()};
}

void PhaseTimes::reset() {
  PhaseRegistry &R = PhaseRegistry::get();
  std::lock_guard<std::mutex> Lock(R.Mutex);
  R.Seconds.clear();
}
