//===- StatsTest.cpp - Run-scoped metrics tests ----------------------------===//
//
// Pins the PhaseTimes::snapshot() contract (sorted ascending by phase name,
// untimed phases omitted — consumers like bench_warmpath binary-search it
// instead of re-sorting), covers the CounterSnapshot take()/delta() pair
// and its one-field-per-Counter shape, and checks run scoping: a count made
// outside any run reaches the process view at once, a count made inside a
// run only when the run ends, and concurrent runs never mix.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace retypd;
using namespace std::chrono_literals;

TEST(StatsTest, SnapshotIsSortedByPhaseNameAndOmitsUntimedPhases) {
  RunMetrics &P = RunMetrics::process();
  P.reset();
  // Time deliberately out of name order; the snapshot must come back
  // sorted regardless of enum or accumulation order.
  P.addTime(Phase::ParserParse, 1s);
  P.addTime(Phase::CacheDecode, 2s);
  P.addTime(Phase::Generate, 3s);
  P.addTime(Phase::CacheDecode, 500ms); // accumulate, not duplicate

  auto Snap = PhaseTimes::snapshot();
  ASSERT_EQ(Snap.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      Snap.begin(), Snap.end(),
      [](const auto &A, const auto &B) { return A.first < B.first; }));
  EXPECT_EQ(Snap[0].first, "cache.decode");
  EXPECT_DOUBLE_EQ(Snap[0].second, 2.5);
  EXPECT_EQ(Snap[1].first, "parser.parse");
  EXPECT_EQ(Snap[2].first, "pipeline.generate");
  P.reset();
  EXPECT_TRUE(PhaseTimes::snapshot().empty());
}

TEST(StatsTest, PhaseNamesAreTheTimerNames) {
  EXPECT_STREQ(phaseName(Phase::Phase0), "pipeline.phase0");
  EXPECT_STREQ(phaseName(Phase::Simplify), "pipeline.simplify");
  EXPECT_STREQ(phaseName(Phase::StoreFlush), "store.flush");
  EXPECT_STREQ(phaseName(Phase::ParserParse), "parser.parse");
  std::vector<std::string> Names;
  for (size_t I = 0; I < kNumPhases; ++I)
    Names.push_back(phaseName(static_cast<Phase>(I)));
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(std::adjacent_find(Names.begin(), Names.end()), Names.end())
      << "two phases share a name";
}

TEST(StatsTest, CounterSnapshotDeltaIsolatesTheMeasuredRegion) {
  RunMetrics::process().reset();
  countEvent(Counter::StoreHits, 5);
  countEvent(Counter::PoolBinds, 2);

  const CounterSnapshot Before = CounterSnapshot::take();
  EXPECT_EQ(Before.StoreHits, 5u);

  // The "measured region".
  countEvent(Counter::StoreHits, 3);
  countEvent(Counter::TraceEvents, 7);
  countEvent(Counter::GenCacheMisses);

  const CounterSnapshot D = Before.delta();
  EXPECT_EQ(D.StoreHits, 3u); // pre-region hits excluded
  EXPECT_EQ(D.TraceEvents, 7u);
  EXPECT_EQ(D.GenCacheMisses, 1u);
  EXPECT_EQ(D.PoolBinds, 0u); // untouched counters delta to zero
  EXPECT_EQ(D.ConstraintParseCalls, 0u);
  EXPECT_EQ(D.VerifierChecks, 0u);
  RunMetrics::process().reset();
}

TEST(StatsTest, CounterSnapshotHasAFieldForEveryCounter) {
  // One uint64_t field per Counter, and each reads its own counter: bump
  // counter I by I + 1 and check the named field sees exactly that.
  static_assert(sizeof(CounterSnapshot) == kNumCounters * sizeof(uint64_t));
  RunMetrics::process().reset();
  for (size_t I = 0; I < kNumCounters; ++I)
    countEvent(static_cast<Counter>(I), I + 1);

  const CounterSnapshot S = CounterSnapshot::take();
#define CHECK_FIELD(Name)                                                     \
  EXPECT_EQ(S.Name, static_cast<uint64_t>(Counter::Name) + 1) << #Name;
  RETYPD_COUNTERS(CHECK_FIELD)
#undef CHECK_FIELD

  RunMetrics::process().reset();
  const CounterSnapshot Z = CounterSnapshot::take();
  EXPECT_EQ(Z.StoreCompactions, 0u);
  EXPECT_EQ(Z.TraceEvents, 0u);
}

TEST(StatsTest, RunCountsReachTheProcessViewWhenTheRunEnds) {
  RunMetrics::process().reset();
  // Outside any run: straight into the process sink.
  countEvent(Counter::SchemeDecodes);
  EXPECT_EQ(CounterSnapshot::take().SchemeDecodes, 1u);

  RunMetrics Run;
  {
    RunScope Scope(Run);
    countEvent(Counter::SchemeDecodes, 4);
    {
      ScopedPhaseTimer Timer(Phase::Solve);
    }
    // Inside the run: the run sees it, the process view does not yet.
    EXPECT_EQ(Run.counter(Counter::SchemeDecodes), 4u);
    EXPECT_EQ(CounterSnapshot::take().SchemeDecodes, 1u);
    EXPECT_EQ(RunMetrics::process().seconds(Phase::Solve), 0.0);
  }
  EXPECT_EQ(CounterSnapshot::take().SchemeDecodes, 5u);
  EXPECT_EQ(RunMetrics::process().seconds(Phase::Solve),
            Run.seconds(Phase::Solve));
  // The scope is gone: counting goes back to the process sink.
  countEvent(Counter::SchemeDecodes);
  EXPECT_EQ(CounterSnapshot::take().SchemeDecodes, 6u);
  EXPECT_EQ(Run.counter(Counter::SchemeDecodes), 4u);
  RunMetrics::process().reset();
}

TEST(StatsTest, ARunIsPublishedEvenWhenItThrows) {
  RunMetrics::process().reset();
  RunMetrics Run;
  EXPECT_THROW(
      {
        RunScope Scope(Run);
        countEvent(Counter::VerifierChecks, 2);
        throw std::runtime_error("phase failed");
      },
      std::runtime_error);
  EXPECT_EQ(CounterSnapshot::take().VerifierChecks, 2u);
  RunMetrics::process().reset();
}

TEST(StatsTest, ConcurrentRunsKeepTheirOwnCounts) {
  // Two runs, each with a worker thread counting through a MetricsScope
  // while the run's own thread counts too, as AnalysisSession::analyze()
  // does. Neither run sees the other's counts; the process view gets both.
  RunMetrics::process().reset();
  constexpr uint64_t kBumps = 2000;
  RunMetrics Runs[2];
  auto RunBody = [&](RunMetrics &Run, Counter C) {
    RunScope Scope(Run);
    std::thread Worker([&] {
      MetricsScope WorkerScope(Run);
      for (uint64_t I = 0; I < kBumps; ++I)
        countEvent(C);
    });
    for (uint64_t I = 0; I < kBumps; ++I) {
      ScopedPhaseTimer Timer(Phase::Simplify);
      countEvent(C);
    }
    Worker.join();
  };
  std::thread A(RunBody, std::ref(Runs[0]), Counter::StoreHits);
  std::thread B(RunBody, std::ref(Runs[1]), Counter::StoreAppends);
  for (uint64_t I = 0; I < kBumps; ++I)
    countEvent(Counter::PoolBindHits); // outside any run
  A.join();
  B.join();

  EXPECT_EQ(Runs[0].counter(Counter::StoreHits), 2 * kBumps);
  EXPECT_EQ(Runs[0].counter(Counter::StoreAppends), 0u);
  EXPECT_EQ(Runs[1].counter(Counter::StoreAppends), 2 * kBumps);
  EXPECT_EQ(Runs[1].counter(Counter::StoreHits), 0u);
  EXPECT_EQ(Runs[0].counter(Counter::PoolBindHits), 0u);
  const CounterSnapshot S = CounterSnapshot::take();
  EXPECT_EQ(S.StoreHits, 2 * kBumps);
  EXPECT_EQ(S.StoreAppends, 2 * kBumps);
  EXPECT_EQ(S.PoolBindHits, kBumps);
  EXPECT_DOUBLE_EQ(RunMetrics::process().seconds(Phase::Simplify),
                   Runs[0].seconds(Phase::Simplify) +
                       Runs[1].seconds(Phase::Simplify));
  RunMetrics::process().reset();
}
