//===- ThreadPoolTest.cpp - Pool + SCC wavefront tests ------------------------===//
//
// Covers the work-stealing pool (completion, inline mode, nested submits,
// exception propagation, reuse across barriers), the CallGraph wavefront
// decomposition, and the commit sequences the scheduler consumes.
//
//===----------------------------------------------------------------------===//

#include "analysis/CallGraph.h"
#include "mir/AsmParser.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>

using namespace retypd;

TEST(ThreadPoolTest, RunsEveryTask) {
  ThreadPool Pool(3);
  std::atomic<int> Sum{0};
  for (int I = 1; I <= 100; ++I)
    Pool.submit([&Sum, I] { Sum.fetch_add(I); });
  Pool.waitAll();
  EXPECT_EQ(Sum.load(), 5050);
}

TEST(ThreadPoolTest, ZeroWorkersRunsInline) {
  ThreadPool Pool(0);
  EXPECT_EQ(Pool.numWorkers(), 0u);
  int Calls = 0;
  std::thread::id Runner;
  Pool.submit([&] {
    ++Calls;
    Runner = std::this_thread::get_id();
  });
  Pool.waitAll();
  EXPECT_EQ(Calls, 1);
  EXPECT_EQ(Runner, std::this_thread::get_id());
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  for (unsigned Workers : {0u, 2u}) {
    ThreadPool Pool(Workers);
    std::atomic<int> Count{0};
    Pool.submit([&] {
      ++Count;
      for (int I = 0; I < 10; ++I)
        Pool.submit([&] {
          ++Count;
          Pool.submit([&] { ++Count; });
        });
    });
    Pool.waitAll();
    EXPECT_EQ(Count.load(), 21) << Workers << " workers";
  }
}

TEST(ThreadPoolTest, WaitAllRethrowsTaskException) {
  ThreadPool Pool(2);
  for (int I = 0; I < 4; ++I)
    Pool.submit([] {});
  Pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Pool.waitAll(), std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> After{0};
  Pool.submit([&] { ++After; });
  Pool.waitAll();
  EXPECT_EQ(After.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossBarriers) {
  ThreadPool Pool(2);
  std::atomic<int> Total{0};
  for (int Wave = 0; Wave < 20; ++Wave) {
    for (int I = 0; I < 8; ++I)
      Pool.submit([&] { ++Total; });
    Pool.waitAll();
    EXPECT_EQ(Total.load(), (Wave + 1) * 8);
  }
}

TEST(ThreadPoolTest, TryRunOneDrainsQueuedTasks) {
  ThreadPool Pool(0);
  std::atomic<int> Count{0};
  for (int I = 0; I < 5; ++I)
    Pool.submit([&] { ++Count; });
  int Ran = 0;
  while (Pool.tryRunOne())
    ++Ran;
  EXPECT_EQ(Ran, 5);
  EXPECT_EQ(Count.load(), 5);
  EXPECT_FALSE(Pool.tryRunOne()); // queues empty now
  // Exceptions from tryRunOne-executed tasks surface at the next waitAll,
  // exactly like worker-side ones.
  Pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_TRUE(Pool.tryRunOne());
  EXPECT_THROW(Pool.waitAll(), std::runtime_error);
}

TEST(ThreadPoolTest, SubmitWakesAtMostOneWorker) {
  // Submitting a single task into a fully idle pool must wake exactly one
  // worker, not broadcast to all of them. Run many one-task rounds from a
  // known-idle state and assert total worker wakeups stay proportional to
  // submissions (a thundering-herd pool would show ~Workers x Rounds).
  constexpr unsigned kWorkers = 4;
  constexpr int kRounds = 100;
  ThreadPool Pool(kWorkers);
  auto waitAllIdle = [&] {
    while (Pool.idleWorkers() < kWorkers)
      std::this_thread::yield();
  };
  waitAllIdle();
  uint64_t Wakeups0 = Pool.workerWakeups();
  for (int I = 0; I < kRounds; ++I) {
    std::atomic<int> Ran{0};
    Pool.submit([&] { ++Ran; });
    Pool.waitAll();
    EXPECT_EQ(Ran.load(), 1);
    waitAllIdle();
  }
  uint64_t Woken = Pool.workerWakeups() - Wakeups0;
  // One targeted wakeup per round, plus slack for OS-level spurious
  // wakeups. The herd behavior this guards against would be ~400.
  EXPECT_LE(Woken, static_cast<uint64_t>(kRounds) + 20);
}

namespace {

Module parseModule(const std::string &Text) {
  AsmParser P;
  auto M = P.parse(Text);
  EXPECT_TRUE(M.has_value()) << P.error();
  return M ? *M : Module();
}

} // namespace

TEST(ThreadPoolTest, WavefrontRespectsCallDependencies) {
  // root -> {left, right} -> leaf, plus a mutually recursive pair
  // {ping, pong} called from left.
  Module M = parseModule(R"(
fn leaf:
  ret
fn left:
  call leaf
  call ping
  ret
fn right:
  call leaf
  ret
fn root:
  call left
  call right
  ret
fn ping:
  call pong
  ret
fn pong:
  call ping
  ret
)");
  CallGraph CG(M);

  const auto &Waves = CG.bottomUpWaves();
  ASSERT_GE(Waves.size(), 3u);

  // Every SCC appears exactly once across the waves.
  std::set<uint32_t> Seen;
  size_t Count = 0;
  for (const auto &W : Waves)
    for (uint32_t S : W) {
      Seen.insert(S);
      ++Count;
    }
  EXPECT_EQ(Count, CG.sccs().size());
  EXPECT_EQ(Seen.size(), CG.sccs().size());

  // Callee SCCs are always in a strictly earlier wave.
  std::vector<size_t> WaveOf(CG.sccs().size());
  for (size_t WI = 0; WI < Waves.size(); ++WI)
    for (uint32_t S : Waves[WI])
      WaveOf[S] = WI;
  for (uint32_t S = 0; S < CG.sccs().size(); ++S)
    for (uint32_t T : CG.sccCallees(S))
      EXPECT_LT(WaveOf[T], WaveOf[S]) << "SCC " << S << " -> " << T;

  // The mutually recursive pair condenses into one SCC of two members.
  uint32_t PingScc = CG.sccOf(*M.findFunction("ping"));
  EXPECT_EQ(PingScc, CG.sccOf(*M.findFunction("pong")));
  EXPECT_EQ(CG.sccs()[PingScc].size(), 2u);

  // left and right are independent (same wave, distinct SCCs) — the
  // parallelism the pipeline exploits.
  uint32_t L = CG.sccOf(*M.findFunction("left"));
  uint32_t R = CG.sccOf(*M.findFunction("right"));
  EXPECT_NE(L, R);
  EXPECT_LT(WaveOf[CG.sccOf(*M.findFunction("leaf"))], WaveOf[L]);

  // The two commit sequences the scheduler consumes: each lists every SCC
  // exactly once, bottomUpOrder() puts callees strictly before callers and
  // topDownOrder() callers strictly before callees.
  const std::vector<uint32_t> &Up = CG.bottomUpOrder();
  const std::vector<uint32_t> &Down = CG.topDownOrder();
  for (const std::vector<uint32_t> *Seq : {&Up, &Down}) {
    ASSERT_EQ(Seq->size(), CG.sccs().size());
    EXPECT_EQ(std::set<uint32_t>(Seq->begin(), Seq->end()).size(),
              CG.sccs().size());
  }
  std::vector<size_t> UpPos(CG.sccs().size()), DownPos(CG.sccs().size());
  for (size_t I = 0; I < Up.size(); ++I) {
    UpPos[Up[I]] = I;
    DownPos[Down[I]] = I;
  }
  for (uint32_t S = 0; S < CG.sccs().size(); ++S)
    for (uint32_t T : CG.sccCallees(S)) {
      EXPECT_LT(UpPos[T], UpPos[S]) << "SCC " << S << " -> " << T;
      EXPECT_LT(DownPos[S], DownPos[T]) << "SCC " << S << " -> " << T;
    }

  // topDownOrder() is the reverse-wave concatenation (not the element-wise
  // reverse of bottomUpOrder()): the order callsite sketches reach the
  // refinement accumulators in.
  std::vector<uint32_t> ReverseWaves;
  for (auto W = Waves.rbegin(); W != Waves.rend(); ++W)
    ReverseWaves.insert(ReverseWaves.end(), W->begin(), W->end());
  EXPECT_EQ(Down, ReverseWaves);
}

TEST(ThreadPoolTest, WavefrontOrderIsDeterministic) {
  Module M = parseModule(R"(
fn a:
  call c
  ret
fn b:
  call c
  ret
fn c:
  ret
fn main:
  call a
  call b
  ret
)");
  CallGraph G1(M), G2(M);
  EXPECT_EQ(G1.bottomUpWaves(), G2.bottomUpWaves());
}
