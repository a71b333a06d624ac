//===- DagScheduler.h - Readiness scheduler over a DAG ---------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one readiness scheduler both inference phases run on. Every node
/// owns a commit slot at its position in a commit sequence (a topological
/// order of the dependency edges). The moment its last dependency commits,
/// a node is handed to `prep` on the calling thread, which marks it
/// Trivial or Replay (published at once, nothing pooled) or Compute with a
/// cost. Compute nodes run `compute` on the thread pool; ready nodes whose
/// cost is below the tiny-batch threshold share work units (up to 64).
/// `commit` runs on the calling thread strictly in sequence order, so every
/// order-sensitive effect is serialized identically for any worker count,
/// and releases the nodes on the committed node's release edges. Between
/// commits the calling thread preps, flushes tiny batches and runs queued
/// units; it sleeps only while the next slot is in flight on a worker.
///
/// Errors: the first exception from `compute` stops the run — no later
/// slot commits, no further `compute` starts — and run() rethrows it. An
/// exception from `prep` or `commit` stops the run the same way. Either
/// way run() drains the pool before the exception leaves it, so no work
/// unit outlives the state it writes.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_SUPPORT_DAGSCHEDULER_H
#define RETYPD_SUPPORT_DAGSCHEDULER_H

#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <utility>
#include <vector>

namespace retypd {

/// How `prep` classified a ready node.
enum class DagNodeKind : uint8_t { Trivial, Replay, Compute };

/// `prep`'s verdict. \c Cost only matters for Compute nodes.
struct DagPrep {
  DagNodeKind Kind = DagNodeKind::Trivial;
  size_t Cost = 0;
};

/// The scheduler counters of one run (see README "Execution model").
struct DagSchedulerStats {
  uint64_t Scheduled = 0;     ///< Compute nodes dispatched to the pool
  uint64_t Batches = 0;       ///< work units submitted
  uint64_t MaxReadyQueue = 0; ///< ready-but-unprepped high-water mark
  uint64_t CommitStalls = 0;  ///< slots published out of sequence order
};

class DagScheduler {
public:
  /// A node's dependencies (counted) or the nodes its commit releases
  /// (notified); Release must be the reverse of Deps.
  using Adjacency = std::function<const std::vector<uint32_t> &(uint32_t)>;
  using PrepFn = std::function<DagPrep(uint32_t)>;
  using ComputeFn = std::function<void(uint32_t)>;
  using CommitFn = std::function<void(uint32_t, DagNodeKind)>;

  /// Nodes are 0..Seq.size()-1 and \p Seq lists each exactly once.
  /// \p TinyMax 0 disables batching.
  DagScheduler(ThreadPool &Pool, const std::vector<uint32_t> &Seq,
               Adjacency Deps, Adjacency Release, unsigned TinyMax)
      : Pool(Pool), Seq(Seq), Deps(std::move(Deps)),
        Release(std::move(Release)), TinyMax(TinyMax) {}

  /// Runs every node to commit. Emits a "commit" trace instant per
  /// committed node and a "commit-stall" instant per stall.
  DagSchedulerStats run(const PrepFn &Prep, const ComputeFn &Compute,
                        const CommitFn &Commit) {
    const size_t N = Seq.size();
    DagSchedulerStats Stats;
    std::vector<uint32_t> SeqOf(N), DepCount(N);
    for (uint32_t I = 0; I < N; ++I) {
      SeqOf[Seq[I]] = I;
      DepCount[I] = static_cast<uint32_t>(Deps(I).size());
    }
    std::vector<DagNodeKind> Kind(N, DagNodeKind::Trivial);
    // Slot states are published by whoever finished the node; everything
    // else here (DepCount, the ready queue) is the drainer's alone.
    std::vector<std::atomic<uint8_t>> Done(N);
    std::atomic<size_t> NextCommit{0};
    std::atomic<uint64_t> Stalls{0};
    std::atomic<bool> Stop{false};
    std::mutex Mu;
    std::condition_variable Cv;
    std::exception_ptr Err; // guarded by Mu

    // FIFO ready queue in deterministic commit-discovery order.
    std::vector<uint32_t> ReadyQ;
    size_t ReadyHead = 0;
    auto pushReady = [&](uint32_t Node) {
      ReadyQ.push_back(Node);
      Stats.MaxReadyQueue =
          std::max<uint64_t>(Stats.MaxReadyQueue, ReadyQ.size() - ReadyHead);
    };
    for (uint32_t Node : Seq)
      if (DepCount[Node] == 0)
        pushReady(Node);

    auto submitUnit = [&](std::vector<uint32_t> Unit) {
      ++Stats.Batches;
      Pool.submit([&, Unit = std::move(Unit)] {
        for (uint32_t Node : Unit) {
          uint8_t State = Failed;
          if (!Stop.load(std::memory_order_relaxed)) {
            try {
              Compute(Node);
              State = Published;
            } catch (...) {
              std::lock_guard<std::mutex> Lock(Mu);
              if (!Err)
                Err = std::current_exception();
              Stop.store(true, std::memory_order_relaxed);
            }
          }
          if (SeqOf[Node] != NextCommit.load(std::memory_order_relaxed)) {
            Stalls.fetch_add(1, std::memory_order_relaxed);
            trace::instant("commit-stall", "sched", 1, Node);
          }
          Done[Node].store(State, std::memory_order_release);
        }
        // Lock-then-notify so a publish cannot slip between the drainer's
        // predicate check and its wait.
        { std::lock_guard<std::mutex> Lock(Mu); }
        Cv.notify_one();
      });
    };
    std::vector<uint32_t> TinyBatch;
    auto flushTiny = [&] {
      if (!TinyBatch.empty())
        submitUnit(std::exchange(TinyBatch, {}));
    };
    auto prep = [&](uint32_t Node) {
      DagPrep P = Prep(Node);
      Kind[Node] = P.Kind;
      if (P.Kind != DagNodeKind::Compute) {
        Done[Node].store(Published, std::memory_order_release);
        return;
      }
      ++Stats.Scheduled;
      if (TinyMax != 0 && P.Cost < TinyMax) {
        TinyBatch.push_back(Node);
        if (TinyBatch.size() >= kMaxBatch)
          flushTiny();
      } else {
        submitUnit({Node});
      }
    };

    // The drainer. Priorities: commit (it releases dependents), prep (it
    // feeds the pool), flush a tiny batch, help the pool, and only then
    // sleep until the next slot is published.
    try {
      for (size_t Next = 0; Next < N;) {
        uint32_t Node = Seq[Next];
        uint8_t State = Done[Node].load(std::memory_order_acquire);
        if (State == Failed || Stop.load(std::memory_order_relaxed))
          break;
        if (State == Published) {
          Commit(Node, Kind[Node]);
          trace::instant("commit", "sched", -1, Node);
          NextCommit.store(++Next, std::memory_order_relaxed);
          for (uint32_t R : Release(Node))
            if (--DepCount[R] == 0)
              pushReady(R);
        } else if (ReadyHead < ReadyQ.size()) {
          prep(ReadyQ[ReadyHead++]);
        } else if (!TinyBatch.empty()) {
          flushTiny();
        } else if (!Pool.tryRunOne()) {
          std::unique_lock<std::mutex> Lock(Mu);
          Cv.wait(Lock, [&] {
            return Done[Node].load(std::memory_order_acquire) != Pending ||
                   Stop.load(std::memory_order_relaxed);
          });
        }
      }
    } catch (...) {
      // Queued units skip their computes; none outlives the slots above.
      Stop.store(true, std::memory_order_relaxed);
      Pool.waitAll();
      throw;
    }
    // Teardown join, not a barrier: normally every slot has committed and
    // this only waits out the units' final bookkeeping.
    Pool.waitAll();
    Stats.CommitStalls = Stalls.load(std::memory_order_relaxed);
    if (Err)
      std::rethrow_exception(Err);
    return Stats;
  }

private:
  static constexpr size_t kMaxBatch = 64;
  enum : uint8_t { Pending = 0, Published, Failed };

  ThreadPool &Pool;
  const std::vector<uint32_t> &Seq;
  Adjacency Deps, Release;
  unsigned TinyMax;
};

} // namespace retypd

#endif // RETYPD_SUPPORT_DAGSCHEDULER_H
