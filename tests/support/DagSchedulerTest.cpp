//===- DagSchedulerTest.cpp - The readiness scheduler on its own ----------===//
//
// Drives support/DagScheduler with synthetic DAGs, independent of the
// analysis: random DAGs at 0, 1 and 3 workers and at several tiny-batch
// thresholds (commit order equals the sequence, prep runs only after every
// dependency committed, every compute node computes exactly once before it
// commits), the error protocol (a worker exception is rethrown once and
// stops commits; a main-thread exception drains the pool before it leaves
// run()), and one "commit" trace instant per node.
//
//===----------------------------------------------------------------------===//

#include "support/DagScheduler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>

using namespace retypd;

namespace {

/// A DAG over nodes 0..N-1 with a commit sequence that is one of its
/// topological orders. Deps are counted, Release is their reverse.
struct Dag {
  std::vector<uint32_t> Seq;
  std::vector<std::vector<uint32_t>> Deps, Release;

  size_t size() const { return Seq.size(); }
  DagScheduler::Adjacency deps() const {
    return [this](uint32_t N) -> const std::vector<uint32_t> & {
      return Deps[N];
    };
  }
  DagScheduler::Adjacency release() const {
    return [this](uint32_t N) -> const std::vector<uint32_t> & {
      return Release[N];
    };
  }
};

/// Random DAG: node Seq[K] depends on a few distinct earlier nodes.
Dag randomDag(uint32_t N, unsigned Seed) {
  std::mt19937 Rng(Seed);
  Dag G;
  G.Seq.resize(N);
  std::iota(G.Seq.begin(), G.Seq.end(), 0u);
  std::shuffle(G.Seq.begin(), G.Seq.end(), Rng);
  G.Deps.resize(N);
  G.Release.resize(N);
  for (uint32_t K = 1; K < N; ++K) {
    std::vector<uint32_t> &D = G.Deps[G.Seq[K]];
    for (unsigned E = Rng() % 4; E > 0; --E) {
      uint32_t Dep = G.Seq[Rng() % K];
      if (std::find(D.begin(), D.end(), Dep) == D.end()) {
        D.push_back(Dep);
        G.Release[Dep].push_back(G.Seq[K]);
      }
    }
  }
  return G;
}

/// N nodes with no edges, committed in id order.
Dag independentDag(uint32_t N) {
  Dag G;
  G.Seq.resize(N);
  std::iota(G.Seq.begin(), G.Seq.end(), 0u);
  G.Deps.resize(N);
  G.Release.resize(N);
  return G;
}

DagPrep compute(size_t Cost) { return {DagNodeKind::Compute, Cost}; }

} // namespace

TEST(DagSchedulerTest, RandomDagsCommitInSequenceAfterDependencies) {
  for (unsigned Seed = 1; Seed <= 6; ++Seed) {
    Dag G = randomDag(150, Seed);
    const size_t N = G.size();
    for (unsigned Workers : {0u, 1u, 3u}) {
      for (unsigned TinyMax : {0u, 64u, 1u << 20}) {
        SCOPED_TRACE("seed " + std::to_string(Seed) + " workers " +
                     std::to_string(Workers) + " tiny " +
                     std::to_string(TinyMax));
        ThreadPool Pool(Workers);
        std::mt19937 Rng(Seed * 31 + Workers);
        std::vector<char> Prepped(N, 0), Committed(N, 0);
        std::vector<DagNodeKind> KindOf(N);
        std::vector<std::atomic<int>> Computed(N);
        std::vector<uint32_t> Order;
        size_t ComputeNodes = 0;

        auto Prep = [&](uint32_t Node) {
          EXPECT_FALSE(Prepped[Node]) << "prepped twice: " << Node;
          for (uint32_t D : G.Deps[Node])
            EXPECT_TRUE(Committed[D])
                << "prep of " << Node << " before dependency " << D;
          Prepped[Node] = 1;
          KindOf[Node] = static_cast<DagNodeKind>(Rng() % 3);
          if (KindOf[Node] != DagNodeKind::Compute)
            return DagPrep{KindOf[Node]};
          ++ComputeNodes;
          return compute(Rng() % 128);
        };
        auto Compute = [&](uint32_t Node) {
          EXPECT_TRUE(Prepped[Node]);
          Computed[Node].fetch_add(1);
        };
        auto Commit = [&](uint32_t Node, DagNodeKind K) {
          EXPECT_EQ(K, KindOf[Node]);
          EXPECT_EQ(Computed[Node].load(), K == DagNodeKind::Compute ? 1 : 0)
              << "node " << Node;
          Committed[Node] = 1;
          Order.push_back(Node);
        };
        DagScheduler Sched(Pool, G.Seq, G.deps(), G.release(), TinyMax);
        DagSchedulerStats St = Sched.run(Prep, Compute, Commit);

        EXPECT_EQ(Order, G.Seq);
        EXPECT_EQ(St.Scheduled, ComputeNodes);
        EXPECT_LE(St.Batches, St.Scheduled);
        if (TinyMax == 0) {
          EXPECT_EQ(St.Batches, St.Scheduled);
        }
        EXPECT_GE(St.MaxReadyQueue, 1u);
        EXPECT_LE(St.CommitStalls, St.Scheduled);
      }
    }
  }
}

TEST(DagSchedulerTest, TinyNodesShareWorkUnits) {
  Dag G = independentDag(200);
  auto Prep = [](uint32_t) { return compute(10); };
  auto Compute = [](uint32_t) {};
  auto Commit = [](uint32_t, DagNodeKind) {};
  for (unsigned TinyMax : {0u, 64u, 1u << 20}) {
    ThreadPool Pool(0);
    DagScheduler Sched(Pool, G.Seq, G.deps(), G.release(), TinyMax);
    DagSchedulerStats St = Sched.run(Prep, Compute, Commit);
    EXPECT_EQ(St.Scheduled, 200u);
    // Every node is ready up front and nothing runs before the ready queue
    // is drained, so batches fill to their 64-node cap.
    EXPECT_EQ(St.Batches, TinyMax == 0 ? 200u : 4u) << "tiny " << TinyMax;
    EXPECT_EQ(St.MaxReadyQueue, 200u);
  }
}

TEST(DagSchedulerTest, FirstWorkerExceptionRethrownOnce) {
  Dag G = randomDag(120, 7);
  for (unsigned Workers : {0u, 1u, 3u}) {
    SCOPED_TRACE("workers " + std::to_string(Workers));
    ThreadPool Pool(Workers);
    std::vector<std::atomic<int>> Threw(G.size());
    std::vector<char> Committed(G.size(), 0);
    auto Prep = [](uint32_t) { return compute(1); };
    auto Compute = [&](uint32_t Node) {
      if (Node % 3 != 0)
        return;
      Threw[Node].store(1);
      throw std::runtime_error("node " + std::to_string(Node));
    };
    auto Commit = [&](uint32_t Node, DagNodeKind) { Committed[Node] = 1; };
    DagScheduler Sched(Pool, G.Seq, G.deps(), G.release(), 0);
    int Caught = 0;
    std::string What;
    try {
      Sched.run(Prep, Compute, Commit);
    } catch (const std::runtime_error &E) {
      ++Caught;
      What = E.what();
    }
    ASSERT_EQ(Caught, 1);
    uint32_t Node = static_cast<uint32_t>(std::stoul(What.substr(5)));
    EXPECT_EQ(Threw[Node].load(), 1) << What;
    // A node whose compute threw never commits, and the pool holds no
    // second copy of the error for a later waitAll().
    for (uint32_t N = 0; N < G.size(); ++N) {
      if (Threw[N].load()) {
        EXPECT_FALSE(Committed[N]) << "failed node committed: " << N;
      }
    }
    EXPECT_NO_THROW(Pool.waitAll());
  }
}

TEST(DagSchedulerTest, MainThreadExceptionDrainsThePool) {
  Dag G = independentDag(64);
  for (bool FromCommit : {true, false}) {
    for (unsigned Workers : {0u, 3u}) {
      SCOPED_TRACE(std::string(FromCommit ? "commit" : "prep") +
                   " throws, workers " + std::to_string(Workers));
      ThreadPool Pool(Workers);
      std::atomic<int> Started{0}, Finished{0}, AfterReturn{0};
      std::atomic<bool> Returned{false};
      size_t Commits = 0, Preps = 0;
      auto Prep = [&](uint32_t) {
        if (!FromCommit && ++Preps == 40)
          throw std::logic_error("prep");
        return compute(1000);
      };
      // Slow enough that units are still queued or running when the main
      // thread throws.
      auto Compute = [&](uint32_t) {
        AfterReturn += Returned.load();
        Started.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::microseconds(300));
        Finished.fetch_add(1);
        AfterReturn += Returned.load();
      };
      auto Commit = [&](uint32_t, DagNodeKind) {
        if (FromCommit && ++Commits == 3)
          throw std::logic_error("commit");
      };
      DagScheduler Sched(Pool, G.Seq, G.deps(), G.release(), 0);
      EXPECT_THROW(Sched.run(Prep, Compute, Commit), std::logic_error);
      Returned.store(true);
      const int StartedAtReturn = Started.load();
      EXPECT_EQ(Finished.load(), StartedAtReturn);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      EXPECT_EQ(Started.load(), StartedAtReturn);
      EXPECT_EQ(AfterReturn.load(), 0);
      EXPECT_NO_THROW(Pool.waitAll());
    }
  }
}

TEST(DagSchedulerTest, TracedRunEmitsOneCommitInstantPerNode) {
  Dag G = randomDag(80, 3);
  // Every kind, trivial included, must show up in the trace.
  auto Prep = [](uint32_t Node) {
    return DagPrep{static_cast<DagNodeKind>(Node % 3), Node};
  };
  auto Compute = [](uint32_t) {};
  auto Commit = [](uint32_t, DagNodeKind) {};
  for (unsigned Workers : {0u, 3u}) {
    ThreadPool Pool(Workers);
    DagScheduler Sched(Pool, G.Seq, G.deps(), G.release(), 64);
    trace::start();
    Sched.run(Prep, Compute, Commit);
    trace::stop();
    std::vector<int> Commits(G.size(), 0);
    for (const trace::Event &E : trace::collect()) {
      if (E.Ph != 'i' || std::string(E.Name) != "commit")
        continue;
      ASSERT_GE(E.Args.Scc, 0);
      ASSERT_LT(static_cast<size_t>(E.Args.Scc), G.size());
      ++Commits[E.Args.Scc];
    }
    for (uint32_t N = 0; N < G.size(); ++N)
      EXPECT_EQ(Commits[N], 1) << "node " << N << " workers " << Workers;
  }
}
