//===- SelfTest.cpp - Tests of the benchmark's own logic ------------------===//
//
// The percentile rule, failed_frac accounting, the diamond prototype
// checker, the per-layer partition and the reduction to metrics. Plain asserts-that-stay (no
// NDEBUG dependence); exits nonzero on the first failed expectation.
//
//   ctest --test-dir .bench_build      (after building perfbench/)
//
//===----------------------------------------------------------------------===//

#include "Diamond.h"
#include "Layers.h"
#include "Ledger.h"
#include "Workloads.h"

#include "frontend/Pipeline.h"
#include "mir/AsmParser.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

using namespace perfbench;

namespace {

int Failures = 0;

#define EXPECT(Cond)                                                           \
  do {                                                                         \
    if (!(Cond)) {                                                             \
      std::fprintf(stderr, "%s:%d: expectation failed: %s\n", __FILE__,       \
                   __LINE__, #Cond);                                           \
      ++Failures;                                                              \
    }                                                                          \
  } while (0)

std::vector<double> iota(size_t N) {
  std::vector<double> V(N);
  std::iota(V.begin(), V.end(), 1.0);
  return V;
}

void testPercentileRule() {
  EXPECT(percentile({}, 50) == 0);
  EXPECT(percentile({7}, 90) == 7);
  EXPECT(percentile(iota(10), 50) == 5);
  EXPECT(percentile(iota(100), 90) == 90);
  EXPECT(percentile(iota(100), 100) == 100);
  // Order of the input does not matter.
  std::vector<double> Rev = iota(100);
  std::reverse(Rev.begin(), Rev.end());
  EXPECT(percentile(Rev, 90) == 90);

  EXPECT(samplesBeyond(100, 90) == 10);
  EXPECT(samplesBeyond(99, 90) == 9);
  EXPECT(samplesBeyond(0, 50) == 0);

  // Highest percentile with at least ten samples beyond it.
  EXPECT(highestResolvedPercentile(19) == 0);
  EXPECT(highestResolvedPercentile(20) == 50);
  EXPECT(highestResolvedPercentile(39) == 50);
  EXPECT(highestResolvedPercentile(40) == 75);
  EXPECT(highestResolvedPercentile(99) == 75);
  EXPECT(highestResolvedPercentile(100) == 90);
  EXPECT(highestResolvedPercentile(199) == 90);
  EXPECT(highestResolvedPercentile(200) == 95);
  EXPECT(highestResolvedPercentile(1000) == 99);
  EXPECT(highestResolvedPercentile(10000) == 99.9);
}

/// The (name, prototype) list the pattern expects for \p Layers diamonds.
std::vector<std::pair<std::string, std::string>>
expectedLadder(const std::string &Backend, unsigned Layers) {
  std::vector<std::pair<std::string, std::string>> P;
  P.emplace_back("d0", expectedDiamondPrototype(Backend, "d0"));
  for (unsigned I = 1; I <= Layers; ++I)
    for (const char *K : {"a", "b", "d"}) {
      std::string N = K + std::to_string(I);
      P.emplace_back(N, expectedDiamondPrototype(Backend, N));
    }
  return P;
}

void testDiamondChecker() {
  EXPECT(expectedDiamondPrototype("retypd", "a5") ==
         "uint32_t a5(uint32_t)");
  EXPECT(expectedDiamondPrototype("binsub", "a5") == "int a5(uint32_t)");
  EXPECT(expectedDiamondPrototype("retypd", "d1") == "int d1(void)");
  EXPECT(expectedDiamondPrototype("retypd", "d2") == "uint32_t d2(void)");
  EXPECT(expectedDiamondPrototype("binsub", "d2") == "int d2(void)");
  EXPECT(expectedDiamondPrototype("retypd", "b1") == "int b1(int)");
  EXPECT(expectedDiamondPrototype("retypd", "a0").empty());
  EXPECT(expectedDiamondPrototype("retypd", "main").empty());
  EXPECT(expectedDiamondPrototype("retypd", "d2x").empty());

  for (const char *B : {"retypd", "binsub"}) {
    auto Good = expectedLadder(B, 6);
    EXPECT(checkDiamondPrototypes(B, 6, Good).empty());

    auto Wrong = Good;
    Wrong[4].second = "int a2(int)";
    EXPECT(checkDiamondPrototypes(B, 6, Wrong).size() == 1);

    auto Missing = Good;
    Missing.pop_back();
    EXPECT(!checkDiamondPrototypes(B, 6, Missing).empty());

    auto Extra = Good;
    Extra.emplace_back("a7", expectedDiamondPrototype(B, "a7"));
    EXPECT(!checkDiamondPrototypes(B, 6, Extra).empty());
  }
  // The two backends disagree from layer 2 on, so neither pattern
  // accepts the other backend's output.
  EXPECT(!checkDiamondPrototypes("binsub", 3, expectedLadder("retypd", 3))
              .empty());

  // The hand-derived pattern matches what the program infers.
  retypd::Lattice Lat = retypd::makeDefaultLattice();
  for (const char *B : {"retypd", "binsub"}) {
    retypd::AsmParser Parser;
    auto M = Parser.parse(diamondAsm(5, 42));
    EXPECT(M.has_value());
    if (!M)
      continue;
    retypd::PipelineOptions Opts;
    Opts.Backend = std::string(B) == "retypd" ? retypd::BackendKind::Retypd
                                              : retypd::BackendKind::BinSub;
    retypd::TypeReport R = retypd::Pipeline(Lat, Opts).run(*M);
    std::vector<std::pair<std::string, std::string>> Got;
    for (uint32_t F = 0; F < M->Funcs.size(); ++F)
      if (!M->Funcs[F].IsExternal)
        Got.emplace_back(M->Funcs[F].Name, R.prototypeOf(F, *M));
    std::vector<std::string> Bad = checkDiamondPrototypes(B, 5, Got);
    for (const std::string &E : Bad)
      std::fprintf(stderr, "%s: %s\n", B, E.c_str());
    EXPECT(Bad.empty());
  }
}

void testFailedFracAccounting() {
  Ledger L;
  for (int I = 0; I < 9; ++I)
    EXPECT(L.check(true, "ok"));
  EXPECT(L.Failed == 0 && L.failedFrac() == 0);

  // One operation whose output has an injected mismatch: the checker
  // reports it, and the ledger counts exactly one failed operation.
  auto Ladder = expectedLadder("retypd", 4);
  Ladder[1].second = "int a1(uint32_t)";
  std::vector<std::string> Bad = checkDiamondPrototypes("retypd", 4, Ladder);
  EXPECT(!L.check(Bad.empty(), "diamond retypd"));
  EXPECT(L.Attempted == 10);
  EXPECT(L.Failed == 1);
  EXPECT(std::fabs(L.failedFrac() - 0.1) < 1e-12);
  EXPECT(L.Failures.size() == 1 && L.Failures[0] == "diamond retypd");
}

void testLayerPartition() {
  LayerProbe A, B;
  A.Wall = std::chrono::steady_clock::time_point();
  B.Wall = A.Wall + std::chrono::milliseconds(100);
  A.Phases = {{"cache.hash", 0.0}, {"pipeline.generate", 0.010}};
  B.Phases = {{"cache.hash", 0.004},
              {"pipeline.generate", 0.030},
              {"pipeline.simplify", 0.025},
              {"store.flush", 0.005}};
  B.CpuSecs = 0.05;
  B.Counters.StoreHits = 3;
  BenchSpans S;
  S.ParseMs = 7;
  S.VerifyMs = 3;
  LayerValues V = layerDelta(A, B, S, nullptr, 0);
  EXPECT(V.size() == perLayerNames().size());
  EXPECT(std::fabs(V["absint.generate_ms"] - 20) < 1e-9);
  EXPECT(std::fabs(V["cache.hash_ms"] - 4) < 1e-9);
  EXPECT(V["store.hits"] == 3);
  EXPECT(std::fabs(V["frontend.cpu_over_wall"] - 0.5) < 1e-9);
  // Additive layers plus the residual give the op's wall time; the nested
  // cache timer is not added.
  double Sum = V["mir.parse_ms"] + V["mir.verify_ms"] + V["store.open_ms"] +
               V["analysis.phase0_ms"] + V["absint.generate_ms"] +
               V["core.simplify_ms"] + V["core.solveprep_ms"] +
               V["core.solve_ms"] + V["ctypes.convert_ms"] +
               V["store.flush_ms"] + V["frontend.unattributed_ms"];
  EXPECT(std::fabs(Sum - V["op.wall_ms"]) < 1e-9);
  EXPECT(std::fabs(V["frontend.unattributed_ms"] - 40) < 1e-9);

  EXPECT(metricUnit("op_p50_ms") == "ms");
  EXPECT(metricUnit("setup_s") == "s");
  EXPECT(metricUnit("throughput_instr_per_s") == "instr/s");
  EXPECT(metricUnit("store.appends") == "count");
}

void testReduce() {
  RunData D;
  D.Ops.check(true, "ok");
  D.Samples["op"] = {3.0, 1.5, 2.25};
  D.Samples["alt"] = {9.0};
  D.OpMs = 15.75;
  D.OpCpuSecs = 0.01575;
  D.OpInstructions = 1575;
  D.PeakHeapBytes = 2 << 20;
  D.SetupSecs = {0.5, 0.125, 0.25};
  D.Precision.SumDistance = 1.5;
  D.Precision.Slots = 3;
  D.Precision.Conservative = 3;
  D.Labels["workload"] = "diamond-ladder";

  RunConfig Cfg;
  Cfg.Workload = "diamond-ladder";
  RunResult R = reduce(Cfg, D);
  EXPECT(R.Metrics.size() == 11);
  EXPECT(R.Metrics["op_p50_ms"] == 2.25);
  EXPECT(R.Metrics["op_p90_ms"] == 3.0);
  EXPECT(R.Metrics["cold_p50_ms"] == 2.25); // every diamond op is cold
  EXPECT(R.Metrics["alt_p50_ms"] == 9.0);
  EXPECT(R.Metrics["setup_s"] == 0.25);
  EXPECT(std::fabs(R.Metrics["throughput_instr_per_s"] - 1e5) < 1e-6);
  EXPECT(std::fabs(R.Metrics["cpu_us_per_instr"] - 10) < 1e-9);
  EXPECT(R.Metrics["peak_heap_mib"] == 2);
  EXPECT(R.Metrics["type_distance"] == 0.5);
  EXPECT(R.Metrics["conservativeness"] == 1);
  EXPECT(R.Shape["op_samples"] == "3" && R.Shape["workload"] == "diamond-ladder");

  // corpus-cold's alt role: the large-program modules.
  D.Samples["large"] = {5.0};
  Cfg.Workload = "corpus-cold";
  R = reduce(Cfg, D);
  EXPECT(R.Metrics["alt_p50_ms"] == 5.0 && R.Metrics["cold_p50_ms"] == 2.25);

  // session-store's roles: edits, store-warm and store-cold ops.
  D.Samples["warm"] = {4.0};
  D.Samples["cold"] = {8.0};
  Cfg.Workload = "session-store";
  R = reduce(Cfg, D);
  EXPECT(R.Metrics["alt_p50_ms"] == 4.0 && R.Metrics["cold_p50_ms"] == 8.0);

  // A traced run reports the per-layer means instead.
  D.LayerSum["core.solve_ms"] = 6;
  D.LayerOps = 2;
  Cfg.Trace = true;
  R = reduce(Cfg, D);
  EXPECT(R.Metrics.size() == perLayerNames().size());
  EXPECT(R.Metrics["core.solve_ms"] == 3);
}

} // namespace

int main() {
  testPercentileRule();
  testDiamondChecker();
  testFailedFracAccounting();
  testLayerPartition();
  testReduce();
  if (Failures) {
    std::fprintf(stderr, "%d expectation(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
