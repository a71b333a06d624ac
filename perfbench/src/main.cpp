//===- main.cpp - perfbench entry point ------------------------------------===//
//
// Runs one workload of the retypd benchmark and prints, as the last line
// of standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it records the input shape. Usage:
//
//   perfbench --workload corpus-cold|diamond-ladder|session-store
//             --seed N --seconds S --trace 0|1
//             --root REPO_ROOT --work-dir DIR
//
// perfbench/run.py builds this binary and supplies --root and --work-dir.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "TraceOut.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --root DIR --work-dir DIR\n",
               Msg);
  return 2;
}

std::string objectJson(const std::map<std::string, std::string> &M) {
  std::string Out = "{";
  for (const auto &[K, V] : M) {
    if (Out.size() > 1)
      Out += ", ";
    Out += '"';
    jsonEscape(Out, K);
    Out += "\": \"";
    jsonEscape(Out, V);
    Out += '"';
  }
  return Out + "}";
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Cfg;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + A).c_str());
    const char *V = argv[++I];
    if (A == "--workload") {
      Cfg.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      Cfg.Seed = std::strtoull(V, nullptr, 10);
    } else if (A == "--seconds") {
      Cfg.Seconds = std::strtod(V, nullptr);
    } else if (A == "--trace") {
      Cfg.Trace = std::strcmp(V, "0") != 0;
    } else if (A == "--root") {
      Cfg.RepoRoot = V;
    } else if (A == "--work-dir") {
      Cfg.WorkDir = V;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveWorkload || Cfg.RepoRoot.empty() || Cfg.WorkDir.empty() ||
      !(Cfg.Seconds > 0))
    return usage("--workload, --seconds, --root and --work-dir are required");
  std::error_code EC;
  std::filesystem::create_directories(Cfg.WorkDir, EC);

  RunData Data;
  std::string Err;
  if (!runWorkload(Cfg, Data, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  RunResult R = reduce(Cfg, Data);
  for (const std::string &F : Data.Ops.Failures)
    std::fprintf(stderr, "perfbench: FAILED: %s\n", F.c_str());

  if (Cfg.Trace) {
    std::string Path = (std::filesystem::path(Cfg.WorkDir) /
                        ("trace-" + Cfg.Workload + "-" +
                         std::to_string(Cfg.Seed) + ".json"))
                           .string();
    std::ofstream F(Path, std::ios::binary | std::ios::trunc);
    F << traceJson(Data.TraceEvents, R.Shape);
    if (F.flush())
      R.Shape["trace_file"] = Path;
  }

  std::printf("{\"shape\": %s}\n", objectJson(R.Shape).c_str());
  std::string Metrics;
  for (const auto &[Name, Value] : R.Metrics) {
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics += "\"" + Name + "\": {\"value\": " + jsonNumber(Value) +
               ", \"unit\": \"" + metricUnit(Name) + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Data.Ops.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(Data.Ops.Attempted),
              static_cast<unsigned long long>(Data.Ops.Failed),
              Metrics.c_str());
  return 0;
}
