//===- retypd-cli.cpp - Command-line driver -----------------------------------===//
//
// The command-line face of the library, built on the long-lived
// AnalysisSession API:
//
//   retypd-cli analyze prog.asm            infer and print a C header
//   retypd-cli analyze --format=json p.asm structured JSON report
//   retypd-cli reanalyze base.asm new.asm  analyze base, then incrementally
//                                          re-analyze the edited module;
//                                          output is byte-identical to
//                                          `analyze new.asm`
//   retypd-cli cache inspect DIR           artifact store directory info
//   retypd-cli cache prune DIR --max-bytes N    drop largest entries
//   retypd-cli cache compact DIR           fold an artifact store's dead
//                                          records into a fresh segment
//   retypd-cli cache verify DIR            offline fsck of an artifact
//                                          store: manifest cross-refs,
//                                          per-record CRC + payload
//                                          validation, pool integrity,
//                                          liveness reconciliation
//   retypd-cli help [command]
//
// The first argument must be a command. Unknown commands and options are
// rejected with a "did you mean" hint and exit code 2, as is any `cache`
// verb whose path is not a directory.
//
// analyze/reanalyze options:
//   --schemes --sketches         verbose per-function output
//   --stats                      append per-phase timing + incremental
//                                counters (a trailing comment in text
//                                mode, a "stats" member in JSON)
//   --jobs N                     solve SCC waves on N threads (0 = one
//                                per hardware core); output is
//                                byte-identical for every N
//   --store DIR                  persist the content-addressed scheme
//                                cache in a durable multi-process artifact
//                                store: appends are journaled, reads are
//                                zero-copy out of mmapped segments
//   --format=text|json           report rendering
//   --backend=retypd|binsub      solver backend: the paper's saturation
//                                pipeline (default) or BinSub-style
//                                algebraic subtyping; artifacts are
//                                backend-keyed in the store
//   --verify=off|phase|full      formation-rule checks at phase
//                                boundaries (phase) and additionally on
//                                cache/store-replayed artifacts (full);
//                                violations go to stderr, exit 2
//   --trace FILE                 write a Chrome trace-event JSON recording
//                                of the run (load in Perfetto); diagnostic
//                                output, excluded from the determinism
//                                contract
//   --profile[=N]                print the top-N hottest SCCs (per-SCC
//                                generate/simplify/solve/refine seconds,
//                                constraint counts, sketch-join ops, cache
//                                hit kinds) to stderr; with --format=json
//                                also a "profile" member in "stats"
// analyze only:
//   --strip                      stripped-binary round trip first
//   --engine=retypd|unify|interval   baseline engines (text only)
//
// Input is the textual assembly of mir/AsmParser.h (see examples/data/).
//
//===----------------------------------------------------------------------===//

#include "baseline/Baselines.h"
#include "core/SchemeCodec.h"
#include "frontend/ReportJson.h"
#include "frontend/ReportPrinter.h"
#include "frontend/Session.h"
#include "loader/BinaryImage.h"
#include "mir/AsmParser.h"
#include "mir/Verifier.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace retypd;

namespace {

//===----------------------------------------------------------------------===//
// Option-parsing helpers
//===----------------------------------------------------------------------===//

/// Levenshtein distance, for "did you mean" hints.
size_t editDistance(const std::string &A, const std::string &B) {
  std::vector<size_t> Row(B.size() + 1);
  for (size_t J = 0; J <= B.size(); ++J)
    Row[J] = J;
  for (size_t I = 1; I <= A.size(); ++I) {
    size_t Diag = Row[0];
    Row[0] = I;
    for (size_t J = 1; J <= B.size(); ++J) {
      size_t Next = std::min({Row[J] + 1, Row[J - 1] + 1,
                              Diag + (A[I - 1] != B[J - 1] ? 1 : 0)});
      Diag = Row[J];
      Row[J] = Next;
    }
  }
  return Row[B.size()];
}

/// The closest candidate within distance 3, or "".
std::string suggestFor(const std::string &Arg,
                       const std::vector<std::string> &Candidates) {
  // Compare the flag name only (strip a "=value" suffix).
  std::string Name = Arg.substr(0, Arg.find('='));
  std::string Best;
  size_t BestDist = 4;
  for (const std::string &C : Candidates) {
    size_t D = editDistance(Name, C.substr(0, C.find('=')));
    if (D < BestDist) {
      BestDist = D;
      Best = C;
    }
  }
  return Best;
}

/// Prints the unknown-option error (with a hint when one is close) and
/// returns the usage exit code.
int unknownOption(const char *Command, const std::string &Arg,
                  const std::vector<std::string> &Candidates) {
  std::string Hint = suggestFor(Arg, Candidates);
  if (!Hint.empty())
    std::fprintf(stderr,
                 "error: unknown option '%s' for '%s' — did you mean '%s'?\n",
                 Arg.c_str(), Command, Hint.c_str());
  else
    std::fprintf(stderr, "error: unknown option '%s' for '%s'\n", Arg.c_str(),
                 Command);
  std::fprintf(stderr, "run 'retypd-cli help' for usage\n");
  return 2;
}

int usage(FILE *Out = stderr) {
  std::fprintf(
      Out,
      "usage: retypd-cli <command> [options] <args>\n"
      "\n"
      "commands:\n"
      "  analyze   [options] prog.asm           infer types, print a report\n"
      "  reanalyze [options] base.asm new.asm   incremental re-analysis of an\n"
      "                                         edited module (same output as\n"
      "                                         'analyze new.asm')\n"
      "  cache inspect DIR                      artifact store info\n"
      "  cache prune DIR --max-bytes N          shrink a store\n"
      "  cache compact DIR                      reclaim a store's dead bytes\n"
      "  cache verify DIR                       offline fsck of a store:\n"
      "                                         every violation named by\n"
      "                                         file, offset and key\n"
      "  help [command]                         this text\n"
      "\n"
      "analyze/reanalyze options:\n"
      "  --schemes --sketches --stats --jobs N --store DIR\n"
      "  --format=text|json --verify=off|phase|full\n"
      "  --backend=retypd|binsub --trace FILE --profile[=N]\n"
      "analyze only: --strip --engine=retypd|unify|interval\n");
  return 2;
}

/// Parses a --jobs value: a plain decimal in [0, 1024] (0 = one thread
/// per hardware core). Rejects signs, trailing junk, and overflow.
bool parseJobs(const char *Text, unsigned &Jobs) {
  errno = 0;
  char *End = nullptr;
  unsigned long V = std::strtoul(Text, &End, 10);
  if (End == Text || *End != '\0' || Text[0] == '-' || Text[0] == '+' ||
      errno == ERANGE || V > 1024) {
    std::fprintf(stderr,
                 "error: --jobs expects a number in [0, 1024], got '%s'\n",
                 Text);
    return false;
  }
  Jobs = static_cast<unsigned>(V);
  return true;
}

//===----------------------------------------------------------------------===//
// analyze / reanalyze
//===----------------------------------------------------------------------===//

struct AnalyzeOpts {
  bool Schemes = false, Sketches = false, Strip = false, Stats = false;
  bool Profile = false;
  unsigned ProfileTop = 10; ///< --profile=N; 0 = every SCC
  unsigned Jobs = 1;
  VerifyLevel Verify = VerifyLevel::Off;
  BackendKind Backend = BackendKind::Retypd;
  std::string Engine = "retypd";
  std::string StoreDir;
  std::string TracePath;
  std::string Format = "text";
  std::vector<std::string> Paths;
};

const std::vector<std::string> kAnalyzeFlags = {
    "--schemes", "--sketches", "--strip",    "--stats",
    "--jobs",    "--store",    "--engine=",  "--format=",
    "--verify=", "--backend=", "--trace",    "--profile"};
const std::vector<std::string> kReanalyzeFlags = {
    "--schemes", "--sketches", "--stats",    "--jobs",  "--store",
    "--format=", "--verify=",  "--backend=", "--trace", "--profile"};

/// Parses analyze/reanalyze arguments from argv[Start..). Returns 0 on
/// success, 2 on a usage error (already reported).
int parseAnalyzeArgs(int argc, char **argv, int Start, const char *Command,
                     bool AllowEngine, AnalyzeOpts &O) {
  for (int I = Start; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--schemes")
      O.Schemes = true;
    else if (Arg == "--sketches")
      O.Sketches = true;
    else if (Arg == "--strip" && AllowEngine)
      O.Strip = true;
    else if (Arg == "--stats")
      O.Stats = true;
    else if (Arg == "--summary-cache" ||
             Arg.rfind("--summary-cache=", 0) == 0) {
      // The whole-file cache format is gone; the store is the one way a
      // scheme reaches disk.
      std::fprintf(stderr,
                   "error: '--summary-cache' has been removed; persist "
                   "schemes with '--store DIR' instead\n");
      return 2;
    } else if (Arg == "--jobs" || Arg == "--store" || Arg == "--trace") {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: option '%s' requires a value\n",
                     Arg.c_str());
        return 2;
      }
      if (Arg == "--jobs") {
        if (!parseJobs(argv[++I], O.Jobs))
          return 2;
      } else if (Arg == "--trace")
        O.TracePath = argv[++I];
      else
        O.StoreDir = argv[++I];
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseJobs(Arg.c_str() + 7, O.Jobs))
        return 2;
    } else if (Arg.rfind("--store=", 0) == 0)
      O.StoreDir = Arg.substr(8);
    else if (Arg.rfind("--trace=", 0) == 0)
      O.TracePath = Arg.substr(8);
    else if (Arg == "--profile")
      O.Profile = true;
    else if (Arg.rfind("--profile=", 0) == 0) {
      errno = 0;
      char *End = nullptr;
      unsigned long V = std::strtoul(Arg.c_str() + 10, &End, 10);
      if (End == Arg.c_str() + 10 || *End != '\0' || Arg[10] == '-' ||
          Arg[10] == '+' || errno == ERANGE || V > 1000000) {
        std::fprintf(stderr,
                     "error: --profile expects a non-negative row count, "
                     "got '%s'\n",
                     Arg.c_str() + 10);
        return 2;
      }
      O.Profile = true;
      O.ProfileTop = static_cast<unsigned>(V);
    }
    else if (Arg.rfind("--engine=", 0) == 0 && AllowEngine) {
      O.Engine = Arg.substr(9);
      if (O.Engine != "retypd" && O.Engine != "unify" &&
          O.Engine != "interval") {
        std::fprintf(stderr,
                     "error: --engine expects retypd, unify or interval, "
                     "got '%s'\n",
                     O.Engine.c_str());
        return 2;
      }
    } else if (Arg.rfind("--format=", 0) == 0) {
      O.Format = Arg.substr(9);
      if (O.Format != "text" && O.Format != "json") {
        std::fprintf(stderr,
                     "error: --format expects text or json, got '%s'\n",
                     O.Format.c_str());
        return 2;
      }
    } else if (Arg.rfind("--verify=", 0) == 0) {
      auto Level = parseVerifyLevel(Arg.substr(9));
      if (!Level) {
        std::fprintf(stderr,
                     "error: --verify expects off, phase or full, got '%s'\n",
                     Arg.c_str() + 9);
        return 2;
      }
      O.Verify = *Level;
    } else if (Arg.rfind("--backend=", 0) == 0) {
      std::string Value = Arg.substr(10);
      auto Kind = parseBackendKind(Value);
      if (!Kind) {
        // Unknown backends must fail loudly (exit 2), never silently run
        // the default — the two backends produce different artifacts.
        std::string Hint = suggestFor(
            Value, std::vector<std::string>(std::begin(kBackendNames),
                                            std::end(kBackendNames)));
        if (!Hint.empty())
          std::fprintf(stderr,
                       "error: --backend expects retypd or binsub, got "
                       "'%s' — did you mean '%s'?\n",
                       Value.c_str(), Hint.c_str());
        else
          std::fprintf(stderr,
                       "error: --backend expects retypd or binsub, got "
                       "'%s'\n",
                       Value.c_str());
        return 2;
      }
      O.Backend = *Kind;
    } else if (!Arg.empty() && Arg[0] == '-') {
      // Flags gated off for this command get a precise message, not a
      // self-referential "did you mean".
      if (!AllowEngine &&
          (Arg == "--strip" || Arg.rfind("--engine=", 0) == 0)) {
        std::fprintf(stderr, "error: option '%s' is not valid for '%s'\n",
                     Arg.c_str(), Command);
        return 2;
      }
      return unknownOption(Command, Arg,
                           AllowEngine ? kAnalyzeFlags : kReanalyzeFlags);
    } else
      O.Paths.push_back(Arg);
  }
  return 0;
}

/// Reads, parses and structurally verifies one assembly module; reports
/// errors itself. On failure \p Rc is set to the exit code: 1 when the
/// file cannot be read, 2 when the input is malformed (parse error or
/// module-verifier diagnostics — all of them, not just the first).
std::optional<Module> loadAsm(const std::string &Path, int &Rc) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
    Rc = 1;
    return std::nullopt;
  }
  std::stringstream Buf;
  Buf << In.rdbuf();
  AsmParser Parser;
  auto M = Parser.parse(Buf.str());
  if (!M) {
    std::fprintf(stderr, "%s: parse error: %s\n", Path.c_str(),
                 Parser.error().c_str());
    Rc = 2;
    return std::nullopt;
  }
  // Nothing malformed may reach constraint generation undiagnosed: check
  // the structural well-formedness rules and report every violation with
  // a file:line position where the parser's line table has one.
  ModuleVerifyResult V = verifyModule(*M);
  if (!V.ok()) {
    std::string Text = renderModuleDiags(*M, V, Path, &Parser.lineTable());
    std::fwrite(Text.data(), 1, Text.size(), stderr);
    std::fprintf(stderr, "%s: %zu malformed-module error%s\n", Path.c_str(),
                 V.Errors.size(), V.Errors.size() == 1 ? "" : "s");
    Rc = 2;
    return std::nullopt;
  }
  if (auto Main = M->findFunction("main"))
    M->EntryFunc = *Main;
  return M;
}

/// --trace / --profile lifecycle around the analyze() call(s). The trace
/// file is opened BEFORE the run: an unwritable path must fail loudly up
/// front (exit 1), never record a whole run and then drop it silently.
struct TraceRun {
  FILE *Out = nullptr;
  bool Active = false;
  std::chrono::steady_clock::time_point Start;
  double WallSecs = 0;
  std::string ProfileJson; ///< rendered rows for the stats "profile" member
};

int beginTrace(const AnalyzeOpts &O, TraceRun &T) {
  if (O.TracePath.empty() && !O.Profile)
    return 0;
  if (!O.TracePath.empty()) {
    T.Out = std::fopen(O.TracePath.c_str(), "w");
    if (!T.Out) {
      std::fprintf(stderr, "error: cannot write trace file %s: %s\n",
                   O.TracePath.c_str(), std::strerror(errno));
      return 1;
    }
  }
  trace::start();
  T.Active = true;
  T.Start = std::chrono::steady_clock::now();
  return 0;
}

/// Stops the recording, writes the Chrome JSON (when --trace was given),
/// and renders the per-SCC profile (when --profile was given). Returns 1
/// if the trace file could not be written out.
int endTrace(const AnalyzeOpts &O, TraceRun &T) {
  if (!T.Active)
    return 0;
  T.WallSecs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - T.Start)
                   .count();
  trace::stop();
  std::vector<trace::Event> Events = trace::collect();
  int Rc = 0;
  if (T.Out) {
    std::string Json = trace::writeChromeJson(Events);
    size_t Written = std::fwrite(Json.data(), 1, Json.size(), T.Out);
    if (Written != Json.size() || std::fclose(T.Out) != 0) {
      std::fprintf(stderr, "error: cannot write trace file %s: %s\n",
                   O.TracePath.c_str(), std::strerror(errno));
      Rc = 1;
    }
    T.Out = nullptr;
  }
  if (O.Profile) {
    std::vector<trace::ProfileRow> Rows = trace::buildProfile(Events);
    std::string Table =
        trace::renderProfileTable(Rows, O.ProfileTop, T.WallSecs);
    std::fwrite(Table.data(), 1, Table.size(), stderr);
    T.ProfileJson = trace::profileJson(Rows, O.ProfileTop);
  }
  return Rc;
}

/// Renders the session's last report in the requested format and appends
/// stats when asked.
void printReport(AnalysisSession &S, const AnalyzeOpts &O,
                 const std::string &ProfileJson = std::string()) {
  if (O.Format == "json") {
    ReportJsonOptions JOpts;
    JOpts.Schemes = O.Schemes;
    JOpts.Sketches = O.Sketches;
    // --profile implies stats in JSON mode: the profile rows live inside
    // the stats object.
    JOpts.Stats = O.Stats || O.Profile;
    JOpts.ProfileJson = ProfileJson;
    std::string Text =
        renderReportJson(*S.report(), S.module(), S.lattice(), JOpts);
    std::fwrite(Text.data(), 1, Text.size(), stdout);
    return;
  }
  ReportPrintOptions PrintOpts;
  PrintOpts.Schemes = O.Schemes;
  PrintOpts.Sketches = O.Sketches;
  std::string Text =
      renderReport(*S.report(), S.module(), S.lattice(), PrintOpts);
  std::fwrite(Text.data(), 1, Text.size(), stdout);
  if (O.Stats) {
    const PipelineStats &St = S.report()->Stats;
    std::printf("/* stats: backend=%s jobs=%u sccs=%zu waves=%zu widest=%zu "
                "gen=%.3fs simplify=%.3fs solve=%.3fs convert=%.3fs "
                "cache_hits=%llu cache_misses=%llu */\n",
                St.Backend.c_str(), St.JobsUsed, St.SccCount, St.WaveCount,
                St.WidestWave, St.GenerateSecs, St.SimplifySecs, St.SolveSecs,
                St.ConvertSecs, static_cast<unsigned long long>(St.CacheHits),
                static_cast<unsigned long long>(St.CacheMisses));
    std::printf("/* incremental: %s dirty=%zu sccs_simplified=%zu "
                "sccs_reused=%zu sccs_solved=%zu refined_only=%zu "
                "solve_reused=%zu */\n",
                St.IncrementalRun ? "yes" : "no", St.FunctionsDirty,
                St.SccsSimplified, St.SccsReused, St.SccsSolved,
                St.SccsRefinedOnly, St.SccsSolveReused);
    std::printf("/* store: hits=%llu appends=%llu pool_bind_hits=%llu */\n",
                static_cast<unsigned long long>(St.StoreHits),
                static_cast<unsigned long long>(St.StoreAppends),
                static_cast<unsigned long long>(St.PoolBindHits));
    std::printf("/* scheduler: scheduled=%llu batches=%llu "
                "max_ready_queue=%llu commit_stalls=%llu */\n",
                static_cast<unsigned long long>(St.SccsScheduled),
                static_cast<unsigned long long>(St.BatchesFormed),
                static_cast<unsigned long long>(St.MaxReadyQueue),
                static_cast<unsigned long long>(St.CommitStalls));
  }
}

/// The classic baselines keep their minimal text-only output.
int runBaseline(Module &M, const std::string &Engine) {
  Lattice Lat = makeDefaultLattice();
  BaselineResult R;
  if (Engine == "unify") {
    UnificationInference U(Lat);
    R = U.run(M);
  } else {
    IntervalInference T(Lat);
    R = T.run(M);
  }
  for (const auto &[F, BF] : R.Funcs) {
    std::string Params;
    for (size_t K = 0; K < BF.Params.size(); ++K) {
      if (K)
        Params += ", ";
      Params += R.Pool.declare(BF.Params[K].Type, "");
    }
    std::printf("%s %s(%s);\n",
                BF.HasRet ? R.Pool.declare(BF.Ret.Type, "").c_str() : "void",
                M.Funcs[F].Name.c_str(),
                Params.empty() ? "void" : Params.c_str());
  }
  return 0;
}

/// Session configuration for the CLI options (the session itself is
/// constructed in place — it owns a mutex and cannot move). \p Incremental
/// is true only for reanalyze, which actually re-analyzes; one-shot
/// analyze skips the snapshot bookkeeping.
SessionOptions sessionOptsFor(const AnalyzeOpts &O, bool Incremental) {
  SessionOptions SO;
  SO.Jobs = O.Jobs;
  SO.UseSummaryCache = !O.StoreDir.empty();
  SO.StoreDir = O.StoreDir;
  SO.Verify = O.Verify;
  SO.Backend = O.Backend;
  SO.KeepHistory = Incremental;
  return SO;
}

/// Prints formation-rule violations found under --verify and returns the
/// exit code: 2 when there are any, 0 otherwise. The report itself has
/// already been printed — a verifier finding means the pipeline produced
/// a malformed artifact, and the output cannot be trusted.
int checkVerify(AnalysisSession &S, const AnalyzeOpts &O) {
  const std::vector<std::string> &Errs = S.report()->VerifyErrors;
  if (Errs.empty())
    return 0;
  for (const std::string &E : Errs)
    std::fprintf(stderr, "verify: error: %s\n", E.c_str());
  std::fprintf(stderr, "verify: %zu formation-rule violation%s (--verify=%s)\n",
               Errs.size(), Errs.size() == 1 ? "" : "s",
               verifyLevelName(O.Verify));
  return 2;
}

/// A requested store that failed to open is loud and fatal: silently
/// running cold would defeat the point of sharing one.
int checkStore(AnalysisSession &S, const AnalyzeOpts &O) {
  if (!O.StoreDir.empty() && !S.storeError().empty()) {
    std::fprintf(stderr, "error: cannot open artifact store %s: %s\n",
                 O.StoreDir.c_str(), S.storeError().c_str());
    return 1;
  }
  return 0;
}

/// A failed end-of-run flush is a warning: the report is complete.
void warnStoreFlush(AnalysisSession &S, const AnalyzeOpts &O) {
  if (!O.StoreDir.empty() && !S.storeError().empty())
    std::fprintf(stderr, "warning: cannot flush artifact store %s: %s\n",
                 O.StoreDir.c_str(), S.storeError().c_str());
}

int cmdAnalyze(int argc, char **argv, int Start, const char *Command) {
  AnalyzeOpts O;
  if (int Rc = parseAnalyzeArgs(argc, argv, Start, Command, true, O))
    return Rc;
  if (O.Paths.size() != 1) {
    std::fprintf(stderr, "error: 'analyze' expects exactly one input, got %zu\n",
                 O.Paths.size());
    return usage();
  }

  int LoadRc = 1;
  auto M = loadAsm(O.Paths[0], LoadRc);
  if (!M)
    return LoadRc;

  if (O.Strip) {
    EncodedImage Img = encodeModule(*M);
    DecodeReport Rep;
    auto Recovered = decodeImage(Img.Bytes, Rep);
    if (!Recovered) {
      std::fprintf(stderr, "decode error: %s\n", Rep.Error.c_str());
      return 1;
    }
    std::printf("/* stripped round trip: %u functions rediscovered, "
                "%u imports, %u damaged instructions */\n",
                Rep.FunctionsDiscovered, Rep.ImportsResolved,
                Rep.BadInstructions);
    *M = std::move(*Recovered);
  }

  if (O.Engine != "retypd") {
    if (O.Format == "json") {
      std::fprintf(stderr,
                   "error: --format=json is not supported with "
                   "--engine=%s (baselines emit text only)\n",
                   O.Engine.c_str());
      return 2;
    }
    return runBaseline(*M, O.Engine);
  }

  AnalysisSession S(makeDefaultLattice(), sessionOptsFor(O, false));
  if (int Rc = checkStore(S, O))
    return Rc;
  TraceRun T;
  if (int Rc = beginTrace(O, T))
    return Rc;
  S.loadModule(std::move(*M));
  S.analyze();
  warnStoreFlush(S, O);
  if (int Rc = endTrace(O, T))
    return Rc;
  printReport(S, O, T.ProfileJson);
  return checkVerify(S, O);
}

int cmdReanalyze(int argc, char **argv, int Start) {
  AnalyzeOpts O;
  if (int Rc = parseAnalyzeArgs(argc, argv, Start, "reanalyze", false, O))
    return Rc;
  if (O.Paths.size() != 2) {
    std::fprintf(stderr,
                 "error: 'reanalyze' expects base.asm and edited.asm, "
                 "got %zu inputs\n",
                 O.Paths.size());
    return usage();
  }

  int LoadRc = 1;
  auto Base = loadAsm(O.Paths[0], LoadRc);
  if (!Base)
    return LoadRc;
  auto Edited = loadAsm(O.Paths[1], LoadRc);
  if (!Edited)
    return LoadRc;

  AnalysisSession S(makeDefaultLattice(), sessionOptsFor(O, true));
  if (int Rc = checkStore(S, O))
    return Rc;
  // One recording spans both runs: the trace shows the cold run followed
  // by the warm one, which is exactly the incremental-reuse picture.
  TraceRun T;
  if (int Rc = beginTrace(O, T))
    return Rc;
  S.loadModule(std::move(*Base));
  S.analyze();
  S.updateModule(std::move(*Edited));
  S.analyze();
  warnStoreFlush(S, O);
  if (int Rc = endTrace(O, T))
    return Rc;
  printReport(S, O, T.ProfileJson);
  return checkVerify(S, O);
}

//===----------------------------------------------------------------------===//
// cache
//===----------------------------------------------------------------------===//

/// `cache inspect` on an artifact-store directory: per-segment record
/// counts, live/dead bytes, and the MANIFEST generation. Stale or newer
/// stores get a direction-aware message (regenerate vs. upgrade).
int storeInspect(const std::string &Dir, const std::string &Format) {
  // An empty directory is the pre-first-analyze state, not an error:
  // report a clean zero-state and leave the directory untouched.
  bool Empty = Store::isUninitializedDir(Dir);
  StoreInfo Info;
  if (Empty)
    Info.Ok = true;
  else
    Info = Store::inspect(Dir, kSummaryCacheSchemaVersion);
  // Record kinds are the payloads' leading tag bytes, which carry both
  // the payload kind and the producing solver backend — this is what
  // makes backend-keyed artifacts auditable from the outside.
  auto kindLabel = [](uint8_t Kind) -> std::string {
    const char *Name = payloadKindName(Kind);
    if (!Name) {
      char Buf[16];
      std::snprintf(Buf, sizeof(Buf), "kind_0x%02x", Kind);
      return Buf;
    }
    std::string Label = Name;
    if (std::string(Name) != "gen") {
      Label += '[';
      Label += backendName(payloadBackend(Kind));
      Label += ']';
    }
    return Label;
  };
  if (Format == "json") {
    std::string Segs = "[";
    for (size_t I = 0; I < Info.Segments.size(); ++I) {
      const StoreSegmentInfo &S = Info.Segments[I];
      if (I)
        Segs += ", ";
      Segs += "{\"name\": " + std::string("\"") + jsonEscape(S.Name) +
              "\", \"records\": " + std::to_string(S.Records) +
              ", \"live_records\": " + std::to_string(S.LiveRecords) +
              ", \"live_bytes\": " + std::to_string(S.LiveBytes) +
              ", \"dead_bytes\": " + std::to_string(S.DeadBytes) +
              ", \"corrupt_records\": " + std::to_string(S.CorruptRecords) +
              ", \"file_bytes\": " + std::to_string(S.FileBytes) + "}";
    }
    Segs += "]";
    std::string Kinds = "{";
    bool FirstKind = true;
    for (const auto &[Kind, Count] : Info.LiveKindCounts) {
      if (!FirstKind)
        Kinds += ", ";
      FirstKind = false;
      Kinds += "\"" + jsonEscape(kindLabel(Kind)) +
               "\": " + std::to_string(Count);
    }
    Kinds += "}";
    std::printf("{\"store\": \"%s\", \"ok\": %s, \"empty\": %s, "
                "\"stale\": %s, "
                "\"newer_than_binary\": %s, \"format_version\": %u, "
                "\"schema_version\": %u, \"generation\": %llu, "
                "\"keys\": %zu, \"live_bytes\": %zu, \"dead_bytes\": %zu, "
                "\"pool_names\": %zu, \"pool_bytes\": %zu, "
                "\"live_kinds\": %s, "
                "\"segments\": %s, \"error\": \"%s\"}\n",
                jsonEscape(Dir).c_str(), Info.Ok ? "true" : "false",
                Empty ? "true" : "false",
                Info.Stale ? "true" : "false",
                Info.Newer ? "true" : "false", Info.FormatVersion,
                Info.SchemaVersion,
                static_cast<unsigned long long>(Info.Generation),
                Info.KeyCount, Info.LiveBytes, Info.DeadBytes,
                Info.PoolNames, Info.PoolBytes, Kinds.c_str(), Segs.c_str(),
                jsonEscape(Info.Error).c_str());
    return Info.Ok ? 0 : 1;
  }
  std::printf("store: %s\n", Dir.c_str());
  if (!Info.Ok) {
    std::printf("header: %s\n", Info.Error.c_str());
    return 1;
  }
  if (Empty)
    std::printf("header: empty store (not yet initialized)\n");
  else
    std::printf("header: ok (v%u schema %u)\n", Info.FormatVersion,
                Info.SchemaVersion);
  std::printf("generation: %llu\n",
              static_cast<unsigned long long>(Info.Generation));
  std::printf("keys: %zu\nlive bytes: %zu\ndead bytes: %zu\n", Info.KeyCount,
              Info.LiveBytes, Info.DeadBytes);
  if (Info.PoolNames || Info.PoolBytes)
    std::printf("pool: %zu names, %zu bytes\n", Info.PoolNames,
                Info.PoolBytes);
  if (!Info.LiveKindCounts.empty()) {
    std::printf("live records:");
    for (const auto &[Kind, Count] : Info.LiveKindCounts)
      std::printf(" %s=%zu", kindLabel(Kind).c_str(), Count);
    std::printf("\n");
  }
  for (const StoreSegmentInfo &S : Info.Segments)
    std::printf("segment %s: records %zu live %zu live_bytes %zu "
                "dead_bytes %zu corrupt %zu file_bytes %zu\n",
                S.Name.c_str(), S.Records, S.LiveRecords, S.LiveBytes,
                S.DeadBytes, S.CorruptRecords, S.FileBytes);
  return 0;
}

/// Opens a store for a mutating cache verb, with the stale/newer
/// direction-aware message on failure. Refuses directories with no
/// MANIFEST outright: Store::open would initialize one, and a compact
/// or prune of a mistyped path must not pollute it with an empty store.
std::unique_ptr<Store> openStoreForVerb(const std::string &Dir) {
  if (!std::filesystem::exists(std::filesystem::path(Dir) / "MANIFEST")) {
    std::fprintf(stderr,
                 "error: %s has no MANIFEST — not an artifact store\n",
                 Dir.c_str());
    return nullptr;
  }
  StoreOptions SO;
  SO.SchemaVersion = kSummaryCacheSchemaVersion;
  std::string Err;
  auto S = Store::open(Dir, SO, &Err);
  if (!S)
    std::fprintf(stderr, "error: cannot open %s: %s\n", Dir.c_str(),
                 Err.c_str());
  return S;
}

int storeCompact(const std::string &Dir, const std::string &Format) {
  if (Store::isUninitializedDir(Dir)) {
    if (Format == "json")
      std::printf("{\"store\": \"%s\", \"empty\": true, \"generation\": 0, "
                  "\"live_records\": 0, \"live_bytes\": 0, "
                  "\"dropped_records\": 0, \"reclaimed_bytes\": 0}\n",
                  jsonEscape(Dir).c_str());
    else
      std::printf("empty store (not yet initialized): nothing to compact\n");
    return 0;
  }
  auto S = openStoreForVerb(Dir);
  if (!S)
    return 1;
  std::string Err;
  auto R = S->compact(&Err);
  if (!R) {
    std::fprintf(stderr, "error: cannot compact %s: %s\n", Dir.c_str(),
                 Err.c_str());
    return 1;
  }
  if (Format == "json")
    std::printf("{\"store\": \"%s\", \"generation\": %llu, "
                "\"live_records\": %zu, \"live_bytes\": %zu, "
                "\"dropped_records\": %zu, \"reclaimed_bytes\": %zu}\n",
                jsonEscape(Dir).c_str(),
                static_cast<unsigned long long>(R->Generation),
                R->LiveRecords, R->LiveBytes, R->DroppedRecords,
                R->ReclaimedBytes);
  else
    std::printf("compacted to generation %llu: %zu live records "
                "(%zu payload bytes), dropped %zu, reclaimed %zu bytes\n",
                static_cast<unsigned long long>(R->Generation),
                R->LiveRecords, R->LiveBytes, R->DroppedRecords,
                R->ReclaimedBytes);
  return 0;
}

int storePrune(const std::string &Dir, size_t MaxBytes,
               const std::string &Format) {
  if (Store::isUninitializedDir(Dir)) {
    if (Format == "json")
      std::printf("{\"store\": \"%s\", \"empty\": true, \"pruned\": 0, "
                  "\"before\": 0, \"remaining\": 0, \"payload_bytes\": 0}\n",
                  jsonEscape(Dir).c_str());
    else
      std::printf("empty store (not yet initialized): nothing to prune\n");
    return 0;
  }
  auto S = openStoreForVerb(Dir);
  if (!S)
    return 1;
  // Deterministic victim policy: largest payloads first, key order on
  // ties, until the payload total fits.
  auto Entries = S->liveEntries();
  size_t Before = Entries.size(), Total = 0;
  for (const auto &E : Entries)
    Total += E.second;
  std::sort(Entries.begin(), Entries.end(),
            [](const auto &A, const auto &B) {
              if (A.second != B.second)
                return A.second > B.second;
              return A.first < B.first;
            });
  std::unordered_map<Hash128, bool, Hash128Hasher> Drop;
  for (const auto &E : Entries) {
    if (Total <= MaxBytes)
      break;
    Total -= E.second;
    Drop[E.first] = true;
  }
  std::string Err;
  auto R = S->compact(
      [&](const Hash128 &K, size_t) { return !Drop.count(K); }, &Err);
  if (!R) {
    std::fprintf(stderr, "error: cannot prune %s: %s\n", Dir.c_str(),
                 Err.c_str());
    return 1;
  }
  if (Format == "json")
    std::printf("{\"store\": \"%s\", \"pruned\": %zu, \"before\": %zu, "
                "\"remaining\": %zu, \"payload_bytes\": %zu}\n",
                jsonEscape(Dir).c_str(), Drop.size(), Before,
                R->LiveRecords, R->LiveBytes);
  else
    std::printf("pruned %zu of %zu entries; %zu remain (%zu payload "
                "bytes)\n",
                Drop.size(), Before, R->LiveRecords, R->LiveBytes);
  return 0;
}

/// `cache verify`: offline fsck over an artifact store. Read-only; every
/// violation is localized to its file, byte offset and (when the framing
/// was readable) record key. Exit 0 = clean, 1 = violations or an
/// unscannable store.
int storeVerify(const std::string &Dir, const std::string &Format) {
  bool Empty = Store::isUninitializedDir(Dir);
  StoreFsckReport Rep;
  if (Empty)
    Rep.Ok = true; // the pre-first-analyze state: vacuously clean
  else
    Rep = Store::fsck(Dir, kSummaryCacheSchemaVersion, validatePayload);
  if (Format == "json") {
    std::string Viols = "[";
    for (size_t I = 0; I < Rep.Violations.size(); ++I) {
      const StoreFsckViolation &V = Rep.Violations[I];
      if (I)
        Viols += ", ";
      Viols += "{\"file\": \"" + jsonEscape(V.File) +
               "\", \"offset\": " + std::to_string(V.Offset);
      if (V.HasKey) {
        char KeyBuf[36];
        std::snprintf(KeyBuf, sizeof(KeyBuf), "%016llx%016llx",
                      static_cast<unsigned long long>(V.Key.Hi),
                      static_cast<unsigned long long>(V.Key.Lo));
        Viols += std::string(", \"key\": \"") + KeyBuf + "\"";
      }
      Viols += ", \"message\": \"" + jsonEscape(V.Message) + "\"}";
    }
    Viols += "]";
    std::printf("{\"store\": \"%s\", \"ok\": %s, \"empty\": %s, "
                "\"clean\": %s, \"generation\": %llu, "
                "\"segments_scanned\": %zu, \"records_scanned\": %zu, "
                "\"live_records\": %zu, \"pool_names\": %zu, "
                "\"violations\": %s, \"error\": \"%s\"}\n",
                jsonEscape(Dir).c_str(), Rep.Ok ? "true" : "false",
                Empty ? "true" : "false", Rep.clean() ? "true" : "false",
                static_cast<unsigned long long>(Rep.Generation),
                Rep.SegmentsScanned, Rep.RecordsScanned, Rep.LiveRecords,
                Rep.PoolNames, Viols.c_str(), jsonEscape(Rep.Error).c_str());
    return Rep.clean() ? 0 : 1;
  }
  std::printf("store: %s\n", Dir.c_str());
  if (!Rep.Ok) {
    std::printf("verify: cannot scan: %s\n", Rep.Error.c_str());
    for (const StoreFsckViolation &V : Rep.Violations)
      std::printf("%s:%llu: %s\n", V.File.c_str(),
                  static_cast<unsigned long long>(V.Offset),
                  V.Message.c_str());
    return 1;
  }
  if (Empty) {
    std::printf("verify: empty store (not yet initialized): clean\n");
    return 0;
  }
  for (const StoreFsckViolation &V : Rep.Violations) {
    if (V.HasKey)
      std::printf("%s:%llu: key %016llx%016llx: %s\n", V.File.c_str(),
                  static_cast<unsigned long long>(V.Offset),
                  static_cast<unsigned long long>(V.Key.Hi),
                  static_cast<unsigned long long>(V.Key.Lo),
                  V.Message.c_str());
    else
      std::printf("%s:%llu: %s\n", V.File.c_str(),
                  static_cast<unsigned long long>(V.Offset),
                  V.Message.c_str());
  }
  std::printf("verify: generation %llu, %zu segments, %zu records "
              "(%zu live), %zu pool names: %s\n",
              static_cast<unsigned long long>(Rep.Generation),
              Rep.SegmentsScanned, Rep.RecordsScanned, Rep.LiveRecords,
              Rep.PoolNames,
              Rep.Violations.empty()
                  ? "clean"
                  : (std::to_string(Rep.Violations.size()) + " violations")
                        .c_str());
  return Rep.clean() ? 0 : 1;
}

int cmdCache(int argc, char **argv, int Start) {
  const std::vector<std::string> Actions = {"inspect", "prune", "compact",
                                            "verify"};
  if (Start >= argc) {
    std::fprintf(stderr,
                 "error: 'cache' expects an action: inspect, prune, "
                 "compact, verify\n");
    return usage();
  }
  std::string Action = argv[Start];
  if (std::find(Actions.begin(), Actions.end(), Action) == Actions.end()) {
    std::string Hint = suggestFor(Action, Actions);
    if (!Hint.empty())
      std::fprintf(stderr,
                   "error: unknown cache action '%s' — did you mean '%s'?\n",
                   Action.c_str(), Hint.c_str());
    else
      std::fprintf(stderr, "error: unknown cache action '%s'\n",
                   Action.c_str());
    return 2;
  }

  std::string Dir, Format = "text";
  size_t MaxBytes = 0;
  bool HaveMaxBytes = false;
  const std::vector<std::string> kCacheFlags = {"--max-bytes", "--format="};
  auto ParseMaxBytes = [&](const char *Text) {
    errno = 0;
    char *End = nullptr;
    unsigned long long V = std::strtoull(Text, &End, 10);
    if (End == Text || *End != '\0' || Text[0] == '-' || errno == ERANGE) {
      std::fprintf(stderr,
                   "error: --max-bytes expects a non-negative number, "
                   "got '%s'\n",
                   Text);
      return false;
    }
    MaxBytes = static_cast<size_t>(V);
    HaveMaxBytes = true;
    return true;
  };
  for (int I = Start + 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--max-bytes" && I + 1 >= argc) {
      std::fprintf(stderr, "error: option '--max-bytes' requires a value\n");
      return 2;
    }
    if (Arg == "--max-bytes") {
      if (!ParseMaxBytes(argv[++I]))
        return 2;
    } else if (Arg.rfind("--max-bytes=", 0) == 0) {
      if (!ParseMaxBytes(Arg.c_str() + 12))
        return 2;
    } else if (Arg.rfind("--format=", 0) == 0) {
      Format = Arg.substr(9);
      if (Format != "text" && Format != "json") {
        std::fprintf(stderr, "error: --format expects text or json, got '%s'\n",
                     Format.c_str());
        return 2;
      }
    } else if (!Arg.empty() && Arg[0] == '-')
      return unknownOption("cache", Arg, kCacheFlags);
    else if (Dir.empty())
      Dir = Arg;
    else {
      std::fprintf(stderr,
                   "error: 'cache %s' expects one store directory, got '%s'\n",
                   Action.c_str(), Arg.c_str());
      return usage();
    }
  }
  // A missing argument, a regular file and a missing path are all usage
  // errors: every cache verb works on an artifact store directory.
  std::error_code EC;
  if (Dir.empty() || !std::filesystem::is_directory(Dir, EC)) {
    std::fprintf(stderr,
                 "error: 'cache %s' expects an artifact store directory\n",
                 Action.c_str());
    return 2;
  }
  if (Action == "inspect")
    return storeInspect(Dir, Format);
  if (Action == "compact")
    return storeCompact(Dir, Format);
  if (Action == "verify")
    return storeVerify(Dir, Format);
  if (!HaveMaxBytes) {
    std::fprintf(stderr, "error: 'cache prune' requires --max-bytes N\n");
    return usage();
  }
  return storePrune(Dir, MaxBytes, Format);
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2)
    return usage();

  std::string First = argv[1];
  const std::vector<std::string> Commands = {"analyze", "reanalyze", "cache",
                                             "help"};

  if (First == "help") {
    usage(stdout);
    return 0;
  }
  if (First == "analyze")
    return cmdAnalyze(argc, argv, 2, "analyze");
  if (First == "reanalyze")
    return cmdReanalyze(argc, argv, 2);
  if (First == "cache")
    return cmdCache(argc, argv, 2);

  // A near-miss of a command name gets a hint; anything else (a path, a
  // flag) is most likely the removed no-subcommand spelling of analyze.
  std::string Hint = suggestFor(First, Commands);
  bool LooksLikePath = First.find('.') != std::string::npos ||
                       First.find('/') != std::string::npos;
  if (!Hint.empty() && !LooksLikePath)
    std::fprintf(stderr, "error: unknown command '%s' — did you mean '%s'?\n",
                 First.c_str(), Hint.c_str());
  else
    std::fprintf(stderr,
                 "error: unknown command '%s' — to infer types, run "
                 "'retypd-cli analyze [options] prog.asm'\n",
                 First.c_str());
  std::fprintf(stderr, "run 'retypd-cli help' for usage\n");
  return 2;
}
