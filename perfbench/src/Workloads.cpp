//===- Workloads.cpp - The benchmark's three workloads --------------------===//
//
// Part of the retypd benchmark. Why each workload exists, and which layer
// it loads, is in perfbench/README.md.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "BenchCommon.h"
#include "Diamond.h"
#include "Layers.h"
#include "TraceOut.h"

#include "frontend/Pipeline.h"
#include "frontend/ReportPrinter.h"
#include "mir/AsmParser.h"
#include "mir/Verifier.h"
#include "support/Stats.h"
#include "synth/Synth.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

namespace perfbench {

using namespace retypd;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

// --- Workload sizes -----------------------------------------------------
/// corpus-cold: programs in the seeded Fig. 10 draw (~1,350 instructions
/// each on average), and corpus ops per round over the six golden
/// programs.
constexpr unsigned kCorpusModules = 180;
constexpr unsigned kGoldenEvery = 8;
/// diamond-ladder: ladder depth. Summary instantiation doubles per layer.
constexpr unsigned kDiamondLayers = 11;
/// session-store: module size and one-function edits per store cycle.
constexpr unsigned kSessionInstructions = 26000;
constexpr unsigned kEditsPerCycle = 20;
/// Every run measures at least this many primary ops, so that the 90th
/// percentile has ten samples beyond it.
constexpr size_t kMinOps = 100;
/// Set-up runs this many times; setup_s is the median.
constexpr unsigned kSetupRepeats = 3;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

std::string slurp(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

std::string renderSchemes(const TypeReport &R, const Module &M,
                          const Lattice &Lat) {
  ReportPrintOptions Print;
  Print.Schemes = true;
  return renderReport(R, M, Lat, Print);
}

double dirBytes(const fs::path &Dir) {
  std::error_code EC;
  double Bytes = 0;
  for (auto It = fs::recursive_directory_iterator(Dir, EC);
       !EC && It != fs::recursive_directory_iterator(); It.increment(EC))
    if (It->is_regular_file(EC))
      Bytes += static_cast<double>(It->file_size(EC));
  return Bytes;
}

/// Every non-external function has an inferred C type.
bool typesEveryFunction(const TypeReport &R, const Module &M) {
  for (uint32_t F = 0; F < M.Funcs.size(); ++F)
    if (!M.Funcs[F].IsExternal && !R.prototype(F, M))
      return false;
  return true;
}

/// Times benchmark operations into a RunData. Every op is timed (wall and
/// process CPU); in a traced run every op the caller marks as probed also
/// has its layers read through Layers.h and its spans recorded, and the
/// unprobed ones give the tracing overhead.
class Recorder {
public:
  struct Op {
    uint64_t Id = 0;
    bool Probed = false;
    LayerProbe Before;
    BenchSpans Spans;
    Clock::time_point Start;
    double Cpu0 = 0;
  };

  Recorder(bool Traced, RunData &Data) : Traced(Traced), Data(Data) {}

  Op begin(bool Probe) {
    Op O;
    O.Id = ++NextId;
    O.Probed = Traced && Probe;
    if (O.Probed)
      O.Before = LayerProbe::take();
    O.Cpu0 = processCpuSecs();
    O.Start = Clock::now();
    return O;
  }

  /// Runs \p Fn as one call into the program inside \p O; a probed op
  /// adds its time to \p Field (when set) and records a span.
  void call(Op &O, const char *Name, double BenchSpans::*Field,
            const std::function<void()> &Fn) {
    if (!O.Probed) {
      Fn();
      return;
    }
    Clock::time_point T0 = Clock::now();
    Fn();
    Clock::time_point T1 = Clock::now();
    if (Field)
      O.Spans.*Field += msBetween(T0, T1);
    Data.TraceEvents.push_back(traceSpan(Name, "call", O.Id, "op", T0, T1));
  }

  /// Closes \p O as an op of \p Kind over \p Instructions instructions.
  /// \p StoreBytes is read only for probed ops. Returns the wall time (ms).
  double end(Op &O, const std::string &Kind, const std::string &Input,
           const TypeReport *Report, size_t Instructions,
           const std::function<double()> &StoreBytes = nullptr) {
    Clock::time_point End = Clock::now();
    double Cpu = processCpuSecs() - O.Cpu0;
    double Ms = msBetween(O.Start, End);
    Data.Samples[Kind].push_back(Ms);
    Data.OpMs += Ms;
    Data.OpCpuSecs += Cpu;
    Data.OpInstructions += static_cast<double>(Instructions);
    if (Traced)
      (O.Probed ? Data.ProbedMs : Data.PlainMs)[Kind].push_back(Ms);
    if (O.Probed) {
      LayerProbe After = LayerProbe::take();
      LayerValues V = layerDelta(O.Before, After, O.Spans, Report,
                                 StoreBytes ? StoreBytes() : 0);
      accumulate(Data.LayerSum, V);
      ++Data.LayerOps;
      Data.TraceEvents.push_back(
          traceSpan(Kind, "op", O.Id, "", O.Start, End, V, Input));
    }
    return Ms;
  }

private:
  bool Traced;
  uint64_t NextId = 0;
  RunData &Data;
};

/// State every workload shares: the lattice, the recorder and the
/// measured-phase deadline.
struct Harness {
  const RunConfig &Cfg;
  RunData &Data;
  Lattice Lat = makeDefaultLattice();
  Recorder Rec{Cfg.Trace, Data};
  Clock::time_point MeasureStart;

  Harness(const RunConfig &Cfg, RunData &Data) : Cfg(Cfg), Data(Data) {}

  /// Runs and times \p Setup kSetupRepeats times.
  template <typename F> void setup(F &&Setup) {
    for (unsigned I = 0; I < kSetupRepeats; ++I) {
      Clock::time_point T0 = Clock::now();
      Setup();
      Data.SetupSecs.push_back(secondsSince(T0));
    }
  }

  void startMeasuring() {
    MemStats::resetPeak();
    MeasureStart = Clock::now();
  }

  void stopMeasuring() {
    Data.PeakHeapBytes = static_cast<double>(MemStats::PeakBytes.load());
  }

  /// True while the closed loop should keep going: until the configured
  /// seconds have passed and \p Enough holds, within a hard time cap.
  bool keepGoing(bool Enough) const {
    double T = secondsSince(MeasureStart);
    return T < std::min(4 * Cfg.Seconds, 120.0) &&
           (T < Cfg.Seconds || !Enough);
  }

  void shape(const std::string &Backend, unsigned Jobs, size_t Instructions,
             size_t Functions, size_t Sccs, size_t WidestWave) {
    auto &L = Data.Labels;
    L["workload"] = Cfg.Workload;
    L["seed"] = std::to_string(Cfg.Seed);
    L["backend"] = Backend;
    L["jobs"] = std::to_string(Jobs);
    L["nproc"] = std::to_string(std::thread::hardware_concurrency());
    L["build_type"] = PERFBENCH_BUILD_TYPE;
    L["instructions"] = std::to_string(Instructions);
    L["functions"] = std::to_string(Functions);
    L["sccs"] = std::to_string(Sccs);
    L["widest_wave"] = std::to_string(WidestWave);
  }
};

//===----------------------------------------------------------------------===//
// corpus-cold
//===----------------------------------------------------------------------===//

struct CorpusModule {
  std::string Name;
  std::string Asm;
  std::shared_ptr<GroundTruth> Truth;
  size_t Instructions = 0;
  /// From a cluster of large programs (>= 1000 instructions nominal: the
  /// paper's SPEC-2006 role in Fig. 8).
  bool Large = false;
};

struct GoldenProgram {
  std::string Name, Asm, Expected;
};

/// A seeded draw of about kCorpusModules programs from the Fig. 10 cluster
/// mix, stratified: each cluster contributes in proportion to its program
/// count, so the mix is the same for every seed. Each program's size is
/// drawn within +-40% of its cluster's, which keeps the latency
/// distribution free of gaps between clusters (a median that sits in such
/// a gap jumps between clusters from run to run).
std::vector<CorpusModule> drawCorpus(uint64_t Seed) {
  const std::vector<bench::ClusterSpec> Clusters = bench::figure10Clusters();
  unsigned Total = 0;
  for (const bench::ClusterSpec &C : Clusters)
    Total += C.Count;
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Jitter(0.6, 1.4);
  SynthGenerator Gen;
  std::vector<CorpusModule> Out;
  for (const bench::ClusterSpec &C : Clusters) {
    unsigned Count =
        std::max(1u, (kCorpusModules * C.Count + Total / 2) / Total);
    for (unsigned I = 0; I < Count; ++I) {
      unsigned Size = static_cast<unsigned>(C.Instructions * Jitter(Rng));
      SynthProgram P =
          std::move(Gen.generateCluster(C.Name, 1, Size, Rng()).front());
      Out.push_back({std::string(C.Name) + "_" + std::to_string(I),
                     std::move(P.AsmText), P.Truth, P.M.instructionCount(),
                     C.Instructions >= 1000});
    }
  }
  std::shuffle(Out.begin(), Out.end(), Rng);
  return Out;
}

bool loadGoldens(const RunConfig &Cfg, std::vector<GoldenProgram> &Out,
                 std::string &Err) {
  fs::path Dir = fs::path(Cfg.RepoRoot) / "tests" / "frontend" / "golden";
  std::error_code EC;
  for (const auto &E : fs::directory_iterator(Dir, EC))
    if (E.path().extension() == ".asm") {
      fs::path Exp = E.path();
      Exp.replace_extension(".expected");
      Out.push_back({E.path().stem().string(), slurp(E.path()), slurp(Exp)});
    }
  std::sort(Out.begin(), Out.end(),
            [](const auto &A, const auto &B) { return A.Name < B.Name; });
  if (EC || Out.empty()) {
    Err = "no golden programs under " + Dir.string();
    return false;
  }
  return true;
}

/// One front-door analysis: parse, verify, one-shot Pipeline::run. Returns
/// false when the input is rejected before analysis.
bool analyzeText(Recorder &Rec, Recorder::Op &O, const Lattice &Lat,
                 const PipelineOptions &Opts, const std::string &Asm,
                 bool Verify, std::optional<Module> &M, TypeReport &R) {
  AsmParser Parser;
  Rec.call(O, "mir.parse", &BenchSpans::ParseMs,
           [&] { M = Parser.parse(Asm); });
  if (!M)
    return false;
  if (Verify) {
    ModuleVerifyResult V;
    Rec.call(O, "mir.verify", &BenchSpans::VerifyMs,
             [&] { V = verifyModule(*M); });
    if (!V.ok())
      return false;
  }
  Rec.call(O, "pipeline.run", nullptr, [&] {
    Pipeline P(Lat, Opts);
    R = P.run(*M);
  });
  return true;
}

bool runCorpusCold(Harness &H, std::string &Err) {
  std::vector<CorpusModule> Corpus;
  std::vector<GoldenProgram> Goldens;
  bool GoldensOk = true;
  H.setup([&] {
    Goldens.clear();
    GoldensOk = loadGoldens(H.Cfg, Goldens, Err);
    Corpus = drawCorpus(H.Cfg.Seed);
  });
  if (!GoldensOk)
    return false;

  PipelineOptions Opts; // jobs 1, no cache, no store, retypd
  Opts.Jobs = 1;
  H.startMeasuring();

  // The golden programs: correctness checks, outside the latency sample.
  // One op analyzes all six (a round); rounds are spread over the run.
  unsigned Rounds = 0;
  auto GoldenRound = [&] {
    Recorder::Op O = H.Rec.begin(Rounds++ % 2 == 0);
    std::vector<std::optional<Module>> Ms(Goldens.size());
    std::vector<TypeReport> Rs(Goldens.size());
    std::vector<char> Ok(Goldens.size());
    size_t Instructions = 0;
    for (size_t G = 0; G < Goldens.size(); ++G) {
      Ok[G] = analyzeText(H.Rec, O, H.Lat, Opts, Goldens[G].Asm, true, Ms[G],
                          Rs[G]);
      Instructions += Ms[G] ? Ms[G]->instructionCount() : 0;
    }
    H.Rec.end(O, "golden", "golden round", nullptr, Instructions);
    std::string Bad;
    for (size_t G = 0; G < Goldens.size(); ++G)
      if (!Ok[G] || renderSchemes(Rs[G], *Ms[G], H.Lat) != Goldens[G].Expected)
        Bad += " " + Goldens[G].Name;
    H.Data.Ops.check(Bad.empty(),
                     "golden programs differ from .expected:" + Bad);
  };

  // The corpus: a closed loop over the draw. The first pass scores
  // precision and records each module's report hash; later passes must
  // reproduce it.
  std::vector<size_t> FirstHash(Corpus.size(), 0);
  size_t Done = 0, Sccs = 0, Widest = 0, Functions = 0, Instructions = 0;
  for (size_t I = 0;; ++I) {
    const size_t K = I % Corpus.size();
    const size_t Pass = I / Corpus.size();
    // Stop only between passes, so every module is sampled equally often.
    if (K == 0 && !H.keepGoing(Pass > 0 && Done >= kMinOps))
      break;
    if (I % kGoldenEvery == 0)
      GoldenRound();
    const CorpusModule &C = Corpus[K];
    std::optional<Module> M;
    TypeReport R;
    Recorder::Op O = H.Rec.begin((K + Pass) % 2 == 0);
    bool Ok = analyzeText(H.Rec, O, H.Lat, Opts, C.Asm, true, M, R);
    double Ms = H.Rec.end(O, "op", C.Name, Ok ? &R : nullptr, C.Instructions);
    if (C.Large)
      H.Data.Samples["large"].push_back(Ms);
    ++Done;
    size_t Hash = Ok ? std::hash<std::string>()(renderSchemes(R, *M, H.Lat))
                     : 0;
    if (Pass == 0) {
      FirstHash[K] = Hash;
      if (Ok) {
        H.Data.Precision.merge(
            Evaluator(H.Lat).scoreRetypd(*M, R, *C.Truth));
        Sccs += R.Stats.SccCount;
        Widest = std::max(Widest, R.Stats.WidestWave);
        Functions += M->Funcs.size();
        Instructions += C.Instructions;
      }
    }
    Ok = Ok && R.VerifyErrors.empty() && typesEveryFunction(R, *M) &&
         Hash == FirstHash[K];
    H.Data.Ops.check(Ok, "corpus module " + C.Name);
  }
  H.stopMeasuring();
  H.shape("retypd", 1, Instructions, Functions, Sccs, Widest);
  H.Data.Labels["modules"] = std::to_string(Corpus.size());
  return true;
}

//===----------------------------------------------------------------------===//
// diamond-ladder
//===----------------------------------------------------------------------===//

bool runDiamondLadder(Harness &H, std::string &Err) {
  const char *const Backends[] = {"retypd", "binsub"};
  std::string Asm;
  GroundTruth Truth;
  size_t Instructions = 0, Functions = 0, Sccs = 0, Widest = 0;
  auto OptsFor = [](unsigned B) {
    PipelineOptions Opts;
    Opts.Jobs = 1;
    Opts.Backend = B == 0 ? BackendKind::Retypd : BackendKind::BinSub;
    return Opts;
  };
  // Set-up makes the input and runs one warm-up analysis per backend.
  H.setup([&] {
    Asm = diamondAsm(kDiamondLayers, H.Cfg.Seed);
    Truth = diamondTruth(kDiamondLayers);
    for (unsigned B = 0; B < 2; ++B) {
      AsmParser Parser;
      std::optional<Module> M = Parser.parse(Asm);
      if (!M)
        continue;
      Instructions = M->instructionCount();
      Pipeline P(H.Lat, OptsFor(B));
      TypeReport R = P.run(*M);
      Functions = M->Funcs.size();
      Sccs = R.Stats.SccCount;
      Widest = R.Stats.WidestWave;
    }
  });

  H.startMeasuring();
  size_t Count[2] = {0, 0};
  // Stop only after a binsub op, so both backends have equal samples.
  for (size_t I = 0; I % 2 || H.keepGoing(Count[1] >= kMinOps); ++I) {
    const unsigned B = I % 2;
    std::optional<Module> M;
    TypeReport R;
    Recorder::Op O = H.Rec.begin(Count[B] % 2 == 0);
    bool Ok = analyzeText(H.Rec, O, H.Lat, OptsFor(B), Asm, false, M, R);
    H.Rec.end(O, B == 0 ? "op" : "alt", Backends[B], Ok ? &R : nullptr,
              Instructions);
    if (Ok && Count[B] == 0)
      H.Data.Precision.merge(Evaluator(H.Lat).scoreRetypd(*M, R, Truth));
    ++Count[B];
    std::vector<std::pair<std::string, std::string>> Protos;
    if (Ok)
      for (uint32_t F = 0; F < M->Funcs.size(); ++F)
        if (!M->Funcs[F].IsExternal)
          Protos.emplace_back(M->Funcs[F].Name, R.prototypeOf(F, *M));
    std::vector<std::string> Bad =
        checkDiamondPrototypes(Backends[B], kDiamondLayers, Protos);
    H.Data.Ops.check(Ok && Bad.empty(),
                     std::string("diamond ") + Backends[B] + ": " +
                         (Bad.empty() ? "rejected" : Bad.front()));
  }
  H.stopMeasuring();
  H.shape("retypd|binsub", 1, Instructions, Functions, Sccs, Widest);
  H.Data.Labels["layers"] = std::to_string(kDiamondLayers);
  return true;
}

//===----------------------------------------------------------------------===//
// session-store
//===----------------------------------------------------------------------===//

/// Adds \p Delta to the first immediate operand of \p F; false when the
/// body has none.
bool tweakImmediate(Function &F, int32_t Delta) {
  for (Instr &I : F.Body)
    switch (I.Op) {
    case Opcode::MovImm:
    case Opcode::AddImm:
    case Opcode::SubImm:
    case Opcode::CmpImm:
    case Opcode::PushImm:
      I.Imm += Delta;
      return true;
    default:
      break;
    }
  return false;
}

bool runSessionStore(Harness &H, std::string &Err) {
  const unsigned Jobs =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  Module Base;
  std::string Name, RefText;
  MetricSummary RefPrecision;
  PipelineStats RefStats;
  // Set-up: generate the module and analyze it once from scratch without
  // a store at jobs 1 — the reference every store-backed report must
  // equal byte for byte.
  H.setup([&] {
    // The generator's output size varies by seed around its target; one
    // rescaled retry lands within a few percent of kSessionInstructions,
    // so edit cost does not vary with the seed through module size.
    SynthGenerator Gen;
    SynthOptions SO;
    SO.Seed = H.Cfg.Seed;
    SO.TargetInstructions = kSessionInstructions * 10 / 13;
    SynthProgram P = Gen.generate("session", SO);
    SO.TargetInstructions = static_cast<unsigned>(
        static_cast<double>(SO.TargetInstructions) * kSessionInstructions /
        std::max<size_t>(1, P.M.instructionCount()));
    P = Gen.generate("session", SO);
    Name = P.Name;
    AsmParser Parser;
    std::optional<Module> M = Parser.parse(P.AsmText);
    if (!M)
      return;
    Base = *M;
    PipelineOptions Ref;
    Ref.Jobs = 1;
    TypeReport R = Pipeline(H.Lat, Ref).run(*M);
    RefText = renderSchemes(R, *M, H.Lat);
    RefPrecision = Evaluator(H.Lat).scoreRetypd(*M, R, *P.Truth);
    RefStats = R.Stats;
  });
  if (RefText.empty()) {
    Err = "session-store: generated module does not parse";
    return false;
  }
  H.Data.Precision = RefPrecision;

  std::error_code EC;
  fs::create_directories(H.Cfg.WorkDir, EC);
  SessionOptions SOpts;
  SOpts.Jobs = Jobs;
  std::vector<uint32_t> Editable;
  for (uint32_t F = 0; F < Base.Funcs.size(); ++F) {
    Function Probe = Base.Funcs[F];
    if (!Probe.IsExternal && tweakImmediate(Probe, 1))
      Editable.push_back(F);
  }
  if (Editable.empty()) {
    Err = "session-store: no editable function";
    return false;
  }
  std::mt19937_64 Rng(H.Cfg.Seed ^ 0x5e55107ull);
  const size_t Instructions = Base.instructionCount();

  H.startMeasuring();
  size_t Edits = 0;
  for (unsigned Cycle = 0; H.keepGoing(Edits >= kMinOps); ++Cycle) {
    fs::path Dir = fs::path(H.Cfg.WorkDir) / ("store-" + std::to_string(Cycle));
    fs::remove_all(Dir, EC);
    SOpts.StoreDir = Dir.string();
    auto Bytes = [&] { return dirBytes(Dir); };
    const bool Probe = Cycle % 2 == 0;

    // 1. Cold: a fresh store; the run journals every artifact.
    {
      Module Copy = Base;
      std::unique_ptr<AnalysisSession> S;
      Recorder::Op O = H.Rec.begin(Probe);
      H.Rec.call(O, "session.open", &BenchSpans::StoreOpenMs, [&] {
        S = std::make_unique<AnalysisSession>(H.Lat, SOpts);
      });
      H.Rec.call(O, "session.analyze", nullptr, [&] {
        S->loadModule(std::move(Copy));
        S->analyze();
      });
      H.Rec.end(O, "cold", Name, S->report(), Instructions, Bytes);
      H.Data.Ops.check(S->storeError().empty() &&
                          S->report()->StoreError.empty() &&
                          renderSchemes(*S->report(), S->module(), H.Lat) ==
                              RefText,
                      "store-cold report differs from the storeless run");
    }

    // 2. Warm: a new session over the same directory reads it back. Two
    // warm ops per cycle; the second session takes the edits.
    std::unique_ptr<AnalysisSession> W;
    for (unsigned Warm = 0; Warm < 2; ++Warm) {
      Module Copy = Base;
      W.reset();
      CounterSnapshot C0 = CounterSnapshot::take();
      Recorder::Op O = H.Rec.begin(Warm == 0);
      H.Rec.call(O, "session.open", &BenchSpans::StoreOpenMs, [&] {
        W = std::make_unique<AnalysisSession>(H.Lat, SOpts);
      });
      H.Rec.call(O, "session.analyze", nullptr, [&] {
        W->loadModule(std::move(Copy));
        W->analyze();
      });
      H.Rec.end(O, "warm", Name, W->report(), Instructions, Bytes);
      CounterSnapshot D = C0.delta();
      H.Data.Ops.check(W->storeError().empty() &&
                          D.ConstraintParseCalls == 0 &&
                          D.StorePayloadCopies == 0 &&
                          renderSchemes(*W->report(), W->module(), H.Lat) ==
                              RefText,
                      "store-warm report differs, parses text or copies");
    }

    // 3. Seeded one-function edits on the warm session.
    for (unsigned E = 0; E < kEditsPerCycle; ++E) {
      uint32_t F = Editable[Rng() % Editable.size()];
      Function Body = W->module().Funcs[F];
      tweakImmediate(Body, static_cast<int32_t>(1 + Rng() % 7));
      Recorder::Op EO = H.Rec.begin(E % 2 == 0);
      bool Replaced = false;
      H.Rec.call(EO, "session.replace", nullptr, [&] {
        Replaced = W->replaceFunction(F, std::move(Body));
      });
      H.Rec.call(EO, "session.analyze", nullptr, [&] { W->analyze(); });
      H.Rec.end(EO, "op", Name, W->report(), Instructions, Bytes);
      ++Edits;
      bool Ok = Replaced && W->report()->StoreError.empty() &&
                W->report()->VerifyErrors.empty();
      // The cycle's last edit must equal a storeless jobs-1 run from
      // scratch over the edited module (checked outside the timing).
      if (E + 1 == kEditsPerCycle) {
        Module Cur = W->module();
        PipelineOptions Ref;
        Ref.Jobs = 1;
        TypeReport R = Pipeline(H.Lat, Ref).run(Cur);
        Ok = Ok && renderSchemes(R, Cur, H.Lat) ==
                       renderSchemes(*W->report(), W->module(), H.Lat);
      }
      H.Data.Ops.check(Ok, "edit of " + W->module().Funcs[F].Name +
                              " differs from a from-scratch run");
    }
    W.reset();
    fs::remove_all(Dir, EC);
  }
  H.stopMeasuring();
  H.shape("retypd", Jobs, Instructions, Base.Funcs.size(), RefStats.SccCount,
          RefStats.WidestWave);
  H.Data.Labels["edits_per_cycle"] = std::to_string(kEditsPerCycle);
  return true;
}

} // namespace

bool runWorkload(const RunConfig &Cfg, RunData &Out, std::string &Err) {
  Harness H(Cfg, Out);
  if (Cfg.Workload == "corpus-cold")
    return runCorpusCold(H, Err);
  if (Cfg.Workload == "diamond-ladder")
    return runDiamondLadder(H, Err);
  if (Cfg.Workload == "session-store")
    return runSessionStore(H, Err);
  Err = "unknown workload '" + Cfg.Workload + "'";
  return false;
}

RunResult reduce(const RunConfig &Cfg, const RunData &D) {
  // The op kinds behind op_*, alt_p50_ms and cold_p50_ms (README.md).
  std::string Op = "op", Alt = "alt", Cold = "op";
  if (Cfg.Workload == "corpus-cold")
    Alt = "large";
  if (Cfg.Workload == "session-store") {
    Alt = "warm";
    Cold = "cold";
  }
  auto SamplesOf = [&](const std::string &Kind) {
    auto It = D.Samples.find(Kind);
    return It == D.Samples.end() ? std::vector<double>() : It->second;
  };
  const std::vector<double> S = SamplesOf(Op);

  RunResult R;
  R.Shape = D.Labels;
  R.Shape["op_samples"] = std::to_string(S.size());
  R.Shape["alt_samples"] = std::to_string(SamplesOf(Alt).size());
  R.Shape["cold_samples"] = std::to_string(SamplesOf(Cold).size());
  R.Shape["op_highest_resolved_percentile"] =
      jsonNumber(highestResolvedPercentile(S.size()));
  R.Shape["failed_frac"] = jsonNumber(D.Ops.failedFrac());

  if (Cfg.Trace) {
    for (const std::string &N : perLayerNames()) {
      auto It = D.LayerSum.find(N);
      R.Metrics[N] =
          D.LayerOps > 0 && It != D.LayerSum.end() ? It->second / D.LayerOps
                                                   : 0;
    }
    auto MeanOf = [](const std::map<std::string, std::vector<double>> &M,
                     const std::string &Kind) {
      auto It = M.find(Kind);
      if (It == M.end() || It->second.empty())
        return 0.0;
      double Sum = 0;
      for (double X : It->second)
        Sum += X;
      return Sum / It->second.size();
    };
    double Plain = MeanOf(D.PlainMs, Op);
    R.Metrics["trace.overhead_frac"] =
        Plain > 0 ? MeanOf(D.ProbedMs, Op) / Plain - 1 : 0;
    R.Metrics["eval.pointer_accuracy"] = D.Precision.pointerAccuracy();
    return R;
  }
  auto &M = R.Metrics;
  M["setup_s"] = median(D.SetupSecs);
  M["op_p50_ms"] = percentile(S, 50);
  M["op_p90_ms"] = percentile(S, 90);
  M["alt_p50_ms"] = median(SamplesOf(Alt));
  M["cold_p50_ms"] = median(SamplesOf(Cold));
  M["throughput_instr_per_s"] =
      D.OpMs > 0 ? D.OpInstructions / (D.OpMs / 1e3) : 0;
  M["cpu_us_per_instr"] =
      D.OpInstructions > 0 ? D.OpCpuSecs * 1e6 / D.OpInstructions : 0;
  M["peak_heap_mib"] = D.PeakHeapBytes / (1024.0 * 1024.0);
  M["type_distance"] = D.Precision.meanDistance();
  M["conservativeness"] = D.Precision.conservativeness();
  M["const_recall"] = D.Precision.constRecall();
  return R;
}

} // namespace perfbench
