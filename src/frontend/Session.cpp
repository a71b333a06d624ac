//===- Session.cpp - Long-lived incremental analysis engine ---------------===//
//
// The resident engine. One analyze() call runs both inference phases under
// a dependency-counted readiness scheduler (no wave barriers): every SCC
// owns a commit slot at its fixed position in the bottom-up (phase 1) or
// top-down (phase 2) sequence, becomes ready the moment its last
// dependency SCC commits, and is then prepped by the main thread —
// generation is not thread-safe, so it stays there — and dispatched to the
// thread pool for simplification/solving, with ready tiny SCCs batched
// into shared work units to amortize dispatch. Workers publish results
// into their own slots; the main thread commits slots strictly in sequence
// order, which replays the exact sequential schedule and keeps reports
// byte-identical for every --jobs value. The previous run's per-SCC
// artifacts are consulted at prep:
//
//   phase 1: an SCC whose members' body hashes and whose callees' scheme
//     hashes are unchanged replays its schemes; a recomputed SCC whose
//     structural scheme hash comes out identical does not dirty its
//     callers. (Identity is 128-bit content hashing — support/Hash128.h —
//     not text comparison.)
//   phase 2: an SCC re-solves only if its constraints were regenerated;
//     it re-refines (replaying the raw solution) if only the incoming
//     callsite sketches changed; otherwise its final sketches replay.
//   phase 3: C-type conversion always re-runs (it is cheap and keeps
//     struct numbering identical to a from-scratch analysis).
//
// Byte-identity with a from-scratch run follows inductively over the
// commit sequence: generation is procedure-pure (fresh names are
// procedure/callsite-scoped), simplification and solving are deterministic
// functions of the constraint sequence, and every reused artifact was
// produced by an identical-input computation in an earlier run.
//
//===----------------------------------------------------------------------===//

#include "frontend/Session.h"

#include "absint/ConstraintGen.h"
#include "analysis/CallGraph.h"
#include "analysis/InterfaceRecovery.h"
#include "frontend/KnownFunctions.h"
#include "mir/AsmParser.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <utility>

using namespace retypd;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Marker snapshot hash for externals without a known-function scheme.
/// Distinguishable from every real scheme hash (FNV-1a of a non-empty
/// stream never lands on a tiny constant).
constexpr Hash128 kNoSchemeHash{0x6e6f2d736368656dull, 0x1ull};

/// Renders the identity-relevant content of a function: everything that
/// feeds constraint generation (interface recovery included — it is a pure
/// function of the body). Call targets render by *name*, so the text is
/// stable across function-id shifts from insertions/removals elsewhere.
std::string renderBodyText(const Module &M, const Function &F) {
  std::string S = F.Name;
  S += F.IsExternal ? "\x1f""extern\n" : "\x1f""fn\n";
  for (const Instr &I : F.Body) {
    S += instrStr(M, F, I);
    S += '\n';
  }
  return S;
}

std::string renderGlobalsSig(const Module &M) {
  std::string S;
  for (const GlobalVar &G : M.Globals) {
    S += G.Name;
    S += ':';
    S += std::to_string(G.Size);
    S += '\x1f';
  }
  return S;
}

std::string joinKey(const std::vector<std::string> &Names) {
  std::string S;
  for (const std::string &N : Names) {
    S += N;
    S += '\x1f';
  }
  return S;
}

} // namespace

const char *retypd::typeQueryStatusName(TypeQueryStatus S) {
  switch (S) {
  case TypeQueryStatus::Ok:
    return "ok";
  case TypeQueryStatus::NoModule:
    return "no-module";
  case TypeQueryStatus::NotAnalyzed:
    return "not-analyzed";
  case TypeQueryStatus::UnknownFunction:
    return "unknown-function";
  case TypeQueryStatus::NoTypeInferred:
    return "no-type-inferred";
  }
  return "?";
}

SessionQuery<std::string> TypeReport::prototype(uint32_t FuncId,
                                                const Module &M) const {
  if (FuncId >= M.Funcs.size())
    return SessionQuery<std::string>::fail(TypeQueryStatus::UnknownFunction);
  const FunctionTypes *T = typesOf(FuncId);
  if (!T || T->CType == NoCType)
    return SessionQuery<std::string>::fail(TypeQueryStatus::NoTypeInferred);
  return SessionQuery<std::string>::ok(
      Pool.prototype(T->CType, M.Funcs[FuncId].Name));
}

std::string TypeReport::prototypeOf(uint32_t FuncId, const Module &M) const {
  SessionQuery<std::string> Q = prototype(FuncId, M);
  return Q ? *Q : std::string("<no type>");
}

//===----------------------------------------------------------------------===//
// Session state
//===----------------------------------------------------------------------===//

/// Everything the previous run knew about one SCC, keyed by its ordered
/// member names. Schemes/sketches replay verbatim when the inputs that
/// produced them are provably unchanged.
struct AnalysisSession::SccArtifact {
  std::vector<std::string> MemberNames; ///< non-external, condensation order
  /// Merged member constraints. May be EMPTY on a fully warm run even
  /// though ConstraintCount > 0: the meta probe defers constraint
  /// materialization until something actually needs the set (a scheme or
  /// solution probe miss), which then replays it through GenKey.
  ConstraintSet Combined;
  Hash128 SetHash;            ///< structural hash of Combined
                              ///< ({0,0} = not computed: no cache)
  SummaryKey GenKey{};        ///< generation-payload content key
                              ///< ({0,0} = none: no cache at generation)
  size_t ConstraintCount = 0; ///< constraints at generation (authoritative
                              ///< even while Combined is unmaterialized)
  std::vector<TypeScheme> MemberSchemes;
  std::vector<Hash128> MemberSchemeHashes;
  bool HasSolution = false; ///< raw/final sketches below are valid
  std::vector<Sketch> RawSketches;   ///< pre-refinement, per member
  std::vector<Sketch> FinalSketches; ///< post-refinement, per member
  /// Callsite sketches this SCC contributed to its callees' refinement,
  /// in commit order (callee name, actual sketch).
  std::vector<std::pair<std::string, Sketch>> CallsiteRecords;
};

/// Per-function facts from the previous run, keyed by name. Both identity
/// fields are 128-bit content hashes — comparing them replaces the textual
/// equality checks of the string data plane (and shrinks snapshots from
/// whole rendered bodies/schemes to 16 bytes each).
struct AnalysisSession::FuncSnapshot {
  Hash128 BodyHash;
  Hash128 SchemeHash;
  size_t IncomingRecords = 0; ///< callsite sketches received in phase 2
};

AnalysisSession::AnalysisSession(Lattice L, SessionOptions O)
    : Lat(std::move(L)), Opts(std::move(O)),
      Syms(std::make_shared<SymbolTable>()) {
  if (!Opts.StoreDir.empty()) {
    // A store only makes sense behind an active cache. An external cache
    // is not owned here, so its store must be attached by its owner.
    Opts.UseSummaryCache = true;
    if (!Opts.ExternalCache && !OwnedCache.openStore(Opts.StoreDir,
                                                     &StoreError) &&
        StoreError.empty())
      StoreError = "cannot open artifact store " + Opts.StoreDir;
  }
}

AnalysisSession::~AnalysisSession() = default;

SummaryCache *AnalysisSession::activeCache() {
  if (Opts.ExternalCache)
    return Opts.ExternalCache;
  return Opts.UseSummaryCache ? &OwnedCache : nullptr;
}

void AnalysisSession::loadModule(Module NewM) {
  M = std::move(NewM);
  HasModule = true;
  Analyzed = false;
  Artifacts.clear();
  Snapshots.clear();
  DirtyNames.clear();
  GlobalsSig.clear();
}

bool AnalysisSession::loadModuleText(const std::string &AsmText,
                                     std::string *Err) {
  AsmParser Parser;
  auto Parsed = Parser.parse(AsmText);
  if (!Parsed) {
    if (Err)
      *Err = Parser.error();
    return false;
  }
  loadModule(std::move(*Parsed));
  return true;
}

void AnalysisSession::updateModule(Module NewM) {
  M = std::move(NewM);
  HasModule = true;
  Analyzed = false;
  // Dirtiness is recomputed inside analyze() by diffing rendered bodies
  // against the per-name snapshots; nothing else to do here.
}

bool AnalysisSession::updateModuleText(const std::string &AsmText,
                                       std::string *Err) {
  AsmParser Parser;
  auto Parsed = Parser.parse(AsmText);
  if (!Parsed) {
    if (Err)
      *Err = Parser.error();
    return false;
  }
  updateModule(std::move(*Parsed));
  return true;
}

void AnalysisSession::markDirtyName(const std::string &Name) {
  DirtyNames.insert(Name);
}

bool AnalysisSession::replaceFunction(uint32_t FuncId, Function NewBody) {
  if (!HasModule || FuncId >= M.Funcs.size())
    return false;
  const std::string OldName = M.Funcs[FuncId].Name;
  if (NewBody.Name.empty())
    NewBody.Name = OldName;
  // Renaming onto another function's name would clobber its FuncByName
  // entry and make it unreachable by name — refuse instead.
  if (NewBody.Name != OldName && M.FuncByName.count(NewBody.Name))
    return false;
  markDirtyName(OldName);
  markDirtyName(NewBody.Name);
  if (NewBody.Name != OldName) {
    M.FuncByName.erase(OldName);
    M.FuncByName[NewBody.Name] = FuncId;
  }
  M.Funcs[FuncId] = std::move(NewBody);
  Analyzed = false;
  return true;
}

bool AnalysisSession::replaceFunction(const std::string &Name,
                                      Function NewBody) {
  auto Id = HasModule ? M.findFunction(Name) : std::nullopt;
  return Id && replaceFunction(*Id, std::move(NewBody));
}

uint32_t AnalysisSession::addFunction(Function F) {
  markDirtyName(F.Name);
  HasModule = true; // a module can be grown from nothing, one function at
                    // a time
  Analyzed = false;
  return M.addFunction(std::move(F));
}

bool AnalysisSession::invalidate(uint32_t FuncId) {
  if (!HasModule || FuncId >= M.Funcs.size())
    return false;
  markDirtyName(M.Funcs[FuncId].Name);
  return true;
}

bool AnalysisSession::invalidate(const std::string &Name) {
  auto Id = HasModule ? M.findFunction(Name) : std::nullopt;
  return Id && invalidate(*Id);
}

void AnalysisSession::invalidateAll() {
  Artifacts.clear();
  Snapshots.clear();
  DirtyNames.clear();
  GlobalsSig.clear();
}

TypeReport AnalysisSession::takeReport() {
  TypeReport R = std::move(Report);
  Report = TypeReport();
  Report.Syms = Syms;
  Analyzed = false;
  return R;
}

Module AnalysisSession::takeModule() {
  Module Out = std::move(M);
  M = Module();
  HasModule = false;
  Analyzed = false;
  return Out;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

std::optional<uint32_t>
AnalysisSession::functionId(const std::string &Name) const {
  if (!HasModule)
    return std::nullopt;
  return M.findFunction(Name);
}

SessionQuery<std::string> AnalysisSession::queryGate(uint32_t FuncId) const {
  if (!HasModule)
    return SessionQuery<std::string>::fail(TypeQueryStatus::NoModule);
  if (!Analyzed)
    return SessionQuery<std::string>::fail(TypeQueryStatus::NotAnalyzed);
  if (FuncId >= M.Funcs.size())
    return SessionQuery<std::string>::fail(TypeQueryStatus::UnknownFunction);
  return SessionQuery<std::string>::ok(std::string());
}

SessionQuery<std::string> AnalysisSession::prototypeOf(uint32_t FuncId) const {
  if (SessionQuery<std::string> Gate = queryGate(FuncId); !Gate)
    return Gate;
  return Report.prototype(FuncId, M);
}

SessionQuery<std::string>
AnalysisSession::prototypeOf(const std::string &Name) const {
  auto Id = functionId(Name);
  if (!Id && HasModule)
    return SessionQuery<std::string>::fail(TypeQueryStatus::UnknownFunction);
  return prototypeOf(Id.value_or(~0u));
}

SessionQuery<std::string> AnalysisSession::schemeOf(uint32_t FuncId) const {
  if (SessionQuery<std::string> Gate = queryGate(FuncId); !Gate)
    return Gate;
  const FunctionTypes *T = Report.typesOf(FuncId);
  if (!T)
    return SessionQuery<std::string>::fail(TypeQueryStatus::NoTypeInferred);
  return SessionQuery<std::string>::ok(T->Scheme.str(*Syms, Lat));
}

SessionQuery<std::string>
AnalysisSession::schemeOf(const std::string &Name) const {
  auto Id = functionId(Name);
  if (!Id && HasModule)
    return SessionQuery<std::string>::fail(TypeQueryStatus::UnknownFunction);
  return schemeOf(Id.value_or(~0u));
}

SessionQuery<std::string> AnalysisSession::sketchOf(uint32_t FuncId,
                                                    unsigned MaxDepth) const {
  if (SessionQuery<std::string> Gate = queryGate(FuncId); !Gate)
    return Gate;
  const FunctionTypes *T = Report.typesOf(FuncId);
  if (!T)
    return SessionQuery<std::string>::fail(TypeQueryStatus::NoTypeInferred);
  return SessionQuery<std::string>::ok(T->FuncSketch.str(Lat, MaxDepth));
}

SessionQuery<std::string>
AnalysisSession::sketchOf(const std::string &Name, unsigned MaxDepth) const {
  auto Id = functionId(Name);
  if (!Id && HasModule)
    return SessionQuery<std::string>::fail(TypeQueryStatus::UnknownFunction);
  return sketchOf(Id.value_or(~0u), MaxDepth);
}

//===----------------------------------------------------------------------===//
// Simplification (shared with the summary cache)
//===----------------------------------------------------------------------===//

std::optional<TypeScheme> AnalysisSession::summarize(
    const std::function<const ConstraintSet *()> &Constraints,
    const Hash128 &SetHash, TypeVariable ProcVar,
    const std::unordered_set<TypeVariable> &Keep, const SolverBackend &Backend,
    SummaryCache *Cache, bool *FromCache) {
  SymbolTable &S = *Syms;
  if (FromCache)
    *FromCache = false;
  SummaryKey Key;
  if (Cache) {
    std::vector<std::string> Names;
    Names.reserve(Keep.size());
    for (TypeVariable V : Keep)
      if (V.isVar())
        Names.push_back(S.name(V.symbol()));
    Key = SummaryCache::keyFor(SetHash, S.name(ProcVar.symbol()), Names,
                               Opts.Simplify, Backend.kind());
    // A hit hands back the decoded scheme — the warm path never parses
    // text and never touches the constraint set. Corrupt entries
    // self-heal inside lookup() (dropped + counted as a miss) so the
    // recomputed insert below overwrites them.
    if (auto Hit = Cache->lookup(Key, S, Lat)) {
      if (FromCache)
        *FromCache = true;
      return std::move(*Hit);
    }
  }

  const ConstraintSet *C = Constraints();
  if (!C)
    return std::nullopt;
  TypeScheme Scheme = Backend.simplify(*C, ProcVar, Keep);
  // Backends may leave components no caller can observe; dropping them
  // here, above the seam, keeps every backend's summaries from inheriting
  // their callees' dead constraints layer after layer.
  dropVacuousComponents(Scheme);
  // Canonical constraint order: identical whether the scheme was computed
  // here or replayed from the cache (the codec preserves order verbatim).
  Scheme.Constraints.canonicalize(S, Lat);

  if (Cache)
    Cache->insert(Key, Scheme, S, Lat, Backend.kind());
  return Scheme;
}

//===----------------------------------------------------------------------===//
// Parameter refinement (Algorithm F.3)
//===----------------------------------------------------------------------===//

Sketch AnalysisSession::refineSketch(Sketch Sk, uint32_t FuncId,
                                     const std::vector<Sketch> &Actuals,
                                     uint64_t *JoinOps) const {
  if (!Opts.RefineParameters || Actuals.empty())
    return Sk;
  const FunctionTypes *FT = Report.typesOf(FuncId);
  if (!FT)
    return Sk;
  auto CountOp = [&] {
    if (JoinOps)
      ++*JoinOps;
  };
  for (unsigned K = 0; K < FT->NumParams; ++K) {
    std::optional<Sketch> Acc;
    for (const Sketch &CallSk : Actuals) {
      auto ActualIn = CallSk.subsketch(Label::in(K));
      if (!ActualIn)
        continue;
      if (Acc) {
        CountOp();
        Acc = Sketch::join(*Acc, *ActualIn, Lat);
      } else {
        Acc = std::move(*ActualIn);
      }
    }
    if (!Acc)
      continue;
    auto FormalIn = Sk.subsketch(Label::in(K));
    Sketch Refined;
    if (FormalIn) {
      CountOp();
      Refined = Sketch::meet(*FormalIn, *Acc, Lat);
    } else {
      Refined = std::move(*Acc);
    }
    Sk = Sk.withChild(Label::in(K), Refined);
  }
  // Outputs: the capabilities every caller exercises on the returned value
  // specialize the (possibly fully polymorphic) return — how a malloc
  // wrapper's ∀τ.τ* becomes a visible pointer (Example 4.3).
  if (M.Funcs[FuncId].ReturnsValue) {
    std::optional<Sketch> AccOut;
    for (const Sketch &CallSk : Actuals) {
      auto ActualOut = CallSk.subsketch(Label::out());
      if (!ActualOut)
        continue;
      if (AccOut) {
        CountOp();
        AccOut = Sketch::join(*AccOut, *ActualOut, Lat);
      } else {
        AccOut = std::move(*ActualOut);
      }
    }
    if (AccOut) {
      auto FormalOut = Sk.subsketch(Label::out());
      Sketch Refined;
      if (FormalOut) {
        CountOp();
        Refined = Sketch::meet(*FormalOut, *AccOut, Lat);
      } else {
        Refined = std::move(*AccOut);
      }
      Sk = Sk.withChild(Label::out(), Refined);
    }
  }
  return Sk;
}

//===----------------------------------------------------------------------===//
// analyze()
//===----------------------------------------------------------------------===//

namespace {

/// Phase-1 commit slot for an SCC that must be (re)computed. The main
/// thread preps it when its last callee commits (gen-cache META probe
/// inline — no constraints materialized — and generation of misses);
/// simplification runs on the pool inside a work unit and lazily
/// materializes the constraint set only when a member's scheme probe
/// misses; the slot is then published and committed on the main thread in
/// bottom-up sequence order.
struct P1Item {
  uint32_t Scc = 0;
  std::string Key;
  std::vector<uint32_t> Members;         ///< non-external, module order
  std::vector<std::string> MemberNames;  ///< parallel to Members
  ConstraintSet Combined;
  bool HasCombined = false;              ///< Combined is materialized
  size_t ConstraintCount = 0;            ///< |Combined| (from meta or gen)
  Hash128 SetHash;                       ///< structural hash (cache runs only)
  SummaryKey GenKey{};                   ///< gen content key (cache runs)
  bool HasGenKey = false;
  std::optional<GenResultMeta> Meta;     ///< meta-probe result
  std::unordered_set<TypeVariable> Interesting;
  std::vector<TypeScheme> Schemes;       ///< filled by the worker
  /// The worker needed the constraints but materializeGen came back empty
  /// (entry evicted/pruned between the meta probe and the residual
  /// decode); the main thread regenerates and re-simplifies inline at
  /// this slot's commit.
  bool SimplifyFailed = false;
  double SimplifySecs = 0; ///< worker-side time, summed into stats at commit
};

enum class P2Mode { Solve, RefineOnly, Reuse };

/// Phase-2 commit slot per SCC. Solve-mode slots are dispatched to the
/// pool; RefineOnly/Reuse slots publish at prep and do all their work at
/// the sequence-ordered commit (callsite-sketch pushes are join-order-
/// sensitive, so they can only ever happen in commit order).
struct P2Item {
  uint32_t Scc = 0;
  P2Mode Mode = P2Mode::Solve;
  std::vector<uint32_t> Members;
  std::vector<TypeVariable> Wanted;
  std::vector<std::pair<uint32_t, TypeVariable>> CallsiteVars;
  SketchSolution Sol;
  SummaryKey SolveKey;   ///< content key of the raw solution (cache runs)
  bool ProbeCache = false;   ///< SolveKey is valid; probe before solving
  bool SolFromCache = false; ///< Sol replayed from the summary cache
  /// The solve worker needed the SCC's (lazily replayed) constraints but
  /// the gen entry vanished; the main thread regenerates + solves inline.
  bool NeedGen = false;
  double SolveSecs = 0; ///< worker-side time, summed into stats at commit
};

/// Slot lifecycle shared by both phase drivers. Trivial slots (external-
/// only SCCs, phase-2 SCCs with nothing to solve) and replay slots publish
/// at prep; compute slots publish from the pool work unit that ran them.
enum SlotStatus : uint8_t {
  SlotTrivial = 0, ///< nothing to do beyond readiness bookkeeping
  SlotReplay,      ///< artifact replay; effects at prep or commit, no pool
  SlotCompute,     ///< dispatched to the pool as (part of) a work unit
};

} // namespace

const TypeReport &AnalysisSession::analyze() {
  Report = TypeReport();
  Report.Syms = Syms;
  // Analyzed flips true only once the run completes: a worker exception
  // propagating out of a wave must leave queries answering NotAnalyzed,
  // not serving a half-built report.
  Analyzed = false;
  if (!HasModule) {
    Analyzed = true;
    return Report;
  }

  SymbolTable &S = *Syms;
  unsigned Jobs = Opts.Jobs;
  if (Jobs == 0)
    Jobs = std::max(1u, std::thread::hardware_concurrency());
  Report.Stats.JobsUsed = Jobs;
  // The main thread is an executor too (the drainer runs work units
  // between commits), so Jobs executors means Jobs - 1 pool workers,
  // and total executors are capped at the machine width: runnable
  // threads beyond the core count add preemption, never progress (on a
  // single hardware thread --jobs N drains inline, workerless). Output
  // bytes never depend on worker count — commit order is fixed by
  // sequence numbers — so the cap is invisible outside timing.
  const unsigned HwWidth = std::max(1u, std::thread::hardware_concurrency());
  ThreadPool Pool(std::min(Jobs, HwWidth) - 1);

  // Formation-rule verification (core/Verifier.h). All hooks sit at the
  // main-thread, wave-order commit points below, so the diagnostics come
  // out in the same deterministic order at any Jobs value and the
  // verifier never races the workers. With Verify == Off not a single
  // check runs.
  const VerifyLevel VL = Opts.Verify;
  VerifyDiags VDiags;

  // ---- Phase 0: IR-level interface recovery + library summaries ----
  std::unordered_map<uint32_t, TypeScheme> Schemes;
  {
    ScopedPhaseTimer Timer("pipeline.phase0");
    trace::TraceSpan Span("phase0", "phase");
    recoverInterfaces(M);
    registerKnownFunctions(M, S, Lat, Schemes);
  }

  CallGraph CG(M);
  ConstraintGenerator Gen(S, Lat, M);
  // The solver seam: phase 1 (simplify) and phase 2 (solve) below only
  // ever dispatch through this backend. Its entry points are const and
  // thread-safe, so pool workers share the one instance.
  const std::unique_ptr<SolverBackend> Backend =
      makeSolverBackend(Opts.Backend, S, Lat, Opts.Simplify);
  Report.Stats.Backend = Backend->name();
  SummaryCache *Cache = activeCache();

  // Generation-cache key plumbing: the environment signature is shared by
  // every function's key, and callee scheme hashes are memoized per run —
  // waves are bottom-up, so a callee's scheme is final before any caller's
  // key needs its hash.
  const Hash128 GenEnvSig =
      Cache ? ConstraintGenerator::envSig(M, Lat) : Hash128{};
  std::unordered_map<uint32_t, Hash128> SchemeHashMemo;

  const size_t NumSccs = CG.sccs().size();
  Report.Stats.SccCount = NumSccs;
  Report.Stats.WaveCount = CG.bottomUpWaves().size();
  for (const auto &W : CG.bottomUpWaves())
    Report.Stats.WidestWave = std::max(Report.Stats.WidestWave, W.size());

  const uint64_t Hits0 = Cache ? Cache->hits() : 0;
  const uint64_t Misses0 = Cache ? Cache->misses() : 0;
  // SummaryCache hits/misses are instance counters (snapshotted above);
  // everything process-global goes through one CounterSnapshot.
  const CounterSnapshot Counters0 = CounterSnapshot::take();

  // ---- Edit detection -------------------------------------------------
  const bool HadHistory = !Snapshots.empty();
  const bool KeepHist = Opts.KeepHistory;
  Report.Stats.IncrementalRun = HadHistory;
  std::string GSig = KeepHist ? renderGlobalsSig(M) : std::string();
  bool AllDirty = !HadHistory || GSig != GlobalsSig;

  // Incremental artifacts are keyed by function name; duplicate names make
  // that keying unsound, so fall back to a full run (and key by SCC id so
  // nothing collides).
  bool DupNames = false;
  {
    std::unordered_set<std::string> Seen;
    for (const Function &F : M.Funcs)
      if (!Seen.insert(F.Name).second)
        DupNames = true;
  }
  AllDirty = AllDirty || DupNames;

  std::vector<Hash128> BodyHashes(M.Funcs.size());
  std::vector<char> Edited(M.Funcs.size(), 0);
  for (uint32_t F = 0; F < M.Funcs.size(); ++F) {
    if (KeepHist)
      BodyHashes[F] = hashBytes(renderBodyText(M, M.Funcs[F]));
    auto SnapIt = Snapshots.find(M.Funcs[F].Name);
    Edited[F] = AllDirty || DirtyNames.count(M.Funcs[F].Name) != 0 ||
                SnapIt == Snapshots.end() ||
                SnapIt->second.BodyHash != BodyHashes[F];
    if (Edited[F])
      ++Report.Stats.FunctionsDirty;
  }

  // Scheme-change tracking by name, filled bottom-up; externals get their
  // (fixed) known-function scheme hash up front, which also catches
  // internal<->external flips.
  std::unordered_map<std::string, char> SchemeChanged;
  std::unordered_map<std::string, Hash128> NewSchemeHashes;
  if (KeepHist)
    for (uint32_t F = 0; F < M.Funcs.size(); ++F) {
      if (!M.Funcs[F].IsExternal)
        continue;
      auto KnownIt = Schemes.find(F);
      Hash128 H = KnownIt != Schemes.end()
                      ? schemeStructuralHash(KnownIt->second, S, Lat)
                      : kNoSchemeHash;
      auto SnapIt = Snapshots.find(M.Funcs[F].Name);
      SchemeChanged[M.Funcs[F].Name] =
          AllDirty || SnapIt == Snapshots.end() ||
          SnapIt->second.SchemeHash != H;
      NewSchemeHashes[M.Funcs[F].Name] = H;
    }

  std::unordered_map<std::string, SccArtifact> NewArtifacts;
  std::vector<SccArtifact *> ArtOfScc(NumSccs, nullptr);
  std::vector<char> P1Computed(NumSccs, 0);

  auto sccKey = [&](uint32_t Scc, const std::vector<std::string> &Names) {
    std::string Key = joinKey(Names);
    if (DupNames) {
      Key += '#';
      Key += std::to_string(Scc);
    }
    return Key;
  };

  // ---- Phase 1: bottom-up scheme inference (Algorithm F.1) ----
  //
  // Readiness-scheduled, no wave barriers. Every SCC owns a commit slot
  // at its fixed position in the bottom-up sequence (the wave
  // concatenation — a topological order identical for every --jobs
  // value). The main thread is prep + generator + drainer: an SCC is
  // prepped the moment its last callee SCC commits (reuse check, gen-
  // cache meta probe, inline generation — the constraint generator is
  // not thread-safe), simplification is dispatched to the pool with
  // ready tiny SCCs batched into shared work units, and published slots
  // are committed strictly in sequence order. Readiness is driven by
  // commits, so everything a prep reads (Schemes, SchemeChanged, the
  // artifact maps) is final when it runs; and because the commit order
  // replays the exact sequential schedule, report bytes cannot depend on
  // scheduling. Workers only simplify: each writes its own slot,
  // publishes it, and never touches shared session state.
  {
    trace::TraceSpan PhaseSpan("phase1", "phase");
    const std::vector<uint32_t> &Seq = CG.bottomUpOrder();
    std::vector<uint32_t> SeqOf(NumSccs, 0);
    for (uint32_t I = 0; I < Seq.size(); ++I)
      SeqOf[Seq[I]] = I;

    std::vector<uint8_t> Status(NumSccs, SlotTrivial);
    std::vector<P1Item> Slots(NumSccs);

    // Uncommitted-callee counts. Only the drainer (main thread) mutates
    // them: workers publish slots, they never touch readiness state.
    std::vector<uint32_t> DepCount(NumSccs, 0);
    for (uint32_t Scc = 0; Scc < NumSccs; ++Scc)
      DepCount[Scc] = static_cast<uint32_t>(CG.sccCallees(Scc).size());

    std::vector<std::atomic<uint8_t>> Done(NumSccs);
    for (auto &D : Done)
      D.store(0, std::memory_order_relaxed);
    std::atomic<size_t> NextCommit{0};
    std::atomic<uint64_t> Stalls{0};
    std::atomic<bool> HasErr{false};
    std::mutex SchedMu;
    std::condition_variable SchedCv;
    std::exception_ptr SchedErr; // guarded by SchedMu

    // FIFO ready queue (main-thread only): SCCs whose callees have all
    // committed, in deterministic commit-discovery order.
    std::vector<uint32_t> ReadyQ;
    size_t ReadyHead = 0;
    auto pushReady = [&](uint32_t Scc) {
      ReadyQ.push_back(Scc);
      Report.Stats.MaxReadyQueue = std::max<uint64_t>(
          Report.Stats.MaxReadyQueue, ReadyQ.size() - ReadyHead);
    };
    for (uint32_t Scc : Seq)
      if (DepCount[Scc] == 0)
        pushReady(Scc);

    // Simplifies every member of one slot (worker side); returns false
    // when the slot needed its (lazily replayed) constraint set but the
    // cache entry vanished between the meta probe and the residual decode.
    auto simplifyItem = [&](P1Item &Item) -> bool {
      const std::vector<uint32_t> &AllMembers = CG.sccs()[Item.Scc];
      Item.Schemes.resize(Item.Members.size());
      trace::TraceSpan Span("simplify", "scc");
      size_t SchemeCacheHits = 0;
      if (Span.active()) {
        Span.Args.Scc = Item.Scc;
        Span.Args.Fn = Item.MemberNames.front();
        Span.Args.Backend = Backend->name();
        Span.Args.Constraints = static_cast<int64_t>(Item.ConstraintCount);
      }
      // The residual decode, run at most once per SCC and only when a
      // member's scheme probe misses: the fully warm path hands every
      // member a cache hit and never touches the constraint set.
      auto Constraints = [&]() -> const ConstraintSet * {
        if (!Item.HasCombined) {
          auto Replay = Cache->materializeGen(Item.GenKey, S, Lat);
          if (!Replay)
            return nullptr;
          Item.Combined = std::move(Replay->C); // already canonical
          Item.HasCombined = true;
        }
        return &Item.Combined;
      };
      for (size_t I = 0; I < Item.Members.size(); ++I) {
        uint32_t F = Item.Members[I];
        // The member's scheme keeps its SCC-mates and globals
        // interesting. One structural hash per SCC (computed during
        // generation) keys every member's cache probe.
        std::unordered_set<TypeVariable> Keep = Item.Interesting;
        for (uint32_t Mate : AllMembers)
          if (Mate != F)
            Keep.insert(Gen.procVar(Mate));
        bool FromCache = false;
        auto Scheme = summarize(Constraints, Item.SetHash, Gen.procVar(F),
                                Keep, *Backend, Cache,
                                Span.active() ? &FromCache : nullptr);
        if (!Scheme)
          return false;
        if (FromCache)
          ++SchemeCacheHits;
        Item.Schemes[I] = std::move(*Scheme);
      }
      if (Span.active())
        Span.Args.Cache = SchemeCacheHits == Item.Members.size() ? "hit"
                          : SchemeCacheHits == 0                 ? "miss"
                                                                 : "partial";
      return true;
    };

    // One pool work unit: simplify a group of slots, publish each as it
    // finishes (a publish of the slot the drainer is blocked on wakes it
    // via SchedCv; out-of-order publishes count as commit stalls).
    auto submitUnit = [&](std::vector<uint32_t> Unit) {
      ++Report.Stats.BatchesFormed;
      Pool.submit([&, Unit = std::move(Unit)] {
        ScopedPhaseTimer Timer("pipeline.simplify");
        for (uint32_t Scc : Unit) {
          P1Item &Item = Slots[Scc];
          Clock::time_point T0 = Clock::now();
          try {
            Item.SimplifyFailed = !simplifyItem(Item);
          } catch (...) {
            // Record the first error and keep publishing: the drainer
            // stops before committing further slots (one it already
            // reached falls back to the deterministic inline recompute).
            Item.SimplifyFailed = true;
            std::lock_guard<std::mutex> Lock(SchedMu);
            if (!SchedErr)
              SchedErr = std::current_exception();
            HasErr.store(true, std::memory_order_relaxed);
          }
          Item.SimplifySecs = secondsSince(T0);
          if (SeqOf[Scc] != NextCommit.load(std::memory_order_relaxed)) {
            Stalls.fetch_add(1, std::memory_order_relaxed);
            trace::instant("commit-stall", "sched", 1, Scc);
          }
          Done[Scc].store(1, std::memory_order_release);
        }
        // Lock-then-notify so a publish cannot slip between the drainer's
        // predicate check and its wait.
        { std::lock_guard<std::mutex> Lock(SchedMu); }
        SchedCv.notify_one();
      });
    };

    std::vector<uint32_t> TinyBatch;
    const unsigned TinyMax = Opts.TinySccConstraints;
    constexpr size_t kMaxBatchSccs = 64;
    auto flushTiny = [&] {
      if (!TinyBatch.empty())
        submitUnit(std::exchange(TinyBatch, {}));
    };
    auto dispatch = [&](uint32_t Scc) {
      ++Report.Stats.SccsScheduled;
      if (TinyMax != 0 && Slots[Scc].ConstraintCount < TinyMax) {
        TinyBatch.push_back(Scc);
        if (TinyBatch.size() >= kMaxBatchSccs)
          flushTiny();
      } else {
        submitUnit({Scc});
      }
    };

    // Prep one ready SCC (main thread): decide trivial/replay/compute,
    // apply replay effects, generate compute slots, dispatch to the pool.
    auto prep = [&](uint32_t Scc) {
      P1Item &Item = Slots[Scc];
      Item.Scc = Scc;
      const std::vector<uint32_t> &AllMembers = CG.sccs()[Scc];
      for (uint32_t F : AllMembers) {
        if (M.Funcs[F].IsExternal)
          continue;
        Item.Members.push_back(F);
        Item.MemberNames.push_back(M.Funcs[F].Name);
      }
      if (Item.Members.empty()) {
        Done[Scc].store(1, std::memory_order_release);
        return; // stays SlotTrivial
      }
      std::string Key = sccKey(Scc, Item.MemberNames);

      // ---- Reuse check: unchanged members, unchanged callee schemes.
      // Sound to evaluate here because every callee committed before this
      // SCC became ready — their SchemeChanged entries are final.
      SccArtifact *Reused = nullptr;
      if (!AllDirty) {
        auto ArtIt = Artifacts.find(Key);
        bool Ok = ArtIt != Artifacts.end() &&
                  ArtIt->second.MemberNames == Item.MemberNames;
        for (size_t I = 0; Ok && I < Item.Members.size(); ++I) {
          if (Edited[Item.Members[I]]) {
            Ok = false;
            break;
          }
          for (uint32_t Callee : CG.callees(Item.Members[I])) {
            if (CG.sccOf(Callee) == Scc)
              continue;
            auto ChIt = SchemeChanged.find(M.Funcs[Callee].Name);
            if (ChIt == SchemeChanged.end() || ChIt->second) {
              Ok = false;
              break;
            }
          }
        }
        if (Ok) {
          auto Ins = NewArtifacts.insert(Artifacts.extract(ArtIt));
          Reused = &Ins.position->second;
        }
      }

      if (Reused) {
        // Apply the replay effects now: they are keyed, single-writer
        // map/report writes, so their order across SCCs is immaterial.
        // Full-mode verification of the replayed schemes waits for the
        // commit slot, keeping diagnostics in sequence order.
        for (size_t I = 0; I < Item.Members.size(); ++I) {
          uint32_t F = Item.Members[I];
          Schemes[F] = Reused->MemberSchemes[I];
          FunctionTypes &FT = Report.Funcs[F];
          FT.Scheme = Reused->MemberSchemes[I];
          FT.NumParams =
              M.Funcs[F].NumStackParams +
              static_cast<unsigned>(M.Funcs[F].RegParams.size());
          SchemeChanged[Item.MemberNames[I]] = 0;
          NewSchemeHashes[Item.MemberNames[I]] =
              Reused->MemberSchemeHashes[I];
        }
        Report.ConstraintsGenerated += Reused->ConstraintCount;
        ArtOfScc[Scc] = Reused;
        ++Report.Stats.SccsReused;
        Report.Stats.SchemesReused += Item.Members.size();
        Status[Scc] = SlotReplay;
        Done[Scc].store(1, std::memory_order_release);
        return;
      }

      // ---- Compute path: key + meta-probe + generate inline, then hand
      // simplification to the pool. The meta probe overlaps with compute
      // naturally here — other SCCs are simplifying on the workers while
      // the main thread preps.
      Status[Scc] = SlotCompute;
      P1Computed[Scc] = 1;
      ++Report.Stats.SccsSimplified;
      Item.Key = std::move(Key);
      Clock::time_point T0 = Clock::now();
      {
        ScopedPhaseTimer Timer("pipeline.generate");
        trace::TraceSpan GenSpan("generate", "scc");
        if (GenSpan.active()) {
          GenSpan.Args.Scc = Scc;
          GenSpan.Args.Fn = Item.MemberNames.front();
          GenSpan.Args.Backend = Backend->name();
        }
        std::set<uint32_t> Mates(AllMembers.begin(), AllMembers.end());
        auto schemeHashFor = [&](uint32_t Callee) -> const Hash128 * {
          auto SchemeIt = Schemes.find(Callee);
          if (SchemeIt == Schemes.end())
            return nullptr;
          auto [MemoIt, Inserted] = SchemeHashMemo.try_emplace(Callee);
          if (Inserted)
            MemoIt->second = schemeStructuralHash(SchemeIt->second, S, Lat);
          return &MemoIt->second;
        };

        // Generation is content-addressed: the SCC's gen key combines the
        // per-member dependency keys (own body, callee interfaces +
        // scheme hashes, SCC membership, globals table, lattice — see
        // ConstraintGenerator::genKey), and the cached payload is the
        // merged, canonicalized combined set with its structural hash. A
        // hit therefore replays exactly what the walk+merge+canonicalize+
        // hash below would produce — byte for byte — including the
        // callsite variables the phase-2 solve-prep probe expects to find
        // interned (the meta decoder interns them).
        if (Cache) {
          {
            ScopedPhaseTimer KeyTimer("gencache.key");
            Fnv128 KeyHash;
            KeyHash.update("retypd-genscc-v1");
            KeyHash.sep();
            KeyHash.updateU64(Item.Members.size());
            for (uint32_t F : Item.Members) {
              Hash128 K = Gen.genKey(F, Mates, GenEnvSig, schemeHashFor);
              KeyHash.updateU64(K.Hi);
              KeyHash.updateU64(K.Lo);
            }
            Item.GenKey = KeyHash.digest();
            Item.HasGenKey = true;
          }
          // META prefix only — set hash, interesting/callsite variables,
          // constraint count — straight off the mapped store bytes. No
          // constraint set is materialized; the residual decode happens
          // inside a simplify/solve worker if (and only if) a downstream
          // probe misses.
          Item.Meta = Cache->lookupGenMeta(Item.GenKey, S, Lat);
        }
        if (Item.Meta) {
          // Replayed: adopt the meta; the constraints stay encoded until
          // a scheme or solution probe actually needs them.
          Item.SetHash = Item.Meta->SetHash;
          Item.Interesting.insert(Item.Meta->Interesting.begin(),
                                  Item.Meta->Interesting.end());
          Item.ConstraintCount =
              static_cast<size_t>(Item.Meta->ConstraintCount);
          ++Report.Stats.GenCacheHits;
        } else {
          if (Item.HasGenKey)
            ++Report.Stats.GenCacheMisses;
          std::vector<TypeVariable> Callsites;
          for (uint32_t F : Item.Members) {
            GenResult R = Gen.generate(F, Schemes, Mates);
            if (Item.Members.size() == 1)
              Item.Combined = std::move(R.C); // single member: no merge
            else
              Item.Combined.merge(R.C);
            Item.Interesting.insert(R.Interesting.begin(),
                                    R.Interesting.end());
            if (Cache)
              Callsites.insert(Callsites.end(), R.Callsites.begin(),
                               R.Callsites.end());
          }
          // Canonicalize the combined set before any solving: simplifier τ
          // numbering and solver traversals follow constraint order, and
          // the Tarjan member order that produced it can flip when *other*
          // parts of the call graph change. The structural sort makes
          // every downstream result (and the summary-cache key hashed from
          // the same canonical order) a pure function of the constraint
          // *set*, which both the cache and incremental reuse depend on —
          // with no canonical text ever materialized.
          Item.Combined.canonicalize(S, Lat);
          Item.HasCombined = true;
          Item.ConstraintCount = Item.Combined.size();
          if (Cache) {
            {
              ScopedPhaseTimer HashTimer("cache.hash");
              Item.SetHash = canonicalSetHash(Item.Combined, S, Lat);
            }
            std::vector<TypeVariable> Interesting(Item.Interesting.begin(),
                                                  Item.Interesting.end());
            Cache->insertGen(Item.GenKey, Item.Combined, Item.SetHash,
                             Interesting, Callsites, S, Lat);
          }
        }
        if (GenSpan.active()) {
          GenSpan.Args.Constraints =
              static_cast<int64_t>(Item.ConstraintCount);
          if (Item.HasGenKey)
            GenSpan.Args.Cache = Item.Meta ? "hit" : "miss";
        }
        Report.ConstraintsGenerated += Item.ConstraintCount;
      }
      Report.Stats.GenerateSecs += secondsSince(T0);
      dispatch(Scc);
    };

    // Commit one slot (main thread, strictly in sequence order) and
    // release its dependents.
    auto commit = [&](uint32_t Scc) {
      P1Item &Item = Slots[Scc];
      switch (Status[Scc]) {
      case SlotTrivial:
        break;
      case SlotReplay: {
        // Full verification covers replayed artifacts too: a stale or
        // corrupted incremental replay surfaces here instead of as a
        // wrong report. The allowed-free set of a replayed scheme is
        // not recorded, so the closure check is skipped (nullptr).
        if (VL == VerifyLevel::Full) {
          SccArtifact *Reused = ArtOfScc[Scc];
          for (size_t I = 0; I < Item.Members.size(); ++I)
            verifyScheme(Reused->MemberSchemes[I], S, Lat, nullptr,
                         "phase1 reused scheme '" + Item.MemberNames[I] +
                             "'",
                         VDiags);
        }
        break;
      }
      case SlotCompute: {
        // Fallback for vanished gen entries (evicted or pruned since the
        // meta probe): regenerate the set — deterministic, so identical
        // to what the replay would have produced — and redo the slot
        // inline.
        if (Item.SimplifyFailed) {
          Clock::time_point T0 = Clock::now();
          const std::vector<uint32_t> &AllMembers = CG.sccs()[Scc];
          std::set<uint32_t> Mates(AllMembers.begin(), AllMembers.end());
          Item.Combined = ConstraintSet();
          for (uint32_t F : Item.Members) {
            GenResult R = Gen.generate(F, Schemes, Mates);
            if (Item.Members.size() == 1)
              Item.Combined = std::move(R.C);
            else
              Item.Combined.merge(R.C);
          }
          Item.Combined.canonicalize(S, Lat);
          Item.HasCombined = true;
          Item.SimplifyFailed = !simplifyItem(Item);
          Item.SimplifySecs += secondsSince(T0);
        }
        Report.Stats.SimplifySecs += Item.SimplifySecs;
        // Verify what this SCC is about to commit: the combined
        // constraint set when it was materialized this run (fresh
        // generation, or — in Full mode the interesting case — a residual
        // decode straight off the cache/store bytes), including the
        // canonical-order invariant the content keys and the binary codec
        // rely on.
        if (VL != VerifyLevel::Off && Item.HasCombined) {
          std::string Ctx =
              "phase1 scc '" + Item.MemberNames.front() + "' constraints";
          verifyConstraintSet(Item.Combined, S, Lat, Ctx, VDiags);
          verifyCanonicalOrder(Item.Combined, S, Lat, Ctx, VDiags);
        }
        SccArtifact Art;
        Art.MemberNames = Item.MemberNames;
        Art.ConstraintCount = Item.ConstraintCount;
        Art.SetHash = Item.SetHash;
        Art.GenKey = Item.GenKey;
        Art.Combined = std::move(Item.Combined); // may be unmaterialized
        if (KeepHist)
          Art.MemberSchemes = Item.Schemes; // keep a replayable copy
        // Carry the previous run's callsite records forward (same member
        // set): they are the baseline the phase-2 Solve commit compares
        // against, which lets an edit that re-solves to identical actuals
        // stop dirtying its callees. The stale raw/final sketches ride
        // along but are unreachable — P1Computed forces Solve mode, which
        // overwrites them before any replay path could read them.
        if (auto OldIt = Artifacts.find(Item.Key);
            OldIt != Artifacts.end() && OldIt->second.HasSolution) {
          Art.CallsiteRecords = std::move(OldIt->second.CallsiteRecords);
          Art.HasSolution = true;
        }
        for (size_t I = 0; I < Item.Members.size(); ++I) {
          uint32_t F = Item.Members[I];
          const std::string &Name = Item.MemberNames[I];
          if (KeepHist) {
            Hash128 H = schemeStructuralHash(Item.Schemes[I], S, Lat);
            auto SnapIt = Snapshots.find(Name);
            SchemeChanged[Name] = AllDirty || SnapIt == Snapshots.end() ||
                                  SnapIt->second.SchemeHash != H;
            Art.MemberSchemeHashes.push_back(H);
            NewSchemeHashes[Name] = H;
          }
          // Scheme closure: besides its own bound variables the scheme
          // may mention exactly what simplification was told to keep —
          // the SCC's interesting variables plus its mates' procedure
          // variables. Anything else escaping is a formation violation
          // (whether the scheme was computed here or decoded from the
          // cache; both commit through this path).
          if (VL != VerifyLevel::Off) {
            std::unordered_set<TypeVariable> Allowed = Item.Interesting;
            for (uint32_t Mate : CG.sccs()[Scc])
              if (Mate != F)
                Allowed.insert(Gen.procVar(Mate));
            verifyScheme(Item.Schemes[I], S, Lat, &Allowed,
                         "phase1 scheme '" + Name + "'", VDiags);
          }
          Schemes[F] = Item.Schemes[I];
          FunctionTypes &FT = Report.Funcs[F];
          FT.Scheme = std::move(Item.Schemes[I]);
          FT.NumParams = M.Funcs[F].NumStackParams +
                         static_cast<unsigned>(M.Funcs[F].RegParams.size());
          ++Report.Stats.SchemesComputed;
        }
        auto [NewIt, Inserted] =
            NewArtifacts.emplace(std::move(Item.Key), std::move(Art));
        (void)Inserted;
        ArtOfScc[Scc] = &NewIt->second;
        // Drop per-slot scratch early: slots live to the end of the
        // phase, their artifacts live on.
        Item.Interesting = {};
        Item.Schemes = {};
        Item.Meta.reset();
        break;
      }
      }
      trace::instant("commit", "sched", -1, Scc);
      for (uint32_t Caller : CG.sccCallers(Scc))
        if (--DepCount[Caller] == 0)
          pushReady(Caller);
    };

    // The drainer loop. Priorities: commit whatever is committable (it
    // releases dependents), then prep newly-ready SCCs (it feeds the
    // pool), then flush a pending tiny batch, then help the pool; only
    // when the queues are empty and the next slot is still in flight on a
    // worker does the main thread sleep.
    size_t Next = 0;
    const size_t N = Seq.size();
    while (Next < N) {
      if (HasErr.load(std::memory_order_relaxed))
        break;
      uint32_t Scc = Seq[Next];
      if (Done[Scc].load(std::memory_order_acquire)) {
        commit(Scc);
        ++Next;
        NextCommit.store(Next, std::memory_order_relaxed);
        continue;
      }
      if (ReadyHead < ReadyQ.size()) {
        prep(ReadyQ[ReadyHead++]);
        continue;
      }
      if (!TinyBatch.empty()) {
        flushTiny();
        continue;
      }
      if (Pool.tryRunOne())
        continue;
      std::unique_lock<std::mutex> Lock(SchedMu);
      SchedCv.wait(Lock, [&] {
        return Done[Scc].load(std::memory_order_acquire) ||
               HasErr.load(std::memory_order_relaxed);
      });
    }
    // Teardown join, not a scheduling barrier: on the normal path every
    // slot has committed, so this only waits out a work unit's final
    // bookkeeping; on the error path it drains in-flight units before
    // their slots leave scope.
    Pool.waitAll();
    Report.Stats.CommitStalls += Stalls.load(std::memory_order_relaxed);
    {
      std::exception_ptr E;
      {
        std::lock_guard<std::mutex> Lock(SchedMu);
        E = SchedErr;
      }
      if (E)
        std::rethrow_exception(E);
    }
  }

  // ---- Phase 2: top-down sketch solving (Algorithm F.2) ----
  // Join of actual-in/out sketches observed at callsites, per callee
  // (Algorithm F.3 accumulators).
  std::map<uint32_t, std::vector<Sketch>> ActualSketches;
  // Per-function: some caller contributed records that differ from the
  // previous run (forces the callee's SCC to at least re-refine).
  std::vector<char> IncomingChangedFlag(M.Funcs.size(), 0);
  std::unordered_map<std::string, size_t> NewIncomingCount;

  // Top-down readiness scheduler, mirroring phase 1 with the roles of
  // callers and callees swapped: an SCC becomes ready the moment its last
  // *caller* SCC commits, so everything its prep reads — ActualSketches
  // tallies, IncomingChangedFlag bits, snapshots — is final. Commit slots
  // follow the top-down sequence (the reverse wave concatenation): sketch
  // joins are order-sensitive, so the refinement accumulators must
  // receive callsite sketches in exactly the historical push order, and
  // the sequence-ordered commit is what pins that for every --jobs value.
  {
    trace::TraceSpan PhaseSpan("phase2", "phase");
    const std::vector<uint32_t> &Seq = CG.topDownOrder();
    std::vector<uint32_t> SeqOf(NumSccs, 0);
    for (uint32_t I = 0; I < Seq.size(); ++I)
      SeqOf[Seq[I]] = I;

    std::vector<uint8_t> Status(NumSccs, SlotTrivial);
    std::vector<P2Item> Slots(NumSccs);

    // Uncommitted-caller counts. Main-thread only, like phase 1.
    std::vector<uint32_t> DepCount(NumSccs, 0);
    for (uint32_t Scc = 0; Scc < NumSccs; ++Scc)
      DepCount[Scc] = static_cast<uint32_t>(CG.sccCallers(Scc).size());

    std::vector<std::atomic<uint8_t>> Done(NumSccs);
    for (auto &D : Done)
      D.store(0, std::memory_order_relaxed);
    std::atomic<size_t> NextCommit{0};
    std::atomic<uint64_t> Stalls{0};
    std::atomic<bool> HasErr{false};
    std::mutex SchedMu;
    std::condition_variable SchedCv;
    std::exception_ptr SchedErr; // guarded by SchedMu

    std::vector<uint32_t> ReadyQ;
    size_t ReadyHead = 0;
    auto pushReady = [&](uint32_t Scc) {
      ReadyQ.push_back(Scc);
      Report.Stats.MaxReadyQueue = std::max<uint64_t>(
          Report.Stats.MaxReadyQueue, ReadyQ.size() - ReadyHead);
    };
    for (uint32_t Scc : Seq)
      if (DepCount[Scc] == 0)
        pushReady(Scc);

    // Solves one slot (worker side). Warm probe and cold solve both run
    // here, so bundle decodes parallelize exactly like solves do.
    auto solveItem = [&](P2Item &Item) {
      trace::TraceSpan Span("solve", "scc");
      if (Span.active()) {
        Span.Args.Scc = Item.Scc;
        Span.Args.Fn = M.Funcs[Item.Members.front()].Name;
        Span.Args.Backend = Backend->name();
        Span.Args.Constraints =
            static_cast<int64_t>(ArtOfScc[Item.Scc]->ConstraintCount);
      }
      if (Item.ProbeCache) {
        if (auto Bindings =
                Cache->lookupSolution(Item.SolveKey, *Syms, Lat)) {
          for (auto &[V, Sk] : *Bindings)
            Item.Sol.Sketches.emplace(V, std::move(Sk));
          Item.SolFromCache = true;
          if (Span.active())
            Span.Args.Cache = "hit";
          return;
        }
        if (Span.active())
          Span.Args.Cache = "miss";
      }
      SccArtifact *Art = ArtOfScc[Item.Scc];
      // Residual decode: the solution probe missed, so the solver really
      // needs the constraint set this SCC's meta probe left
      // unmaterialized. (Slots don't share SCCs, so writing the artifact
      // here is race-free.)
      if (Art->Combined.empty() && Cache && Art->GenKey != Hash128{})
        if (auto Replay = Cache->materializeGen(Art->GenKey, *Syms, Lat))
          Art->Combined = std::move(Replay->C);
      if (Art->Combined.empty()) {
        Item.NeedGen = true; // gen entry vanished; commit solves inline
        return;
      }
      Item.Sol = Backend->solve(Art->Combined, Item.Wanted);
    };

    auto submitUnit = [&](std::vector<uint32_t> Unit) {
      ++Report.Stats.BatchesFormed;
      Pool.submit([&, Unit = std::move(Unit)] {
        ScopedPhaseTimer Timer("pipeline.solve");
        for (uint32_t Scc : Unit) {
          P2Item &Item = Slots[Scc];
          Clock::time_point T0 = Clock::now();
          try {
            solveItem(Item);
          } catch (...) {
            // NeedGen routes a slot the drainer already reached through
            // the deterministic inline regenerate+solve, which surfaces
            // the real error on the main thread; otherwise the drainer
            // stops on HasErr and rethrows below.
            Item.NeedGen = true;
            std::lock_guard<std::mutex> Lock(SchedMu);
            if (!SchedErr)
              SchedErr = std::current_exception();
            HasErr.store(true, std::memory_order_relaxed);
          }
          Item.SolveSecs = secondsSince(T0);
          if (SeqOf[Scc] != NextCommit.load(std::memory_order_relaxed)) {
            Stalls.fetch_add(1, std::memory_order_relaxed);
            trace::instant("commit-stall", "sched", 1, Scc);
          }
          Done[Scc].store(1, std::memory_order_release);
        }
        { std::lock_guard<std::mutex> Lock(SchedMu); }
        SchedCv.notify_one();
      });
    };

    std::vector<uint32_t> TinyBatch;
    const unsigned TinyMax = Opts.TinySccConstraints;
    constexpr size_t kMaxBatchSccs = 64;
    auto flushTiny = [&] {
      if (!TinyBatch.empty())
        submitUnit(std::exchange(TinyBatch, {}));
    };
    auto dispatch = [&](uint32_t Scc) {
      ++Report.Stats.SccsScheduled;
      if (TinyMax != 0 && ArtOfScc[Scc]->ConstraintCount < TinyMax) {
        TinyBatch.push_back(Scc);
        if (TinyBatch.size() >= kMaxBatchSccs)
          flushTiny();
      } else {
        submitUnit({Scc});
      }
    };

    // Prep one ready SCC: decide trivial/replay/solve. RefineOnly and
    // Reuse slots publish immediately and do ALL their work at the commit
    // slot — their replayed callsite pushes feed the order-sensitive
    // accumulators, so nothing may run early. Solve slots build their
    // wanted set and solve key here and dispatch to the pool; co-batched
    // solves cannot contend because every callsite variable is scoped to
    // its caller function (`fn!callee@idx`) and SCCs partition functions.
    auto prep = [&](uint32_t Scc) {
      SccArtifact *Art = ArtOfScc[Scc];
      // ConstraintCount, not Combined.empty(): a fully warm SCC keeps its
      // constraint set unmaterialized, but it still must be solved.
      if (!Art || Art->ConstraintCount == 0) {
        Done[Scc].store(1, std::memory_order_release);
        return; // stays SlotTrivial
      }
      ScopedPhaseTimer PrepTimer("pipeline.solveprep");
      P2Item &Item = Slots[Scc];
      Item.Scc = Scc;
      for (uint32_t F : CG.sccs()[Scc])
        if (!M.Funcs[F].IsExternal)
          Item.Members.push_back(F);

      // Did this SCC's refinement inputs change since the last run?
      // Final by readiness: every caller committed its records already.
      bool IncomingChanged = false;
      for (uint32_t F : Item.Members) {
        auto ActIt = ActualSketches.find(F);
        size_t Tally = ActIt == ActualSketches.end() ? 0 : ActIt->second.size();
        NewIncomingCount[M.Funcs[F].Name] = Tally;
        auto SnapIt = Snapshots.find(M.Funcs[F].Name);
        size_t Prev = SnapIt == Snapshots.end()
                          ? std::numeric_limits<size_t>::max()
                          : SnapIt->second.IncomingRecords;
        if (IncomingChangedFlag[F] || Tally != Prev)
          IncomingChanged = true;
      }

      if (P1Computed[Scc] || !Art->HasSolution)
        Item.Mode = P2Mode::Solve;
      else if (IncomingChanged)
        Item.Mode = P2Mode::RefineOnly;
      else
        Item.Mode = P2Mode::Reuse;

      if (Item.Mode != P2Mode::Solve) {
        Status[Scc] = SlotReplay;
        Done[Scc].store(1, std::memory_order_release);
        return;
      }

      Status[Scc] = SlotCompute;
      // Solve for the member procedure variables and for every callsite
      // variable (needed for parameter refinement of callees).
      for (uint32_t F : Item.Members) {
        Item.Wanted.push_back(Gen.procVar(F));
        const std::vector<uint32_t> &AllMembers = CG.sccs()[Scc];
        for (uint32_t Idx = 0; Idx < M.Funcs[F].Body.size(); ++Idx) {
          const Instr &I = M.Funcs[F].Body[Idx];
          if (I.Op != Opcode::Call || I.Target >= M.Funcs.size())
            continue;
          if (std::find(AllMembers.begin(), AllMembers.end(), I.Target) !=
              AllMembers.end())
            continue;
          SymbolId Sym;
          std::string Name = M.Funcs[F].Name + "!" +
                             M.Funcs[I.Target].Name + "@" +
                             std::to_string(Idx);
          if (!S.lookup(Name, Sym))
            continue;
          TypeVariable V = TypeVariable::var(Sym);
          Item.Wanted.push_back(V);
          Item.CallsiteVars.push_back({I.Target, V});
        }
      }
      // The raw solution is a pure function of (canonical constraint
      // set, wanted names) — content-address it like schemes, so warm
      // runs replay sketches through the codec instead of re-solving.
      // Only the key is computed here; the probe (payload copy + bundle
      // decode) runs inside the pool work unit, alongside the solves.
      if (Cache && !Item.Wanted.empty()) {
        // Phase 1 already hashed this SCC's canonical set; artifacts
        // replayed from a cacheless earlier run ({0,0}) hash on demand.
        Hash128 SetHash = Art->SetHash;
        if (SetHash == Hash128{}) {
          ScopedPhaseTimer HashTimer("cache.hash");
          SetHash = canonicalSetHash(Art->Combined, S, Lat);
          Art->SetHash = SetHash;
        }
        std::vector<std::string> Names;
        Names.reserve(Item.Wanted.size());
        for (TypeVariable V : Item.Wanted)
          Names.push_back(S.name(V.symbol()));
        Item.SolveKey =
            SummaryCache::solveKeyFor(SetHash, Names, Backend->kind());
        Item.ProbeCache = true;
      }
      dispatch(Scc);
    };

    // Commit one slot (strictly in top-down sequence order) and release
    // its callees. All refinement, sketch assignment, and callsite-record
    // pushes happen here, so the accumulators see contributions in
    // exactly the historical order.
    auto commit = [&](uint32_t Scc) {
      P2Item &Item = Slots[Scc];
      if (Status[Scc] == SlotTrivial) {
        for (uint32_t T : CG.sccCallees(Scc))
          if (--DepCount[T] == 0)
            pushReady(T);
        return;
      }
      SccArtifact *Art = ArtOfScc[Scc];
      switch (Item.Mode) {
      case P2Mode::Solve: {
        ++Report.Stats.SccsSolved;
        // Fallback for vanished gen entries: regenerate deterministically
        // and solve inline (rare — requires eviction between the meta
        // probe and the slot's solve).
        if (Item.NeedGen) {
          Clock::time_point T0 = Clock::now();
          const std::vector<uint32_t> &AllMembers = CG.sccs()[Scc];
          std::set<uint32_t> Mates(AllMembers.begin(), AllMembers.end());
          ConstraintSet C;
          for (uint32_t F : Item.Members) {
            GenResult R = Gen.generate(F, Schemes, Mates);
            if (Item.Members.size() == 1)
              C = std::move(R.C);
            else
              C.merge(R.C);
          }
          C.canonicalize(S, Lat);
          Art->Combined = std::move(C);
          Item.Sol = Backend->solve(Art->Combined, Item.Wanted);
          Item.NeedGen = false;
          Item.SolveSecs += secondsSince(T0);
        }
        Report.Stats.SolveSecs += Item.SolveSecs;
        // Full verification inspects every sketch decoded from the
        // summary cache/store before anything derives from it. Iterating
        // Wanted (not the solution map) keeps the diagnostic order
        // deterministic.
        if (VL == VerifyLevel::Full && Item.SolFromCache)
          for (TypeVariable V : Item.Wanted) {
            std::string VName = V.isVar() && V.symbol() < S.size()
                                    ? S.name(V.symbol())
                                    : "<invalid>";
            verifySketch(Item.Sol.sketchFor(V), Lat,
                         "phase2 cached solution for '" + VName + "'",
                         VDiags);
          }
        if (Cache && !Item.SolFromCache && !Item.Wanted.empty()) {
          std::vector<std::pair<TypeVariable, const Sketch *>> Entries;
          Entries.reserve(Item.Wanted.size());
          for (TypeVariable V : Item.Wanted)
            Entries.push_back({V, &Item.Sol.sketchFor(V)});
          Cache->insertSolution(Item.SolveKey, Entries, S, Lat,
                                Backend->kind());
        }
        // Records carry the callee *name* for cross-run replay (name keys
        // survive id shifts), but this run's pushes below use the known
        // callee *id* from CallsiteVars — name lookup would misdirect
        // refinement when the module holds duplicate function names.
        std::vector<std::pair<std::string, Sketch>> NewRecords;
        NewRecords.reserve(Item.CallsiteVars.size());
        for (const auto &[Callee, Var] : Item.CallsiteVars)
          NewRecords.push_back(
              {M.Funcs[Callee].Name, Item.Sol.sketchFor(Var)});

        // Flag callees whose records from this SCC differ from the
        // previous run (per-callee comparison keeps the dirtiness cone
        // tight: an edit that re-solves to the same actuals stops here).
        // Group both record lists by callee once, not per callsite.
        const bool HadRecords = Art->HasSolution;
        std::unordered_map<std::string, std::vector<const Sketch *>> OldBy,
            NewBy;
        if (HadRecords)
          for (const auto &[N2, Sk] : Art->CallsiteRecords)
            OldBy[N2].push_back(&Sk);
        for (const auto &[N2, Sk] : NewRecords)
          NewBy[N2].push_back(&Sk);
        std::unordered_set<uint32_t> FlaggedCallees;
        for (const auto &[Callee, Var] : Item.CallsiteVars) {
          (void)Var;
          if (!FlaggedCallees.insert(Callee).second)
            continue; // one comparison per distinct callee
          auto SameRecords = [&] {
            if (!HadRecords)
              return false;
            const auto &Old = OldBy[M.Funcs[Callee].Name];
            const auto &New = NewBy[M.Funcs[Callee].Name];
            if (Old.size() != New.size())
              return false;
            for (size_t I = 0; I < Old.size(); ++I)
              if (!Sketch::equal(*Old[I], *New[I], Lat))
                return false;
            return true;
          };
          if (!SameRecords())
            IncomingChangedFlag[Callee] = 1;
        }

        Art->RawSketches.clear();
        Art->FinalSketches.clear();
        {
          trace::TraceSpan RefineSpan("refine", "scc");
          uint64_t Joins = 0;
          if (RefineSpan.active()) {
            RefineSpan.Args.Scc = Scc;
            RefineSpan.Args.Fn = M.Funcs[Item.Members.front()].Name;
            RefineSpan.Args.Backend = Backend->name();
          }
          for (uint32_t F : Item.Members) {
            Sketch Raw = Item.Sol.sketchFor(Gen.procVar(F));
            if (KeepHist)
              Art->RawSketches.push_back(Raw);
            auto ActIt = ActualSketches.find(F);
            static const std::vector<Sketch> None;
            Sketch Final = refineSketch(
                std::move(Raw), F,
                ActIt == ActualSketches.end() ? None : ActIt->second,
                RefineSpan.active() ? &Joins : nullptr);
            if (VL != VerifyLevel::Off)
              verifySketch(Final, Lat,
                           "phase2 sketch '" + M.Funcs[F].Name + "'",
                           VDiags);
            if (KeepHist)
              Art->FinalSketches.push_back(Final);
            Report.Funcs[F].FuncSketch = std::move(Final);
          }
          if (RefineSpan.active())
            RefineSpan.Args.JoinOps = static_cast<int64_t>(Joins);
        }
        for (size_t I = 0; I < Item.CallsiteVars.size(); ++I)
          ActualSketches[Item.CallsiteVars[I].first].push_back(
              NewRecords[I].second);
        if (KeepHist) {
          Art->CallsiteRecords = std::move(NewRecords);
          Art->HasSolution = true;
        }
        // Drop per-slot scratch early: slots live to the end of the
        // phase, the report and artifacts carry everything that matters.
        Item.Sol = SketchSolution();
        Item.Wanted = {};
        break;
      }
      case P2Mode::RefineOnly: {
        ++Report.Stats.SccsRefinedOnly;
        trace::TraceSpan RefineSpan("refine", "scc");
        uint64_t Joins = 0;
        if (RefineSpan.active()) {
          RefineSpan.Args.Scc = Scc;
          RefineSpan.Args.Fn = M.Funcs[Item.Members.front()].Name;
          RefineSpan.Args.Backend = Backend->name();
          RefineSpan.Args.Cache = "refine-only";
        }
        for (size_t I = 0; I < Item.Members.size(); ++I) {
          uint32_t F = Item.Members[I];
          auto ActIt = ActualSketches.find(F);
          static const std::vector<Sketch> None;
          Sketch Final = refineSketch(
              Art->RawSketches[I], F,
              ActIt == ActualSketches.end() ? None : ActIt->second,
              RefineSpan.active() ? &Joins : nullptr);
          if (VL != VerifyLevel::Off)
            verifySketch(Final, Lat,
                         "phase2 sketch '" + M.Funcs[F].Name + "'", VDiags);
          Art->FinalSketches[I] = Final;
          Report.Funcs[F].FuncSketch = std::move(Final);
        }
        if (RefineSpan.active())
          RefineSpan.Args.JoinOps = static_cast<int64_t>(Joins);
        // Replay pushes resolve callee names against the current module;
        // safe because artifact replay never happens under duplicate names
        // (DupNames forces AllDirty, so every SCC takes the Solve path).
        for (const auto &[CalleeName, Sk] : Art->CallsiteRecords)
          if (auto CalleeId = M.findFunction(CalleeName))
            ActualSketches[*CalleeId].push_back(Sk);
        break;
      }
      case P2Mode::Reuse: {
        ++Report.Stats.SccsSolveReused;
        for (size_t I = 0; I < Item.Members.size(); ++I) {
          // Replayed final sketches are only re-inspected under Full —
          // like reused schemes, they were verified when first computed.
          if (VL == VerifyLevel::Full)
            verifySketch(Art->FinalSketches[I], Lat,
                         "phase2 reused sketch '" +
                             M.Funcs[Item.Members[I]].Name + "'",
                         VDiags);
          Report.Funcs[Item.Members[I]].FuncSketch = Art->FinalSketches[I];
        }
        for (const auto &[CalleeName, Sk] : Art->CallsiteRecords)
          if (auto CalleeId = M.findFunction(CalleeName))
            ActualSketches[*CalleeId].push_back(Sk);
        break;
      }
      }
      trace::instant("commit", "sched", -1, Scc);
      for (uint32_t T : CG.sccCallees(Scc))
        if (--DepCount[T] == 0)
          pushReady(T);
    };

    // The drainer loop — same priorities as phase 1: commit, prep, flush
    // tiny batch, help the pool, sleep only when the next slot is in
    // flight on a worker.
    size_t Next = 0;
    const size_t N = Seq.size();
    while (Next < N) {
      if (HasErr.load(std::memory_order_relaxed))
        break;
      uint32_t Scc = Seq[Next];
      if (Done[Scc].load(std::memory_order_acquire)) {
        commit(Scc);
        ++Next;
        NextCommit.store(Next, std::memory_order_relaxed);
        continue;
      }
      if (ReadyHead < ReadyQ.size()) {
        prep(ReadyQ[ReadyHead++]);
        continue;
      }
      if (!TinyBatch.empty()) {
        flushTiny();
        continue;
      }
      if (Pool.tryRunOne())
        continue;
      std::unique_lock<std::mutex> Lock(SchedMu);
      SchedCv.wait(Lock, [&] {
        return Done[Scc].load(std::memory_order_acquire) ||
               HasErr.load(std::memory_order_relaxed);
      });
    }
    // Teardown join, not a scheduling barrier (see phase 1).
    Pool.waitAll();
    Report.Stats.CommitStalls += Stalls.load(std::memory_order_relaxed);
    {
      std::exception_ptr E;
      {
        std::lock_guard<std::mutex> Lock(SchedMu);
        E = SchedErr;
      }
      if (E)
        std::rethrow_exception(E);
    }
  }

  // Cache effectiveness across both phases (scheme AND solution probes).
  if (Cache) {
    Report.Stats.CacheHits = Cache->hits() - Hits0;
    Report.Stats.CacheMisses = Cache->misses() - Misses0;
  }

  // ---- Phase 3: C type conversion (§4.3) ----
  {
    Clock::time_point T0 = Clock::now();
    ScopedPhaseTimer Timer("pipeline.convert");
    trace::TraceSpan Span("convert", "phase");
    CTypeConverter Conv(Report.Pool, Lat, Opts.Conversion);
    for (auto &[F, FT] : Report.Funcs)
      FT.CType = Conv.convertFunction(FT.FuncSketch);
    Report.Stats.ConvertSecs += secondsSince(T0);
  }

  // ---- Record this run's snapshots for the next incremental analyze ----
  if (KeepHist) {
    std::unordered_map<std::string, FuncSnapshot> NewSnaps;
    NewSnaps.reserve(M.Funcs.size());
    for (uint32_t F = 0; F < M.Funcs.size(); ++F) {
      const std::string &Name = M.Funcs[F].Name;
      FuncSnapshot Snap;
      Snap.BodyHash = BodyHashes[F];
      auto HashIt = NewSchemeHashes.find(Name);
      Snap.SchemeHash =
          HashIt != NewSchemeHashes.end() ? HashIt->second : kNoSchemeHash;
      auto CntIt = NewIncomingCount.find(Name);
      Snap.IncomingRecords =
          CntIt != NewIncomingCount.end() ? CntIt->second : 0;
      NewSnaps.emplace(Name, std::move(Snap));
    }
    Snapshots = std::move(NewSnaps);
    Artifacts = std::move(NewArtifacts);
    GlobalsSig = std::move(GSig);
  } else {
    Snapshots.clear();
    Artifacts.clear();
    GlobalsSig.clear();
  }
  DirtyNames.clear();

  // ---- Journal this run's new artifacts to the durable store ----------
  // The report is already complete and correct at this point; a failed
  // flush only costs durability, so it is surfaced via storeError()
  // rather than aborting the run. A later successful flush clears the
  // error: it re-appends everything the store is missing, so the failed
  // attempt leaves no lasting gap.
  if (Cache && Cache->store()) {
    trace::TraceSpan Span("store.flush", "store");
    std::string FlushErr;
    if (Cache->flushToStore(&FlushErr))
      StoreError.clear();
    else
      StoreError = FlushErr;
  }
  Report.StoreError = StoreError;
  const CounterSnapshot CounterDelta = Counters0.delta();
  Report.Stats.StoreHits = CounterDelta.StoreHits;
  Report.Stats.StoreAppends = CounterDelta.StoreAppends;
  Report.Stats.PoolBindHits = CounterDelta.PoolBindHits;
  Report.VerifyErrors = std::move(VDiags.Errors);

  Analyzed = true;
  return Report;
}
