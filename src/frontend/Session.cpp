//===- Session.cpp - Long-lived incremental analysis engine ---------------===//
//
// The resident engine. analyze() is a short orchestrator over phase
// functions that share one per-run state (RunState). Both inference phases
// run on the one readiness scheduler, support/DagScheduler: every SCC owns
// a commit slot at its fixed position in the bottom-up (phase 1) or
// top-down (phase 2) sequence, becomes ready the moment its last
// dependency SCC commits, and is then prepped by the main thread —
// generation is not thread-safe, so it stays there — and dispatched to the
// thread pool for simplification/solving. Slots commit on the main thread
// strictly in sequence order, which replays the exact sequential schedule
// and keeps reports byte-identical for every --jobs value. The previous
// run's per-SCC artifacts are consulted at prep:
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
#include "support/DagScheduler.h"
#include "support/Stats.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
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

/// Phase-1 commit slot for an SCC. The main thread preps it when its last
/// callee commits (gen-cache META probe inline — no constraints
/// materialized — and generation of misses); simplification runs on the
/// pool and lazily materializes the constraint set only when a member's
/// scheme probe misses; the slot is then committed on the main thread in
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

/// Phase-2 commit slot per SCC. Solve-mode slots are computed on the pool;
/// RefineOnly/Reuse slots are replays that do all their work at the
/// sequence-ordered commit (callsite-sketch pushes are join-order-
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

/// Phase 0: IR-level interface recovery + library summaries. Returns the
/// known-function schemes phase 1 starts from.
std::unordered_map<uint32_t, TypeScheme>
runPhase0(Module &M, SymbolTable &S, const Lattice &Lat) {
  ScopedPhaseTimer Timer("pipeline.phase0");
  trace::TraceSpan Span("phase0", "phase");
  std::unordered_map<uint32_t, TypeScheme> Schemes;
  recoverInterfaces(M);
  registerKnownFunctions(M, S, Lat, Schemes);
  return Schemes;
}

/// Executor count for --jobs \p Jobs (0 = one per hardware thread).
unsigned resolveJobs(unsigned Jobs) {
  return Jobs != 0 ? Jobs : std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

/// Everything one analyze() run shares between its phases: references to
/// the session state it reads and publishes, the run's engine objects, and
/// the bookkeeping each phase hands to the next. Each phase is a member
/// function; analyze() calls them in order.
struct AnalysisSession::RunState {
  RunState(AnalysisSession &Sess,
           std::unordered_map<uint32_t, TypeScheme> KnownSchemes);

  void detectEdits();
  void inferSchemes();  ///< phase 1 (Algorithm F.1)
  void solveSketches(); ///< phase 2 (Algorithm F.2)
  void convertTypes();  ///< phase 3 (§4.3)
  void recordHistory();
  void journalStore();

private:
  DagPrep prepScheme(P1Item &Item);
  void generateSlot(P1Item &Item);
  bool simplifyItem(P1Item &Item);
  void commitScheme(P1Item &Item, DagNodeKind Kind);
  DagPrep prepSolve(P2Item &Item);
  void solveItem(P2Item &Item);
  void commitSketches(P2Item &Item, DagNodeKind Kind);
  void commitSolve(P2Item &Item, SccArtifact &Art);

  void publishScheme(uint32_t F, TypeScheme Scheme);
  ConstraintSet generateScc(uint32_t Scc, const std::vector<uint32_t> &Members,
                            std::unordered_set<TypeVariable> *Interesting,
                            std::vector<TypeVariable> *Callsites);
  void refineMembers(uint32_t Scc, const std::vector<uint32_t> &Members,
                     std::vector<Sketch> Raw, SccArtifact &Art,
                     const char *CacheTag);
  /// Runs one phase on the DAG scheduler: phase 1 bottom-up (callees
  /// commit first), phase 2 top-down.
  void schedule(bool BottomUp, const DagScheduler::PrepFn &Prep,
                const DagScheduler::ComputeFn &Compute,
                const DagScheduler::CommitFn &Commit);

  AnalysisSession &Sess;
  Module &M;
  const Lattice &Lat;
  SymbolTable &S;
  TypeReport &Report;
  const SessionOptions &Opts;
  // Formation-rule verification (core/Verifier.h). All hooks sit at the
  // main-thread, sequence-ordered commit points, so the diagnostics come
  // out in the same deterministic order at any Jobs value and the
  // verifier never races the workers. With Verify == Off not a single
  // check runs.
  const VerifyLevel VL;
  VerifyDiags VDiags;
  const bool KeepHist;

  std::unordered_map<uint32_t, TypeScheme> Schemes;
  CallGraph CG;
  ConstraintGenerator Gen;
  // The solver seam: phase 1 (simplify) and phase 2 (solve) only ever
  // dispatch through this backend. Its entry points are const and
  // thread-safe, so pool workers share the one instance.
  const std::unique_ptr<SolverBackend> Backend;
  SummaryCache *const Cache;
  ThreadPool Pool;
  const size_t NumSccs;
  // Generation-cache key plumbing: the environment signature is shared by
  // every function's key, and callee scheme hashes are memoized per run —
  // phase 1 commits bottom-up, so a callee's scheme is final before any
  // caller's key needs its hash.
  const Hash128 GenEnvSig;
  std::unordered_map<uint32_t, Hash128> SchemeHashMemo;
  uint64_t Hits0 = 0, Misses0 = 0;
  CounterSnapshot Counters0;

  // Edit detection.
  std::string GSig;
  bool AllDirty = false;
  bool DupNames = false;
  std::vector<Hash128> BodyHashes;
  std::vector<char> Edited;
  /// Scheme-change tracking by name, filled bottom-up.
  std::unordered_map<std::string, char> SchemeChanged;
  std::unordered_map<std::string, Hash128> NewSchemeHashes;

  // Phase 1 -> phase 2.
  std::unordered_map<std::string, SccArtifact> NewArtifacts;
  std::vector<SccArtifact *> ArtOfScc;
  std::vector<char> P1Computed;

  // Phase 2: join of actual-in/out sketches observed at callsites, per
  // callee (Algorithm F.3 accumulators); per function, whether some caller
  // contributed records that differ from the previous run (forces the
  // callee's SCC to at least re-refine).
  std::map<uint32_t, std::vector<Sketch>> ActualSketches;
  std::vector<char> IncomingChangedFlag;
  std::unordered_map<std::string, size_t> NewIncomingCount;
};

AnalysisSession::RunState::RunState(
    AnalysisSession &Sess, std::unordered_map<uint32_t, TypeScheme> Known)
    : Sess(Sess), M(Sess.M), Lat(Sess.Lat), S(*Sess.Syms),
      Report(Sess.Report), Opts(Sess.Opts), VL(Opts.Verify),
      KeepHist(Opts.KeepHistory), Schemes(std::move(Known)), CG(M),
      Gen(S, Lat, M),
      Backend(makeSolverBackend(Opts.Backend, S, Lat, Opts.Simplify)),
      Cache(Sess.activeCache()),
      // The main thread is an executor too (the drainer runs work units
      // between commits), so Jobs executors means Jobs - 1 pool workers,
      // and total executors are capped at the machine width: runnable
      // threads beyond the core count add preemption, never progress (on
      // a single hardware thread --jobs N drains inline, workerless).
      // Output bytes never depend on worker count — commit order is
      // fixed by sequence numbers — so the cap is invisible outside
      // timing.
      Pool(std::min(resolveJobs(Opts.Jobs), resolveJobs(0)) - 1),
      NumSccs(CG.sccs().size()),
      GenEnvSig(Cache ? ConstraintGenerator::envSig(M, Lat) : Hash128{}),
      ArtOfScc(NumSccs, nullptr), P1Computed(NumSccs, 0),
      IncomingChangedFlag(M.Funcs.size(), 0) {
  Report.Stats.JobsUsed = resolveJobs(Opts.Jobs);
  Report.Stats.Backend = Backend->name();
  Report.Stats.SccCount = NumSccs;
  Report.Stats.WaveCount = CG.bottomUpWaves().size();
  for (const auto &W : CG.bottomUpWaves())
    Report.Stats.WidestWave = std::max(Report.Stats.WidestWave, W.size());
  Hits0 = Cache ? Cache->hits() : 0;
  Misses0 = Cache ? Cache->misses() : 0;
  // SummaryCache hits/misses are instance counters (snapshotted above);
  // everything process-global goes through one CounterSnapshot.
  Counters0 = CounterSnapshot::take();
}

void AnalysisSession::RunState::detectEdits() {
  const bool HadHistory = !Sess.Snapshots.empty();
  Report.Stats.IncrementalRun = HadHistory;
  GSig = KeepHist ? renderGlobalsSig(M) : std::string();
  // Incremental artifacts are keyed by function name; duplicate names make
  // that keying unsound, so fall back to a full run (and key by SCC id so
  // nothing collides).
  std::unordered_set<std::string> Seen;
  for (const Function &F : M.Funcs)
    if (!Seen.insert(F.Name).second)
      DupNames = true;
  AllDirty = !HadHistory || GSig != Sess.GlobalsSig || DupNames;

  BodyHashes.resize(M.Funcs.size());
  Edited.assign(M.Funcs.size(), 0);
  for (uint32_t F = 0; F < M.Funcs.size(); ++F) {
    if (KeepHist)
      BodyHashes[F] = hashBytes(renderBodyText(M, M.Funcs[F]));
    auto SnapIt = Sess.Snapshots.find(M.Funcs[F].Name);
    Edited[F] = AllDirty || Sess.DirtyNames.count(M.Funcs[F].Name) != 0 ||
                SnapIt == Sess.Snapshots.end() ||
                SnapIt->second.BodyHash != BodyHashes[F];
    if (Edited[F])
      ++Report.Stats.FunctionsDirty;
  }

  // Externals get their (fixed) known-function scheme hash up front,
  // which also catches internal<->external flips.
  if (KeepHist)
    for (uint32_t F = 0; F < M.Funcs.size(); ++F) {
      if (!M.Funcs[F].IsExternal)
        continue;
      auto KnownIt = Schemes.find(F);
      Hash128 H = KnownIt != Schemes.end()
                      ? schemeStructuralHash(KnownIt->second, S, Lat)
                      : kNoSchemeHash;
      auto SnapIt = Sess.Snapshots.find(M.Funcs[F].Name);
      SchemeChanged[M.Funcs[F].Name] =
          AllDirty || SnapIt == Sess.Snapshots.end() ||
          SnapIt->second.SchemeHash != H;
      NewSchemeHashes[M.Funcs[F].Name] = H;
    }
}

// Makes \p Scheme F's scheme, for its callers' generation and the report.
void AnalysisSession::RunState::publishScheme(uint32_t F, TypeScheme Scheme) {
  Schemes[F] = Scheme;
  FunctionTypes &FT = Report.Funcs[F];
  FT.Scheme = std::move(Scheme);
  FT.NumParams = M.Funcs[F].NumStackParams +
                 static_cast<unsigned>(M.Funcs[F].RegParams.size());
}

ConstraintSet AnalysisSession::RunState::generateScc(
    uint32_t Scc, const std::vector<uint32_t> &Members,
    std::unordered_set<TypeVariable> *Interesting,
    std::vector<TypeVariable> *Callsites) {
  const std::vector<uint32_t> &AllMembers = CG.sccs()[Scc];
  std::set<uint32_t> Mates(AllMembers.begin(), AllMembers.end());
  ConstraintSet C;
  for (uint32_t F : Members) {
    GenResult R = Gen.generate(F, Schemes, Mates);
    if (Members.size() == 1)
      C = std::move(R.C); // single member: no merge
    else
      C.merge(R.C);
    if (Interesting)
      Interesting->insert(R.Interesting.begin(), R.Interesting.end());
    if (Callsites)
      Callsites->insert(Callsites->end(), R.Callsites.begin(),
                        R.Callsites.end());
  }
  // Canonicalize the combined set before any solving: simplifier τ
  // numbering and solver traversals follow constraint order, and the
  // Tarjan member order that produced it can flip when *other* parts of
  // the call graph change. The structural sort makes every downstream
  // result (and the summary cache key hashed from the same canonical
  // order) a pure function of the constraint *set*, which both the cache
  // and incremental reuse depend on — with no canonical text ever
  // materialized.
  C.canonicalize(S, Lat);
  return C;
}

void AnalysisSession::RunState::schedule(bool BottomUp,
                                         const DagScheduler::PrepFn &Prep,
                                         const DagScheduler::ComputeFn &Compute,
                                         const DagScheduler::CommitFn &Commit) {
  auto Callees = std::bind_front(&CallGraph::sccCallees, &CG);
  auto Callers = std::bind_front(&CallGraph::sccCallers, &CG);
  DagScheduler Sched(Pool, BottomUp ? CG.bottomUpOrder() : CG.topDownOrder(),
                     BottomUp ? Callees : Callers, BottomUp ? Callers : Callees,
                     Opts.TinySccConstraints);
  DagSchedulerStats St = Sched.run(Prep, Compute, Commit);
  Report.Stats.SccsScheduled += St.Scheduled;
  Report.Stats.BatchesFormed += St.Batches;
  Report.Stats.MaxReadyQueue =
      std::max(Report.Stats.MaxReadyQueue, St.MaxReadyQueue);
  Report.Stats.CommitStalls += St.CommitStalls;
}

//===----------------------------------------------------------------------===//
// Phase 1: bottom-up scheme inference (Algorithm F.1)
//===----------------------------------------------------------------------===//
//
// Every SCC owns a commit slot at its fixed position in the bottom-up
// sequence (a topological order identical for every --jobs value). The
// main thread preps an SCC the moment its last callee SCC commits (reuse
// check, gen-cache meta probe, inline generation — the constraint
// generator is not thread-safe), simplification runs on the pool, and
// slots commit strictly in sequence order. Readiness is driven by commits,
// so everything a prep reads (Schemes, SchemeChanged, the artifact maps)
// is final when it runs; and because the commit order replays the exact
// sequential schedule, report bytes cannot depend on scheduling. Workers
// only simplify: each writes its own slot and never touches shared
// session state.

void AnalysisSession::RunState::inferSchemes() {
  trace::TraceSpan PhaseSpan("phase1", "phase");
  std::vector<P1Item> Slots(NumSccs);
  auto Prep = [&](uint32_t Scc) {
    Slots[Scc].Scc = Scc;
    return prepScheme(Slots[Scc]);
  };
  auto Compute = [&](uint32_t Scc) {
    ScopedPhaseTimer Timer("pipeline.simplify");
    P1Item &Item = Slots[Scc];
    Clock::time_point T0 = Clock::now();
    Item.SimplifyFailed = !simplifyItem(Item);
    Item.SimplifySecs = secondsSince(T0);
  };
  auto Commit = [&](uint32_t Scc, DagNodeKind Kind) {
    commitScheme(Slots[Scc], Kind);
  };
  schedule(/*BottomUp=*/true, Prep, Compute, Commit);
}

DagPrep AnalysisSession::RunState::prepScheme(P1Item &Item) {
  const uint32_t Scc = Item.Scc;
  for (uint32_t F : CG.sccs()[Scc]) {
    if (M.Funcs[F].IsExternal)
      continue;
    Item.Members.push_back(F);
    Item.MemberNames.push_back(M.Funcs[F].Name);
  }
  if (Item.Members.empty())
    return {DagNodeKind::Trivial};
  std::string Key = joinKey(Item.MemberNames);
  if (DupNames) // names collide, so key by SCC id too (see detectEdits)
    Key += '#' + std::to_string(Scc);

  // ---- Reuse check: unchanged members, unchanged callee schemes. Sound
  // to evaluate here because every callee committed before this SCC
  // became ready — their SchemeChanged entries are final.
  auto ArtIt = Sess.Artifacts.find(Key);
  bool Reusable = !AllDirty && ArtIt != Sess.Artifacts.end() &&
                  ArtIt->second.MemberNames == Item.MemberNames;
  for (size_t I = 0; Reusable && I < Item.Members.size(); ++I) {
    const std::vector<uint32_t> &Callees = CG.callees(Item.Members[I]);
    Reusable = !Edited[Item.Members[I]];
    for (size_t C = 0; Reusable && C < Callees.size(); ++C) {
      auto ChIt = SchemeChanged.find(M.Funcs[Callees[C]].Name);
      Reusable = CG.sccOf(Callees[C]) == Scc ||
                 (ChIt != SchemeChanged.end() && !ChIt->second);
    }
  }
  if (Reusable) {
    // Apply the replay effects now: they are keyed, single-writer
    // map/report writes, so their order across SCCs is immaterial.
    // Full-mode verification of the replayed schemes waits for the commit
    // slot, keeping diagnostics in sequence order.
    auto Ins = NewArtifacts.insert(Sess.Artifacts.extract(ArtIt));
    SccArtifact *Reused = &Ins.position->second;
    for (size_t I = 0; I < Item.Members.size(); ++I) {
      publishScheme(Item.Members[I], Reused->MemberSchemes[I]);
      SchemeChanged[Item.MemberNames[I]] = 0;
      NewSchemeHashes[Item.MemberNames[I]] = Reused->MemberSchemeHashes[I];
    }
    Report.ConstraintsGenerated += Reused->ConstraintCount;
    ArtOfScc[Scc] = Reused;
    ++Report.Stats.SccsReused;
    Report.Stats.SchemesReused += Item.Members.size();
    return {DagNodeKind::Replay};
  }

  // ---- Compute path: key + meta-probe + generate inline, then hand
  // simplification to the pool. The meta probe overlaps with compute
  // naturally here — other SCCs are simplifying on the workers while the
  // main thread preps.
  P1Computed[Scc] = 1;
  ++Report.Stats.SccsSimplified;
  Item.Key = std::move(Key);
  Clock::time_point T0 = Clock::now();
  generateSlot(Item);
  Report.Stats.GenerateSecs += secondsSince(T0);
  return {DagNodeKind::Compute, Item.ConstraintCount};
}

void AnalysisSession::RunState::generateSlot(P1Item &Item) {
  ScopedPhaseTimer Timer("pipeline.generate");
  trace::TraceSpan GenSpan("generate", "scc");
  if (GenSpan.active()) {
    GenSpan.Args.Scc = Item.Scc;
    GenSpan.Args.Fn = Item.MemberNames.front();
    GenSpan.Args.Backend = Backend->name();
  }

  // Generation is content-addressed: the SCC's gen key combines the
  // per-member dependency keys (own body, callee interfaces + scheme
  // hashes, SCC membership, globals table, lattice — see
  // ConstraintGenerator::genKey), and the cached payload is the merged,
  // canonicalized combined set with its structural hash. A hit therefore
  // replays exactly what generateScc + hashing would produce — byte for
  // byte — including the callsite variables the phase-2 solve-prep probe
  // expects to find interned (the meta decoder interns them).
  if (Cache) {
    {
      ScopedPhaseTimer KeyTimer("gencache.key");
      const std::vector<uint32_t> &AllMembers = CG.sccs()[Item.Scc];
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
    // constraint set is materialized; the residual decode happens inside
    // a simplify/solve worker if (and only if) a downstream probe misses.
    Item.Meta = Cache->lookupGenMeta(Item.GenKey, S, Lat);
  }
  if (Item.Meta) {
    // Replayed: adopt the meta; the constraints stay encoded until a
    // scheme or solution probe actually needs them.
    Item.SetHash = Item.Meta->SetHash;
    Item.Interesting.insert(Item.Meta->Interesting.begin(),
                            Item.Meta->Interesting.end());
    Item.ConstraintCount = static_cast<size_t>(Item.Meta->ConstraintCount);
    ++Report.Stats.GenCacheHits;
  } else {
    if (Item.HasGenKey)
      ++Report.Stats.GenCacheMisses;
    std::vector<TypeVariable> Callsites;
    Item.Combined = generateScc(Item.Scc, Item.Members, &Item.Interesting,
                                Cache ? &Callsites : nullptr);
    Item.HasCombined = true;
    Item.ConstraintCount = Item.Combined.size();
    if (Cache) {
      {
        ScopedPhaseTimer HashTimer("cache.hash");
        Item.SetHash = canonicalSetHash(Item.Combined, S, Lat);
      }
      std::vector<TypeVariable> Interesting(Item.Interesting.begin(),
                                            Item.Interesting.end());
      Cache->insertGen(Item.GenKey, Item.Combined, Item.SetHash, Interesting,
                       Callsites, S, Lat);
    }
  }
  if (GenSpan.active()) {
    GenSpan.Args.Constraints = static_cast<int64_t>(Item.ConstraintCount);
    if (Item.HasGenKey)
      GenSpan.Args.Cache = Item.Meta ? "hit" : "miss";
  }
  Report.ConstraintsGenerated += Item.ConstraintCount;
}

// Simplifies every member of one slot (worker side); returns false when
// the slot needed its (lazily replayed) constraint set but the cache entry
// vanished between the meta probe and the residual decode.
bool AnalysisSession::RunState::simplifyItem(P1Item &Item) {
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
  // member's scheme probe misses: the fully warm path hands every member a
  // cache hit and never touches the constraint set.
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
    // The member's scheme keeps its SCC-mates and globals interesting. One
    // structural hash per SCC (computed during generation) keys every
    // member's cache probe.
    std::unordered_set<TypeVariable> Keep = Item.Interesting;
    for (uint32_t Mate : AllMembers)
      if (Mate != F)
        Keep.insert(Gen.procVar(Mate));
    bool FromCache = false;
    auto Scheme =
        Sess.summarize(Constraints, Item.SetHash, Gen.procVar(F), Keep,
                       *Backend, Cache, Span.active() ? &FromCache : nullptr);
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
}

void AnalysisSession::RunState::commitScheme(P1Item &Item, DagNodeKind Kind) {
  const uint32_t Scc = Item.Scc;
  if (Kind == DagNodeKind::Trivial)
    return;
  if (Kind == DagNodeKind::Replay) {
    // Full verification covers replayed artifacts too: a stale or
    // corrupted incremental replay surfaces here instead of as a wrong
    // report. The allowed-free set of a replayed scheme is not recorded,
    // so the closure check is skipped (nullptr).
    if (VL == VerifyLevel::Full)
      for (size_t I = 0; I < Item.Members.size(); ++I)
        verifyScheme(ArtOfScc[Scc]->MemberSchemes[I], S, Lat, nullptr,
                     "phase1 reused scheme '" + Item.MemberNames[I] + "'",
                     VDiags);
    return;
  }
  // Fallback for vanished gen entries (evicted or pruned since the meta
  // probe): regenerate the set — deterministic, so identical to what the
  // replay would have produced — and redo the slot inline.
  if (Item.SimplifyFailed) {
    Clock::time_point T0 = Clock::now();
    Item.Combined = generateScc(Scc, Item.Members, nullptr, nullptr);
    Item.HasCombined = true;
    Item.SimplifyFailed = !simplifyItem(Item);
    Item.SimplifySecs += secondsSince(T0);
  }
  Report.Stats.SimplifySecs += Item.SimplifySecs;
  // Verify what this SCC is about to commit: the combined constraint set
  // when it was materialized this run (fresh generation, or — in Full mode
  // the interesting case — a residual decode straight off the cache/store
  // bytes), including the canonical-order invariant the content keys and
  // the binary codec rely on.
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
  // Carry the previous run's callsite records forward (same member set):
  // they are the baseline the phase-2 Solve commit compares against,
  // which lets an edit that re-solves to identical actuals stop dirtying
  // its callees. The stale raw/final sketches ride along but are
  // unreachable — P1Computed forces Solve mode, which overwrites them
  // before any replay path could read them.
  if (auto OldIt = Sess.Artifacts.find(Item.Key);
      OldIt != Sess.Artifacts.end() && OldIt->second.HasSolution) {
    Art.CallsiteRecords = std::move(OldIt->second.CallsiteRecords);
    Art.HasSolution = true;
  }
  for (size_t I = 0; I < Item.Members.size(); ++I) {
    uint32_t F = Item.Members[I];
    const std::string &Name = Item.MemberNames[I];
    if (KeepHist) {
      Hash128 H = schemeStructuralHash(Item.Schemes[I], S, Lat);
      auto SnapIt = Sess.Snapshots.find(Name);
      SchemeChanged[Name] = AllDirty || SnapIt == Sess.Snapshots.end() ||
                            SnapIt->second.SchemeHash != H;
      Art.MemberSchemeHashes.push_back(H);
      NewSchemeHashes[Name] = H;
    }
    // Scheme closure: besides its own bound variables the scheme may
    // mention exactly what simplification was told to keep — the SCC's
    // interesting variables plus its mates' procedure variables. Anything
    // else escaping is a formation violation (whether the scheme was
    // computed here or decoded from the cache; both commit through this
    // path).
    if (VL != VerifyLevel::Off) {
      std::unordered_set<TypeVariable> Allowed = Item.Interesting;
      for (uint32_t Mate : CG.sccs()[Scc])
        if (Mate != F)
          Allowed.insert(Gen.procVar(Mate));
      verifyScheme(Item.Schemes[I], S, Lat, &Allowed,
                   "phase1 scheme '" + Name + "'", VDiags);
    }
    publishScheme(F, std::move(Item.Schemes[I]));
    ++Report.Stats.SchemesComputed;
  }
  auto NewIt = NewArtifacts.emplace(std::move(Item.Key), std::move(Art)).first;
  ArtOfScc[Scc] = &NewIt->second;
  // Drop per-slot scratch early: slots live to the end of the phase, their
  // artifacts live on.
  Item.Interesting = {};
  Item.Schemes = {};
  Item.Meta.reset();
}

//===----------------------------------------------------------------------===//
// Phase 2: top-down sketch solving (Algorithm F.2)
//===----------------------------------------------------------------------===//
//
// The same scheduler with the roles of callers and callees swapped: an SCC
// becomes ready the moment its last *caller* SCC commits, so everything
// its prep reads — ActualSketches tallies, IncomingChangedFlag bits,
// snapshots — is final. Commit slots follow the top-down sequence: sketch
// joins are order-sensitive, so the refinement accumulators must receive
// callsite sketches in exactly the historical push order, and the
// sequence-ordered commit is what pins that for every --jobs value.

void AnalysisSession::RunState::solveSketches() {
  trace::TraceSpan PhaseSpan("phase2", "phase");
  std::vector<P2Item> Slots(NumSccs);
  auto Prep = [&](uint32_t Scc) {
    Slots[Scc].Scc = Scc;
    return prepSolve(Slots[Scc]);
  };
  auto Compute = [&](uint32_t Scc) {
    ScopedPhaseTimer Timer("pipeline.solve");
    P2Item &Item = Slots[Scc];
    Clock::time_point T0 = Clock::now();
    solveItem(Item);
    Item.SolveSecs = secondsSince(T0);
  };
  auto Commit = [&](uint32_t Scc, DagNodeKind Kind) {
    commitSketches(Slots[Scc], Kind);
  };
  schedule(/*BottomUp=*/false, Prep, Compute, Commit);
  // Cache effectiveness across both phases (scheme AND solution probes).
  if (Cache) {
    Report.Stats.CacheHits = Cache->hits() - Hits0;
    Report.Stats.CacheMisses = Cache->misses() - Misses0;
  }
}

// Decides trivial/replay/solve. RefineOnly and Reuse slots do ALL their
// work at the commit slot — their replayed callsite pushes feed the
// order-sensitive accumulators, so nothing may run early. Solve slots build
// their wanted set and solve key here; co-batched solves cannot contend
// because every callsite variable is scoped to its caller function
// (`fn!callee@idx`) and SCCs partition functions.
DagPrep AnalysisSession::RunState::prepSolve(P2Item &Item) {
  const uint32_t Scc = Item.Scc;
  SccArtifact *Art = ArtOfScc[Scc];
  // ConstraintCount, not Combined.empty(): a fully warm SCC keeps its
  // constraint set unmaterialized, but it still must be solved.
  if (!Art || Art->ConstraintCount == 0)
    return {DagNodeKind::Trivial};
  ScopedPhaseTimer PrepTimer("pipeline.solveprep");
  for (uint32_t F : CG.sccs()[Scc])
    if (!M.Funcs[F].IsExternal)
      Item.Members.push_back(F);

  // Did this SCC's refinement inputs change since the last run? Final by
  // readiness: every caller committed its records already.
  bool IncomingChanged = false;
  for (uint32_t F : Item.Members) {
    auto ActIt = ActualSketches.find(F);
    size_t Tally = ActIt == ActualSketches.end() ? 0 : ActIt->second.size();
    NewIncomingCount[M.Funcs[F].Name] = Tally;
    auto SnapIt = Sess.Snapshots.find(M.Funcs[F].Name);
    size_t Prev = SnapIt == Sess.Snapshots.end()
                      ? std::numeric_limits<size_t>::max()
                      : SnapIt->second.IncomingRecords;
    if (IncomingChangedFlag[F] || Tally != Prev)
      IncomingChanged = true;
  }

  if (!P1Computed[Scc] && Art->HasSolution) {
    Item.Mode = IncomingChanged ? P2Mode::RefineOnly : P2Mode::Reuse;
    return {DagNodeKind::Replay};
  }

  // Solve for the member procedure variables and for every callsite
  // variable (needed for parameter refinement of callees).
  const std::vector<uint32_t> &AllMembers = CG.sccs()[Scc];
  for (uint32_t F : Item.Members) {
    Item.Wanted.push_back(Gen.procVar(F));
    for (uint32_t Idx = 0; Idx < M.Funcs[F].Body.size(); ++Idx) {
      const Instr &I = M.Funcs[F].Body[Idx];
      if (I.Op != Opcode::Call || I.Target >= M.Funcs.size())
        continue;
      if (std::find(AllMembers.begin(), AllMembers.end(), I.Target) !=
          AllMembers.end())
        continue;
      SymbolId Sym;
      std::string Name = M.Funcs[F].Name + "!" + M.Funcs[I.Target].Name +
                         "@" + std::to_string(Idx);
      if (!S.lookup(Name, Sym))
        continue;
      TypeVariable V = TypeVariable::var(Sym);
      Item.Wanted.push_back(V);
      Item.CallsiteVars.push_back({I.Target, V});
    }
  }
  // The raw solution is a pure function of (canonical constraint set,
  // wanted names) — content-address it like schemes, so warm runs replay
  // sketches through the codec instead of re-solving. Only the key is
  // computed here; the probe (payload copy + bundle decode) runs inside the
  // pool work unit, alongside the solves.
  if (Cache && !Item.Wanted.empty()) {
    // Phase 1 already hashed this SCC's canonical set; artifacts replayed
    // from a cacheless earlier run ({0,0}) hash on demand.
    if (Art->SetHash == Hash128{}) {
      ScopedPhaseTimer HashTimer("cache.hash");
      Art->SetHash = canonicalSetHash(Art->Combined, S, Lat);
    }
    std::vector<std::string> Names;
    Names.reserve(Item.Wanted.size());
    for (TypeVariable V : Item.Wanted)
      Names.push_back(S.name(V.symbol()));
    Item.SolveKey =
        SummaryCache::solveKeyFor(Art->SetHash, Names, Backend->kind());
    Item.ProbeCache = true;
  }
  return {DagNodeKind::Compute, Art->ConstraintCount};
}

// Solves one slot (worker side). Warm probe and cold solve both run here,
// so bundle decodes parallelize exactly like solves do.
void AnalysisSession::RunState::solveItem(P2Item &Item) {
  SccArtifact *Art = ArtOfScc[Item.Scc];
  trace::TraceSpan Span("solve", "scc");
  if (Span.active()) {
    Span.Args.Scc = Item.Scc;
    Span.Args.Fn = M.Funcs[Item.Members.front()].Name;
    Span.Args.Backend = Backend->name();
    Span.Args.Constraints = static_cast<int64_t>(Art->ConstraintCount);
  }
  if (Item.ProbeCache) {
    if (auto Bindings = Cache->lookupSolution(Item.SolveKey, S, Lat)) {
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
  // Residual decode: the solution probe missed, so the solver really needs
  // the constraint set this SCC's meta probe left unmaterialized. (Slots
  // don't share SCCs, so writing the artifact here is race-free.)
  if (Art->Combined.empty() && Cache && Art->GenKey != Hash128{})
    if (auto Replay = Cache->materializeGen(Art->GenKey, S, Lat))
      Art->Combined = std::move(Replay->C);
  if (Art->Combined.empty()) {
    Item.NeedGen = true; // gen entry vanished; commit solves inline
    return;
  }
  Item.Sol = Backend->solve(Art->Combined, Item.Wanted);
}

// Commits one slot (strictly in top-down sequence order). All refinement,
// sketch assignment, and callsite-record pushes happen here, so the
// accumulators see contributions in exactly the historical order.
void AnalysisSession::RunState::commitSketches(P2Item &Item,
                                               DagNodeKind Kind) {
  if (Kind == DagNodeKind::Trivial)
    return;
  SccArtifact &Art = *ArtOfScc[Item.Scc];
  switch (Item.Mode) {
  case P2Mode::Solve:
    commitSolve(Item, Art);
    return;
  case P2Mode::RefineOnly:
    ++Report.Stats.SccsRefinedOnly;
    refineMembers(Item.Scc, Item.Members, Art.RawSketches, Art,
                  "refine-only");
    break;
  case P2Mode::Reuse:
    ++Report.Stats.SccsSolveReused;
    for (size_t I = 0; I < Item.Members.size(); ++I) {
      // Replayed final sketches are only re-inspected under Full — like
      // reused schemes, they were verified when first computed.
      if (VL == VerifyLevel::Full)
        verifySketch(Art.FinalSketches[I], Lat,
                     "phase2 reused sketch '" +
                         M.Funcs[Item.Members[I]].Name + "'",
                     VDiags);
      Report.Funcs[Item.Members[I]].FuncSketch = Art.FinalSketches[I];
    }
    break;
  }
  // Replay pushes resolve callee names against the current module; safe
  // because artifact replay never happens under duplicate names (DupNames
  // forces AllDirty, so every SCC takes the Solve path).
  for (const auto &[CalleeName, Sk] : Art.CallsiteRecords)
    if (auto CalleeId = M.findFunction(CalleeName))
      ActualSketches[*CalleeId].push_back(Sk);
}

void AnalysisSession::RunState::commitSolve(P2Item &Item, SccArtifact &Art) {
  ++Report.Stats.SccsSolved;
  // Fallback for vanished gen entries: regenerate deterministically and
  // solve inline (rare — requires eviction between the meta probe and the
  // slot's solve).
  if (Item.NeedGen) {
    Clock::time_point T0 = Clock::now();
    Art.Combined = generateScc(Item.Scc, Item.Members, nullptr, nullptr);
    Item.Sol = Backend->solve(Art.Combined, Item.Wanted);
    Item.NeedGen = false;
    Item.SolveSecs += secondsSince(T0);
  }
  Report.Stats.SolveSecs += Item.SolveSecs;
  // Full verification inspects every sketch decoded from the summary
  // cache/store before anything derives from it. Iterating Wanted (not
  // the solution map) keeps the diagnostic order deterministic.
  if (VL == VerifyLevel::Full && Item.SolFromCache)
    for (TypeVariable V : Item.Wanted) {
      std::string VName = V.isVar() && V.symbol() < S.size()
                              ? S.name(V.symbol())
                              : "<invalid>";
      verifySketch(Item.Sol.sketchFor(V), Lat,
                   "phase2 cached solution for '" + VName + "'", VDiags);
    }
  if (Cache && !Item.SolFromCache && !Item.Wanted.empty()) {
    std::vector<std::pair<TypeVariable, const Sketch *>> Entries;
    Entries.reserve(Item.Wanted.size());
    for (TypeVariable V : Item.Wanted)
      Entries.push_back({V, &Item.Sol.sketchFor(V)});
    Cache->insertSolution(Item.SolveKey, Entries, S, Lat, Backend->kind());
  }
  // Records carry the callee *name* for cross-run replay (name keys
  // survive id shifts), but this run's pushes below use the known callee
  // *id* from CallsiteVars — name lookup would misdirect refinement when
  // the module holds duplicate function names.
  std::vector<std::pair<std::string, Sketch>> NewRecords;
  NewRecords.reserve(Item.CallsiteVars.size());
  for (const auto &[Callee, Var] : Item.CallsiteVars)
    NewRecords.push_back({M.Funcs[Callee].Name, Item.Sol.sketchFor(Var)});

  // Flag callees whose records from this SCC differ from the previous run
  // (per-callee comparison keeps the dirtiness cone tight: an edit that
  // re-solves to the same actuals stops here). Group both record lists by
  // callee once, not per callsite.
  const bool HadRecords = Art.HasSolution;
  std::unordered_map<std::string, std::vector<const Sketch *>> OldBy, NewBy;
  if (HadRecords)
    for (const auto &[N2, Sk] : Art.CallsiteRecords)
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

  std::vector<Sketch> Raw;
  Raw.reserve(Item.Members.size());
  for (uint32_t F : Item.Members)
    Raw.push_back(Item.Sol.sketchFor(Gen.procVar(F)));
  Art.RawSketches = KeepHist ? Raw : std::vector<Sketch>();
  refineMembers(Item.Scc, Item.Members, std::move(Raw), Art, nullptr);
  for (size_t I = 0; I < Item.CallsiteVars.size(); ++I)
    ActualSketches[Item.CallsiteVars[I].first].push_back(
        NewRecords[I].second);
  if (KeepHist) {
    Art.CallsiteRecords = std::move(NewRecords);
    Art.HasSolution = true;
  }
  // Drop per-slot scratch early: slots live to the end of the phase, the
  // report and artifacts carry everything that matters.
  Item.Sol = SketchSolution();
  Item.Wanted = {};
}

// Refines each member's raw sketch against the callsite sketches its
// callers committed so far (Algorithm F.3), verifies it, and publishes the
// final sketch to the report (and, with history, to the artifact).
void AnalysisSession::RunState::refineMembers(
    uint32_t Scc, const std::vector<uint32_t> &Members,
    std::vector<Sketch> Raw, SccArtifact &Art, const char *CacheTag) {
  static const std::vector<Sketch> NoActuals;
  trace::TraceSpan RefineSpan("refine", "scc");
  uint64_t Joins = 0;
  if (RefineSpan.active()) {
    RefineSpan.Args.Scc = Scc;
    RefineSpan.Args.Fn = M.Funcs[Members.front()].Name;
    RefineSpan.Args.Backend = Backend->name();
    RefineSpan.Args.Cache = CacheTag;
  }
  if (KeepHist)
    Art.FinalSketches.resize(Members.size());
  for (size_t I = 0; I < Members.size(); ++I) {
    uint32_t F = Members[I];
    auto ActIt = ActualSketches.find(F);
    Sketch Final = Sess.refineSketch(
        std::move(Raw[I]), F,
        ActIt == ActualSketches.end() ? NoActuals : ActIt->second,
        RefineSpan.active() ? &Joins : nullptr);
    if (VL != VerifyLevel::Off)
      verifySketch(Final, Lat, "phase2 sketch '" + M.Funcs[F].Name + "'",
                   VDiags);
    if (KeepHist)
      Art.FinalSketches[I] = Final;
    Report.Funcs[F].FuncSketch = std::move(Final);
  }
  if (RefineSpan.active())
    RefineSpan.Args.JoinOps = static_cast<int64_t>(Joins);
}

//===----------------------------------------------------------------------===//
// Phase 3 and run epilogue
//===----------------------------------------------------------------------===//

void AnalysisSession::RunState::convertTypes() {
  Clock::time_point T0 = Clock::now();
  ScopedPhaseTimer Timer("pipeline.convert");
  trace::TraceSpan Span("convert", "phase");
  CTypeConverter Conv(Report.Pool, Lat, Opts.Conversion);
  for (auto &[F, FT] : Report.Funcs)
    FT.CType = Conv.convertFunction(FT.FuncSketch);
  Report.Stats.ConvertSecs += secondsSince(T0);
}

// Records this run's snapshots and artifacts for the next incremental
// analyze().
void AnalysisSession::RunState::recordHistory() {
  Sess.DirtyNames.clear();
  if (!KeepHist) {
    Sess.Snapshots.clear();
    Sess.Artifacts.clear();
    Sess.GlobalsSig.clear();
    return;
  }
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
  Sess.Snapshots = std::move(NewSnaps);
  Sess.Artifacts = std::move(NewArtifacts);
  Sess.GlobalsSig = std::move(GSig);
}

// Journals this run's new artifacts to the durable store, then publishes
// the run's last counters. The report is already complete and correct at
// this point; a failed flush only costs durability, so it is surfaced via
// storeError() rather than aborting the run. A later successful flush
// clears the error: it re-appends everything the store is missing, so the
// failed attempt leaves no lasting gap.
void AnalysisSession::RunState::journalStore() {
  if (Cache && Cache->store()) {
    trace::TraceSpan Span("store.flush", "store");
    std::string FlushErr;
    if (Cache->flushToStore(&FlushErr))
      Sess.StoreError.clear();
    else
      Sess.StoreError = FlushErr;
  }
  Report.StoreError = Sess.StoreError;
  const CounterSnapshot CounterDelta = Counters0.delta();
  Report.Stats.StoreHits = CounterDelta.StoreHits;
  Report.Stats.StoreAppends = CounterDelta.StoreAppends;
  Report.Stats.PoolBindHits = CounterDelta.PoolBindHits;
  Report.VerifyErrors = std::move(VDiags.Errors);
}

const TypeReport &AnalysisSession::analyze() {
  Report = TypeReport();
  Report.Syms = Syms;
  // Analyzed flips true only once the run completes: an exception
  // propagating out of a phase must leave queries answering NotAnalyzed,
  // not serving a half-built report.
  Analyzed = false;
  if (!HasModule) {
    Analyzed = true;
    return Report;
  }
  RunState Run(*this, runPhase0(M, *Syms, Lat));
  Run.detectEdits();
  Run.inferSchemes();
  Run.solveSketches();
  Run.convertTypes();
  Run.recordHistory();
  Run.journalStore();
  Analyzed = true;
  return Report;
}
