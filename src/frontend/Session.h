//===- Session.h - Long-lived incremental analysis engine ----*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `AnalysisSession` is the resident form of the type-inference engine: it
/// owns the lattice, the symbol table, the summary cache, and the last
/// run's per-SCC artifacts, and it re-analyzes *incrementally* after
/// edits. This is the API shape real consumers of the algorithm use — a
/// decompiler keeps one session per binary and re-queries it as functions
/// are patched and re-loaded — and it is exactly what the paper's
/// bottom-up/top-down scheme architecture (Appendix F) makes sound:
///
///  - Phase 1 (scheme inference) walks call-graph SCCs bottom-up. A
///    procedure's simplified scheme is a pure function of its body and its
///    callees' schemes, so an SCC whose members and callee schemes are
///    unchanged can replay its previous schemes verbatim. When a dirty SCC
///    re-simplifies to a *structurally identical* scheme — compared by the
///    128-bit structural hash of core/SchemeCodec.h, no text involved —
///    the dirtiness stops there and its callers stay clean (early cutoff).
///  - Phase 2 (sketch solving) walks SCCs top-down. An SCC's raw solution
///    depends only on its own constraint set; its *final* sketches
///    additionally depend on the actual-in/out sketches its callers
///    observed (Algorithm F.3). The session therefore distinguishes
///    re-solving (constraints changed) from re-refining (only the incoming
///    callsite sketches changed) from full reuse.
///  - Phase 3 (C-type conversion) is cheap and re-runs from scratch, which
///    keeps struct numbering identical to a from-scratch analysis.
///
/// The contract, enforced by tests: `analyze()` after any edit sequence
/// produces a report **byte-identical** to a from-scratch run over the
/// current module, while `PipelineStats` records strictly fewer SCC
/// simplifications whenever anything was reusable.
///
/// \code
///   AnalysisSession S(makeDefaultLattice());
///   S.loadModule(std::move(M));
///   S.analyze();
///   S.prototypeOf("close_last");        // structured result, not "<no type>"
///   S.replaceFunction("helper", NewBody);
///   S.analyze();                        // only the dirty SCC cone re-runs
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_FRONTEND_SESSION_H
#define RETYPD_FRONTEND_SESSION_H

#include "core/Sketch.h"
#include "core/SolverBackend.h"
#include "core/SummaryCache.h"
#include "frontend/AnalysisOptions.h"
#include "support/Hash128.h"
#include "mir/MIR.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace retypd {

/// Wall-clock, cache, and incrementality counters for one analyze() call.
struct PipelineStats {
  /// Solver backend that produced this run ("retypd" or "binsub") —
  /// recorded in the stats JSON so archived reports are attributable.
  std::string Backend = "retypd";
  double GenerateSecs = 0;  ///< constraint generation (main thread)
  double SimplifySecs = 0;  ///< scheme simplification, summed over work
                            ///< units (CPU time: exceeds wall when parallel)
  double SolveSecs = 0;     ///< sketch solving, summed over work units
                            ///< (CPU time: exceeds wall when parallel)
  double ConvertSecs = 0;   ///< C-type conversion (sequential)
  size_t SccCount = 0;
  size_t WaveCount = 0;  ///< condensation depth (diagnostic; no barriers)
  size_t WidestWave = 0; ///< widest antichain the scheduler can exploit
  unsigned JobsUsed = 1;

  // --- Readiness-scheduler counters (see README "Execution model") ---
  /// SCCs dispatched to the pool as (part of) a work unit, both phases.
  /// Always equals SccsSimplified + SccsSolved: reused/trivial SCCs are
  /// never scheduled, which is what keeps incremental runs cheap.
  uint64_t SccsScheduled = 0;
  /// Work units submitted to the pool (a batch of tiny SCCs counts once).
  uint64_t BatchesFormed = 0;
  /// High-water mark of the ready queue (SCCs whose dependencies had all
  /// committed but which the main thread had not yet prepped).
  uint64_t MaxReadyQueue = 0;
  /// Slots published out of commit order — results that sat finished
  /// while the drainer waited on an earlier sequence number.
  uint64_t CommitStalls = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Generation-result cache probes this run (a subset of
  /// CacheHits/CacheMisses: gen entries live in the same summary cache).
  uint64_t GenCacheHits = 0;
  uint64_t GenCacheMisses = 0;
  /// Artifact-store traffic this run (zero without an attached store):
  /// probes served zero-copy from the mapped store, records journaled by
  /// the end-of-run flush, and store decodes whose names resolved through
  /// the pool translation table — no per-payload string hashing.
  uint64_t StoreHits = 0;
  uint64_t StoreAppends = 0;
  uint64_t PoolBindHits = 0;

  // --- Incremental re-analysis counters (all zero on a first run) ---
  /// Whether this run could draw on a previous run's artifacts.
  bool IncrementalRun = false;
  /// Functions whose bodies were edited/invalidated since the last run.
  size_t FunctionsDirty = 0;
  /// SCCs that ran constraint generation + simplification this run.
  size_t SccsSimplified = 0;
  /// SCCs whose schemes were replayed from the previous run.
  size_t SccsReused = 0;
  /// Member schemes computed via the simplifier/summary cache this run.
  size_t SchemesComputed = 0;
  /// Member schemes replayed from the previous run.
  size_t SchemesReused = 0;
  /// SCCs sketch-solved this run.
  size_t SccsSolved = 0;
  /// SCCs that only re-ran parameter refinement (raw solution replayed).
  size_t SccsRefinedOnly = 0;
  /// SCCs whose final sketches were replayed outright.
  size_t SccsSolveReused = 0;
};

/// Inference results for one function.
struct FunctionTypes {
  TypeScheme Scheme;   ///< simplified, most-general type scheme
  Sketch FuncSketch;   ///< solved (and possibly refined) sketch
  CTypeId CType = NoCType; ///< function type in TypeReport::Pool
  unsigned NumParams = 0;
};

/// Why a type query produced no value.
enum class TypeQueryStatus : uint8_t {
  Ok = 0,          ///< a value was produced
  NoModule,        ///< the session has no module loaded
  NotAnalyzed,     ///< analyze() has not run since the module was loaded
  UnknownFunction, ///< no function with that id/name exists in the module
  NoTypeInferred,  ///< the function exists but inference produced no type
};

const char *typeQueryStatusName(TypeQueryStatus S);

/// A structured query result: either a value, or the reason there is none.
template <typename T> struct SessionQuery {
  std::optional<T> Value;
  TypeQueryStatus Status = TypeQueryStatus::Ok;

  explicit operator bool() const { return Value.has_value(); }
  const T &operator*() const { return *Value; }
  const T *operator->() const { return &*Value; }

  static SessionQuery ok(T V) { return {std::move(V), TypeQueryStatus::Ok}; }
  static SessionQuery fail(TypeQueryStatus S) { return {std::nullopt, S}; }
};

/// Whole-module results of one analyze() call.
struct TypeReport {
  std::shared_ptr<SymbolTable> Syms;
  CTypePool Pool;
  std::map<uint32_t, FunctionTypes> Funcs;

  // Simple counters for the scaling studies.
  size_t ConstraintsGenerated = 0;
  size_t SaturationEdges = 0;

  /// Per-phase timing, cache effectiveness, and incrementality for this run.
  PipelineStats Stats;

  /// Why the configured artifact store could not be opened or flushed
  /// ("" when it worked, or when none was configured). This is how
  /// one-shot Pipeline callers — who never see the session — observe
  /// store failures; the analysis results themselves are complete and
  /// correct either way.
  std::string StoreError;

  /// Formation-rule violations the verifier found this run (empty when
  /// clean, or when SessionOptions::Verify is Off). Fully rendered
  /// one-line diagnostics, in deterministic commit-slot order — the same
  /// order at any --jobs value.
  std::vector<std::string> VerifyErrors;

  const FunctionTypes *typesOf(uint32_t FuncId) const {
    auto It = Funcs.find(FuncId);
    return It == Funcs.end() ? nullptr : &It->second;
  }

  /// Structured prototype query: distinguishes "no such function" from
  /// "inference produced no type for it".
  SessionQuery<std::string> prototype(uint32_t FuncId, const Module &M) const;

  /// Legacy convenience: renders "<no type>" for both failure modes. Kept
  /// because the canonical report text prints exactly that placeholder.
  std::string prototypeOf(uint32_t FuncId, const Module &M) const;
};

/// Session configuration. The knobs shared with the one-shot Pipeline
/// facade live in the AnalysisOptions base (frontend/AnalysisOptions.h);
/// only the session-lifetime fields are declared here. Note for
/// SessionOptions::StoreDir: when an ExternalCache is configured the
/// store is NOT opened here — attach one to that cache directly.
struct SessionOptions : AnalysisOptions {
  /// Memoize simplifications in the session-owned summary cache. Distinct
  /// from incremental SCC reuse: the cache also hits on content-identical
  /// SCCs across modules and (when persisted) across processes. StoreDir
  /// implies this.
  bool UseSummaryCache = true;
  /// Share an external cache instead of the session-owned one (not owned;
  /// overrides UseSummaryCache when set).
  SummaryCache *ExternalCache = nullptr;
  /// Record per-function snapshots and per-SCC artifacts so the *next*
  /// analyze() can be incremental. One-shot callers (the Pipeline facade)
  /// turn this off to skip the bookkeeping entirely.
  bool KeepHistory = true;
};

/// A long-lived, incrementally re-analyzable instance of the engine.
class AnalysisSession {
public:
  explicit AnalysisSession(Lattice Lat, SessionOptions Opts = SessionOptions());
  ~AnalysisSession();
  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  // --- Module lifecycle -------------------------------------------------
  /// Replaces the module and discards all incremental history: the next
  /// analyze() is a from-scratch run.
  void loadModule(Module NewM);

  /// Parses \p AsmText and loadModule()s it. On parse failure returns
  /// false, stores the message in \p Err (when non-null), and leaves the
  /// session unchanged.
  bool loadModuleText(const std::string &AsmText, std::string *Err = nullptr);

  /// Replaces the module but *keeps* incremental history: the next
  /// analyze() re-runs only functions whose rendered bodies differ from
  /// the previous run (matched by name), plus their dependents. This is
  /// how a re-loaded, edited binary is fed to a resident session.
  void updateModule(Module NewM);

  /// Parses \p AsmText and updateModule()s it (same failure contract as
  /// loadModuleText).
  bool updateModuleText(const std::string &AsmText, std::string *Err = nullptr);

  /// Swaps in a new body for one function and marks it dirty. Returns
  /// false if no such function exists. \p NewBody.Name may be empty to
  /// keep the current name.
  bool replaceFunction(uint32_t FuncId, Function NewBody);
  bool replaceFunction(const std::string &Name, Function NewBody);

  /// Appends a new function (dirty by construction); returns its id.
  uint32_t addFunction(Function F);

  /// Marks a function dirty without changing it (forces its SCC cone to
  /// re-run on the next analyze()).
  bool invalidate(uint32_t FuncId);
  bool invalidate(const std::string &Name);

  /// Drops all incremental history; the next analyze() is from-scratch.
  void invalidateAll();

  bool hasModule() const { return HasModule; }
  const Module &module() const { return M; }

  // --- Analysis ---------------------------------------------------------
  /// Runs inference over the current module, reusing every artifact of the
  /// previous run that the edit set provably did not affect. The returned
  /// report is byte-identical to a from-scratch run.
  const TypeReport &analyze();

  /// Moves the last report out of the session (queries return NotAnalyzed
  /// afterwards; incremental history is unaffected).
  TypeReport takeReport();

  /// Moves the module out of the session, ending its module lifetime (the
  /// one-shot Pipeline facade uses this to hand the interface-recovered
  /// module back without a deep copy).
  Module takeModule();

  bool analyzed() const { return Analyzed; }
  /// The last report, or nullptr before the first analyze().
  const TypeReport *report() const { return Analyzed ? &Report : nullptr; }

  // --- Structured queries (no Module reference needed) ------------------
  std::optional<uint32_t> functionId(const std::string &Name) const;
  SessionQuery<std::string> prototypeOf(uint32_t FuncId) const;
  SessionQuery<std::string> prototypeOf(const std::string &Name) const;
  SessionQuery<std::string> schemeOf(uint32_t FuncId) const;
  SessionQuery<std::string> schemeOf(const std::string &Name) const;
  SessionQuery<std::string> sketchOf(uint32_t FuncId,
                                     unsigned MaxDepth = 4) const;
  SessionQuery<std::string> sketchOf(const std::string &Name,
                                     unsigned MaxDepth = 4) const;

  // --- Owned state ------------------------------------------------------
  const Lattice &lattice() const { return Lat; }
  const SymbolTable &symbols() const { return *Syms; }
  /// The cache analyze() actually consults — the external cache when one
  /// was configured, the session-owned one otherwise. Persist it with
  /// SessionOptions::StoreDir.
  SummaryCache &summaryCache() {
    return Opts.ExternalCache ? *Opts.ExternalCache : OwnedCache;
  }
  const SessionOptions &options() const { return Opts; }
  /// Why SessionOptions::StoreDir could not be opened ("" when it was —
  /// or when no store was requested).
  const std::string &storeError() const { return StoreError; }

private:
  struct SccArtifact;
  struct FuncSnapshot;
  struct RunState; ///< one analyze() run; its phases are member functions

  SummaryCache *activeCache();
  /// Probes the scheme cache, then simplifies on a miss. \p Constraints is
  /// invoked only on that miss — the fully warm path never materializes a
  /// constraint set — and may return nullptr when a lazily-replayed set
  /// can no longer be materialized (cache entry evicted since the meta
  /// probe), in which case summarize returns nullopt and the caller
  /// regenerates.
  /// \p FromCache, when non-null, reports whether the scheme came from the
  /// cache (the tracer uses it to attribute per-SCC hit/miss kind).
  std::optional<TypeScheme>
  summarize(const std::function<const ConstraintSet *()> &Constraints,
            const Hash128 &SetHash, TypeVariable ProcVar,
            const std::unordered_set<TypeVariable> &Keep,
            const SolverBackend &Backend, SummaryCache *Cache,
            bool *FromCache = nullptr);
  /// \p JoinOps, when non-null, accumulates the number of sketch
  /// join/meet operations performed (the open-item-4 diagnostic).
  Sketch refineSketch(Sketch Sk, uint32_t FuncId,
                      const std::vector<Sketch> &Actuals,
                      uint64_t *JoinOps = nullptr) const;
  SessionQuery<std::string> queryGate(uint32_t FuncId) const;
  void markDirtyName(const std::string &Name);

  Lattice Lat;
  SessionOptions Opts;
  std::shared_ptr<SymbolTable> Syms;
  SummaryCache OwnedCache;
  std::string StoreError;

  Module M;
  bool HasModule = false;
  bool Analyzed = false;
  TypeReport Report;

  /// Last run's per-SCC artifacts, keyed by the SCC's ordered non-external
  /// member names ('\\x1f'-joined). Name keys survive function-id shifts
  /// from insertions/removals elsewhere in the module.
  std::unordered_map<std::string, SccArtifact> Artifacts;
  /// Last run's per-function snapshots, keyed by function name.
  std::unordered_map<std::string, FuncSnapshot> Snapshots;
  /// Names explicitly invalidated since the last run.
  std::unordered_set<std::string> DirtyNames;
  /// Rendered signature of the global-variable table at the last run; any
  /// change conservatively invalidates everything.
  std::string GlobalsSig;
};

} // namespace retypd

#endif // RETYPD_FRONTEND_SESSION_H
