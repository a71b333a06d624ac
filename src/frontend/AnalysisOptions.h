//===- AnalysisOptions.h - Options shared by Session and Pipeline -*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis knobs common to the resident engine (`SessionOptions`,
/// frontend/Session.h) and the one-shot batch facade (`PipelineOptions`,
/// frontend/Pipeline.h). Both embed this struct by inheritance, so a new
/// shared option is added exactly once — the two option sets used to
/// mirror each other field by field, and knobs kept drifting apart.
/// `Pipeline::run` forwards the whole base with one slice-assign.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_FRONTEND_ANALYSISOPTIONS_H
#define RETYPD_FRONTEND_ANALYSISOPTIONS_H

#include "core/BackendKind.h"
#include "core/Simplifier.h"
#include "core/Verifier.h"
#include "ctypes/Conversion.h"

#include <string>

namespace retypd {

/// Analysis configuration shared by SessionOptions and PipelineOptions.
struct AnalysisOptions {
  /// Apply Algorithm F.3 (specialize formals to their observed uses).
  bool RefineParameters = true;
  /// Total executors for the readiness-scheduled parallel stages. 1 = run
  /// inline on the calling thread (same code path, so results are
  /// identical); 0 = one per hardware thread.
  unsigned Jobs = 1;
  /// Tiny-SCC batching threshold for the readiness scheduler: ready SCCs
  /// whose constraint count is below this are grouped into one pool work
  /// unit instead of dispatched individually, amortizing submit/wakeup
  /// overhead in the many-tiny-SCCs common case. 0 disables batching
  /// (every SCC is its own work unit). Results are byte-identical at any
  /// setting — batching only changes work-unit granularity.
  unsigned TinySccConstraints = 64;
  /// Directory of a durable multi-process artifact store (store/Store.h)
  /// to open behind the run's summary cache. Empty = none. Open/flush
  /// failures are reported via TypeReport::StoreError /
  /// AnalysisSession::storeError(); the run completes either way.
  std::string StoreDir;
  /// Formation-rule verification level (core/Verifier.h). Off adds zero
  /// work to the pipeline (Counter::VerifierChecks stays 0). Phase
  /// verifies freshly committed artifacts at the sequence-ordered commit
  /// points; Full additionally verifies artifacts replayed from the
  /// summary cache and the durable store. Findings are collected in
  /// TypeReport::VerifyErrors — the run always completes.
  VerifyLevel Verify = VerifyLevel::Off;
  /// Which solver backend (core/SolverBackend.h) runs phase 1 and
  /// phase 2: the paper's saturation pipeline, or BinSub-style algebraic
  /// subtyping. Cache and store artifacts are keyed by this, so switching
  /// backends never replays the other backend's results.
  BackendKind Backend = BackendKind::Retypd;
  ConversionOptions Conversion;
  SimplifyOptions Simplify;
};

} // namespace retypd

#endif // RETYPD_FRONTEND_ANALYSISOPTIONS_H
