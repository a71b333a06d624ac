//===- Verifier.h - Retypd formation-rule verification --------*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint/sketch verifier: checks the retypd formation rules
/// (paper §3, Definitions 3.1–3.5) on the objects flowing across the
/// pipeline's phase boundaries — derived type variables (label legality,
/// variance bookkeeping, base-variable membership), constraint sets
/// (including the canonical-order invariant the binary data plane relies
/// on), type schemes (closure: no free type variable escapes), and
/// sketches (well-formed Λ-marked DFAs).
///
/// The verifier is a pure read-only layer selected by \c VerifyLevel:
///
///   Off    nothing runs — the hot path is measurably untouched
///          (Counter::VerifierChecks stays 0).
///   Phase  freshly computed artifacts are verified at the wave-order
///          commit points of the pipeline.
///   Full   additionally, artifacts decoded from the summary cache and
///          the durable store are verified at the same seams, so a
///          trusted-decoder or stale-replay bug is caught at the phase
///          boundary instead of surfacing as a wrong report.
///
/// Every top-level verified object bumps Counter::VerifierChecks.
/// Diagnostics are rendered strings with a caller-supplied context prefix
/// ("phase1 scheme 'close_last'"), collected — never thrown — so one run
/// reports every violation.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_CORE_VERIFIER_H
#define RETYPD_CORE_VERIFIER_H

#include "core/ConstraintSet.h"
#include "core/Sketch.h"

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

namespace retypd {

/// How much verification the pipeline runs (--verify=off|phase|full).
enum class VerifyLevel : uint8_t { Off = 0, Phase = 1, Full = 2 };

/// Parses "off" / "phase" / "full"; nullopt on anything else.
std::optional<VerifyLevel> parseVerifyLevel(std::string_view S);

const char *verifyLevelName(VerifyLevel L);

/// Accumulated formation-rule violations. Each entry is a fully rendered
/// one-line diagnostic ("<context>: <rule violation>").
struct VerifyDiags {
  std::vector<std::string> Errors;
  bool ok() const { return Errors.empty(); }
  /// All errors joined one per line (trailing newline included).
  std::string str() const;
};

/// Checks one derived type variable: valid base (interned symbol within
/// \p Syms, or a constant naming an element of \p Lat), label words made
/// only of the five Σ kinds with clean encodings, and variance
/// bookkeeping (the incremental sign-monoid fold along the word must
/// agree with wordVariance).
void verifyDtv(const DerivedTypeVariable &V, const SymbolTable &Syms,
               const Lattice &Lat, std::string_view Ctx, VerifyDiags &D);

/// Checks every constraint in \p C (both sides of subtype constraints,
/// var declarations, and additive constraints). Counts as one verifier
/// check.
void verifyConstraintSet(const ConstraintSet &C, const SymbolTable &Syms,
                         const Lattice &Lat, std::string_view Ctx,
                         VerifyDiags &D);

/// Checks the canonical-order invariant: \p C's storage order must equal
/// its canonical structural order (what canonicalView computes). Summary
/// payloads encode sets in this order, and the structural hashes assume
/// it; a decoded or about-to-be-encoded set that violates it would break
/// content addressing. Counts as one verifier check.
void verifyCanonicalOrder(const ConstraintSet &C, const SymbolTable &Syms,
                          const Lattice &Lat, std::string_view Ctx,
                          VerifyDiags &D);

/// Checks a type scheme: its constraint set (as verifyConstraintSet), a
/// valid quantified head, and closure — every base type variable
/// mentioned in the constraints must be the scheme's ProcVar, one of its
/// Existentials, a type constant, or a member of \p AllowedFree (the
/// procedure variables legitimately shared across an SCC). Pass nullptr
/// to skip the closure check when the caller cannot name the allowed
/// free set. Counts as one verifier check.
void verifyScheme(const TypeScheme &S, const SymbolTable &Syms,
                  const Lattice &Lat,
                  const std::unordered_set<TypeVariable> *AllowedFree,
                  std::string_view Ctx, VerifyDiags &D);

/// Checks a sketch: a nonempty node array, every edge reachable from the
/// root targeting a node that exists, edge labels drawn from Σ, and all
/// marks (Mark / Lower / Upper / Conflicts) naming elements of \p Lat.
/// Nodes unreachable from the root are legal (withChild grafting leaves
/// them behind); their contents are not inspected. Counts as one
/// verifier check.
void verifySketch(const Sketch &Sk, const Lattice &Lat, std::string_view Ctx,
                  VerifyDiags &D);

} // namespace retypd

#endif // RETYPD_CORE_VERIFIER_H
