//===- ConstraintSet.h - Finite collections of constraints ----*- C++ -*-===//
//
// Part of the Retypd reproduction. See README.md for details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A constraint set over a set of base type variables (paper Definition
/// 3.3): deduplicated subtype constraints, explicit capability (var)
/// declarations, and additive constraints.
///
//===----------------------------------------------------------------------===//

#ifndef RETYPD_CORE_CONSTRAINTSET_H
#define RETYPD_CORE_CONSTRAINTSET_H

#include "core/Constraint.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace retypd {

/// An order-preserving, deduplicating collection of constraints.
class ConstraintSet {
public:
  /// Adds X <= Y; returns false if it was already present.
  bool addSubtype(DerivedTypeVariable Lhs, DerivedTypeVariable Rhs);

  /// Declares existence of a derived type variable (var X).
  bool addVar(DerivedTypeVariable V);

  /// Adds an additive constraint.
  void addAddSub(AddSubConstraint C);

  /// Payload-decode fast path: appends WITHOUT maintaining the dedup
  /// indexes (no per-constraint hashing). Only for materializing a payload
  /// that is a faithful encoding of an already-deduplicated set — the
  /// binary codec's decoders. A set built this way serves every read path
  /// (solving, canonical views, hashing, rendering), but must not be the
  /// target of further addSubtype/addVar/merge calls: the empty indexes
  /// would silently stop deduplicating.
  void appendSubtypeTrusted(DerivedTypeVariable Lhs,
                            DerivedTypeVariable Rhs) {
    Subs.push_back(SubtypeConstraint{std::move(Lhs), std::move(Rhs)});
  }
  void appendVarTrusted(DerivedTypeVariable V) {
    Vars.push_back(std::move(V));
  }

  /// Pre-sizes the constraint vectors (decoders know exact counts).
  void reserve(size_t NumSubs, size_t NumVars, size_t NumAddSubs) {
    Subs.reserve(NumSubs);
    Vars.reserve(NumVars);
    AddSubs.reserve(NumAddSubs);
  }

  const std::vector<SubtypeConstraint> &subtypes() const { return Subs; }
  const std::vector<DerivedTypeVariable> &vars() const { return Vars; }
  const std::vector<AddSubConstraint> &addSubs() const { return AddSubs; }

  bool empty() const {
    return Subs.empty() && Vars.empty() && AddSubs.empty();
  }
  size_t size() const { return Subs.size() + Vars.size() + AddSubs.size(); }

  /// Merges all constraints of \p Other into this set.
  void merge(const ConstraintSet &Other);

  /// Returns every derived type variable mentioned anywhere in the set
  /// (including both sides of subtype constraints and var declarations, but
  /// not their prefixes).
  std::vector<DerivedTypeVariable> mentionedDtvs() const;

  /// Renders one constraint per line (sorted for determinism).
  std::string str(const SymbolTable &Syms, const Lattice &Lat) const;

  /// The canonical (per-kind sorted) traversal order of this set, as
  /// pointers into its storage. The order is *structural*: derived type
  /// variables compare by base name, base kind, then packed label words —
  /// never by symbol id (ids differ across symbol tables and between
  /// fresh and incremental runs) and never by rendered text (rendering is
  /// exactly the string churn the binary data plane removes). Shared by
  /// canonicalized() and the structural hashes of core/SchemeCodec.h, so
  /// a set's canonical order, its 128-bit content key, and its binary
  /// encoding all agree.
  struct CanonicalView {
    std::vector<const SubtypeConstraint *> Subs;
    std::vector<const DerivedTypeVariable *> Vars;
    std::vector<const AddSubConstraint *> AddSubs;
  };
  CanonicalView canonicalView(const SymbolTable &Syms,
                              const Lattice &Lat) const;

  /// Reorders this set in place into canonical structural order (see
  /// canonicalView). A pure permutation: the dedup indexes are
  /// content-based and stay valid, nothing is re-hashed or copied.
  /// Canonicalization makes summary cache round trips and fresh
  /// simplification results bit-identical, constraint order included: the
  /// binary codec preserves order verbatim, and a canonicalized set
  /// re-canonicalizes to itself.
  void canonicalize(const SymbolTable &Syms, const Lattice &Lat);

  /// Copying variant of canonicalize() for callers that need to keep the
  /// original order.
  ConstraintSet canonicalized(const SymbolTable &Syms,
                              const Lattice &Lat) const;

private:
  std::vector<SubtypeConstraint> Subs;
  std::vector<DerivedTypeVariable> Vars;
  std::vector<AddSubConstraint> AddSubs;
  std::unordered_set<SubtypeConstraint> SubIndex;
  std::unordered_set<DerivedTypeVariable> VarIndex;
};

/// ∀ quantified type scheme for a procedure (Definition 3.4):
/// `forall <vars>. C => <proc var>`. Existential internal variables (the τ
/// of Figure 2) appear in \c Existentials.
struct TypeScheme {
  TypeVariable ProcVar;
  std::vector<TypeVariable> Existentials;
  ConstraintSet Constraints;

  std::string str(const SymbolTable &Syms, const Lattice &Lat) const;
};

/// Removes the vacuous parts of an exported scheme (paper §5: a scheme
/// should stay small enough to instantiate at every callsite). Variable
/// bases are united through every subtype, var and add/sub constraint
/// they share; type constants are never union nodes, so two components
/// that merely mention the same constant stay apart. A component is live
/// iff it contains a non-existential variable (the procedure variable, an
/// interesting variable, a global). Every constraint of a dead component
/// is dropped, and \c Existentials is trimmed to the variables that still
/// occur. Sound because instantiation renames each existential freshly
/// per callsite: a component without a free variable stays disconnected
/// from everything a caller solves for. Idempotent.
void dropVacuousComponents(TypeScheme &Scheme);

} // namespace retypd

#endif // RETYPD_CORE_CONSTRAINTSET_H
