//===- VerifierTest.cpp - Formation-rule verifier ----------------------------===//
//
// Malformed fixtures for the constraint/sketch verifier, one per
// formation rule: illegal label encodings, dangling base variables,
// out-of-lattice constants and marks, broken canonical order, scheme
// closure escapes, and sketch-graph defects. Also pins the counter
// contract: every top-level check bumps Counter::VerifierChecks.
//
//===----------------------------------------------------------------------===//

#include "core/Verifier.h"
#include "support/Stats.h"

#include <gtest/gtest.h>

using namespace retypd;

namespace {

class CoreVerifierTest : public ::testing::Test {
protected:
  CoreVerifierTest() : Lat(makeDefaultLattice()) {}

  TypeVariable tv(std::string_view Name) {
    return TypeVariable::var(Syms.intern(Name));
  }

  DerivedTypeVariable dtv(std::string_view Name,
                          std::vector<Label> Word = {}) {
    return DerivedTypeVariable(tv(Name), std::move(Word));
  }

  /// True when some diagnostic contains \p Needle.
  static bool hasError(const VerifyDiags &D, const std::string &Needle) {
    for (const std::string &E : D.Errors)
      if (E.find(Needle) != std::string::npos)
        return true;
    return false;
  }

  SymbolTable Syms;
  Lattice Lat;
};

TEST_F(CoreVerifierTest, CleanDtvPasses) {
  VerifyDiags D;
  verifyDtv(dtv("f", {Label::in(0), Label::load(), Label::field(32, 4)}),
            Syms, Lat, "t", D);
  EXPECT_TRUE(D.ok()) << D.str();
}

TEST_F(CoreVerifierTest, InvalidBaseVariable) {
  VerifyDiags D;
  verifyDtv(DerivedTypeVariable(TypeVariable()), Syms, Lat, "t", D);
  EXPECT_TRUE(hasError(D, "invalid type variable")) << D.str();
}

TEST_F(CoreVerifierTest, DanglingSymbolReference) {
  VerifyDiags D;
  verifyDtv(DerivedTypeVariable(TypeVariable::var(12345)), Syms, Lat, "t", D);
  EXPECT_TRUE(hasError(D, "references symbol #12345")) << D.str();
}

TEST_F(CoreVerifierTest, ConstantOutsideLattice) {
  VerifyDiags D;
  verifyDtv(DerivedTypeVariable(TypeVariable::constant(9999)), Syms, Lat, "t",
            D);
  EXPECT_TRUE(hasError(D, "lattice element #9999")) << D.str();
}

TEST_F(CoreVerifierTest, LabelKindOutsideSigma) {
  VerifyDiags D;
  verifyDtv(dtv("f", {Label::fromRaw(5ull << 48)}), Syms, Lat, "t", D);
  EXPECT_TRUE(hasError(D, "kind bits 5 outside")) << D.str();
}

TEST_F(CoreVerifierTest, LoadLabelWithGarbageOperandBits) {
  uint64_t Raw = (static_cast<uint64_t>(Label::Kind::Load) << 48) | 7;
  VerifyDiags D;
  verifyDtv(dtv("f", {Label::fromRaw(Raw)}), Syms, Lat, "t", D);
  EXPECT_TRUE(hasError(D, "nonzero operand bits")) << D.str();
}

TEST_F(CoreVerifierTest, InLabelWithGarbageWidthBits) {
  uint64_t Raw =
      (static_cast<uint64_t>(Label::Kind::In) << 48) | (1ull << 32) | 2;
  VerifyDiags D;
  verifyDtv(dtv("f", {Label::fromRaw(Raw)}), Syms, Lat, "t", D);
  EXPECT_TRUE(hasError(D, "nonzero width bits")) << D.str();
}

TEST_F(CoreVerifierTest, ConstraintSetWalksEveryConstraintKind) {
  ConstraintSet C;
  C.addSubtype(dtv("a"), DerivedTypeVariable(TypeVariable::var(777)));
  C.addVar(DerivedTypeVariable(TypeVariable::constant(8888)));
  AddSubConstraint A;
  A.IsSub = false;
  A.X = dtv("x");
  A.Y = DerivedTypeVariable(TypeVariable());
  A.Z = dtv("z");
  C.addAddSub(A);
  VerifyDiags D;
  verifyConstraintSet(C, Syms, Lat, "cs", D);
  EXPECT_TRUE(hasError(D, "subtype #0")) << D.str();
  EXPECT_TRUE(hasError(D, "var #0")) << D.str();
  EXPECT_TRUE(hasError(D, "addsub #0")) << D.str();
}

TEST_F(CoreVerifierTest, CanonicalOrderViolationDetected) {
  // A canonicalized two-constraint set passes; the same constraints
  // appended in the opposite storage order must be flagged.
  ConstraintSet C;
  C.addSubtype(dtv("a"), dtv("b"));
  C.addSubtype(dtv("b"), dtv("c"));
  C.addVar(dtv("a", {Label::load()}));
  C.addVar(dtv("b", {Label::store()}));
  C.canonicalize(Syms, Lat);
  {
    VerifyDiags D;
    verifyCanonicalOrder(C, Syms, Lat, "cs", D);
    EXPECT_TRUE(D.ok()) << D.str();
  }
  ConstraintSet R;
  const auto &Subs = C.subtypes();
  for (size_t I = Subs.size(); I-- > 0;)
    R.appendSubtypeTrusted(Subs[I].Lhs, Subs[I].Rhs);
  VerifyDiags D;
  verifyCanonicalOrder(R, Syms, Lat, "cs", D);
  EXPECT_TRUE(hasError(D, "not in canonical order")) << D.str();
}

TEST_F(CoreVerifierTest, SchemeClosureCatchesEscapes) {
  TypeScheme S;
  S.ProcVar = tv("f");
  S.Constraints.addSubtype(dtv("f", {Label::out()}), dtv("g"));
  std::unordered_set<TypeVariable> None;
  VerifyDiags D;
  verifyScheme(S, Syms, Lat, &None, "scheme", D);
  EXPECT_TRUE(hasError(D, "free type variable 'g' escapes")) << D.str();

  // The same scheme is closed once 'g' is an existential, or an allowed
  // free SCC mate.
  {
    TypeScheme S2 = S;
    S2.Existentials.push_back(tv("g"));
    VerifyDiags D2;
    verifyScheme(S2, Syms, Lat, &None, "scheme", D2);
    EXPECT_TRUE(D2.ok()) << D2.str();
  }
  {
    std::unordered_set<TypeVariable> Mates{tv("g")};
    VerifyDiags D3;
    verifyScheme(S, Syms, Lat, &Mates, "scheme", D3);
    EXPECT_TRUE(D3.ok()) << D3.str();
  }
}

TEST_F(CoreVerifierTest, SchemeHeadMustBeAVariable) {
  TypeScheme S;
  S.ProcVar = TypeVariable::constant(0);
  VerifyDiags D;
  verifyScheme(S, Syms, Lat, nullptr, "scheme", D);
  EXPECT_TRUE(hasError(D, "procedure variable is a type constant"))
      << D.str();
}

TEST_F(CoreVerifierTest, SketchDefectsDetected) {
  Sketch S;
  uint32_t Mid = S.addNode();
  S.addEdge(S.root(), Label::load(), Mid);
  S.node(Mid).Mark = 4242;                    // not a lattice element
  S.addEdge(Mid, Label::store(), 99);         // dangling edge target
  S.node(Mid).Children[Label::fromRaw(7ull << 48)] = S.root(); // bad label
  VerifyDiags D;
  verifySketch(S, Lat, "sk", D);
  EXPECT_TRUE(hasError(D, "mark #4242")) << D.str();
  EXPECT_TRUE(hasError(D, "edge targets node #99")) << D.str();
  EXPECT_TRUE(hasError(D, "edge labeled outside")) << D.str();
}

TEST_F(CoreVerifierTest, UnreachableSketchNodesAreNotInspected) {
  // withChild grafting leaves unreachable residue behind; garbage there
  // is not a formation-rule violation.
  Sketch S;
  uint32_t Orphan = S.addNode();
  S.node(Orphan).Mark = 31337; // would be flagged if visited
  VerifyDiags D;
  verifySketch(S, Lat, "sk", D);
  EXPECT_TRUE(D.ok()) << D.str();
}

TEST_F(CoreVerifierTest, EveryTopLevelCheckBumpsTheCounter) {
  auto Count = [] {
    return CounterSnapshot::take().VerifierChecks;
  };
  VerifyDiags D;
  ConstraintSet C;
  uint64_t C0 = Count();
  verifyConstraintSet(C, Syms, Lat, "t", D);
  EXPECT_EQ(Count(), C0 + 1);
  verifyCanonicalOrder(C, Syms, Lat, "t", D);
  EXPECT_EQ(Count(), C0 + 2);
  Sketch Sk;
  verifySketch(Sk, Lat, "t", D);
  EXPECT_EQ(Count(), C0 + 3);
  TypeScheme S;
  S.ProcVar = tv("f");
  uint64_t Before = Count();
  verifyScheme(S, Syms, Lat, nullptr, "t", D);
  EXPECT_GE(Count(), Before + 1);
}

} // namespace
