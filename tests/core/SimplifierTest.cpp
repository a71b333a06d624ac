//===- SimplifierTest.cpp - Type-scheme inference (§5) tests ----------------===//

#include "core/ConstraintParser.h"
#include "core/Simplifier.h"
#include "core/Solver.h"

#include <gtest/gtest.h>

using namespace retypd;

namespace {

class SimplifierTest : public ::testing::Test {
protected:
  SimplifierTest()
      : Lat(makeDefaultLattice()), Parser(Syms, Lat), Simp(Syms, Lat) {}

  ConstraintSet parse(const std::string &Text) {
    auto C = Parser.parse(Text);
    if (!C) {
      ADD_FAILURE() << Parser.error();
      return ConstraintSet();
    }
    return *C;
  }

  TypeVariable var(const std::string &Name) {
    return TypeVariable::var(Syms.intern(Name));
  }

  /// True if the scheme's constraint set (solved again from scratch) still
  /// entails Lhs <= Rhs for DTVs over interesting variables.
  bool schemeDerives(const TypeScheme &S, const std::string &Lhs,
                     const std::string &Rhs) {
    ConstraintGraph G(S.Constraints);
    G.saturate();
    auto L = Parser.parseDtv(Lhs);
    auto R = Parser.parseDtv(Rhs);
    EXPECT_TRUE(L && R) << Parser.error();
    GraphNodeId Ln = G.lookup(*L, Variance::Covariant);
    GraphNodeId Rn = G.lookup(*R, Variance::Covariant);
    if (Ln == ConstraintGraph::NoNode || Rn == ConstraintGraph::NoNode)
      return false;
    for (GraphNodeId N : G.oneReachableFrom(Ln))
      if (N == Rn)
        return true;
    return false;
  }

  SymbolTable Syms;
  Lattice Lat;
  ConstraintParser Parser;
  Simplifier Simp;
};

} // namespace

TEST_F(SimplifierTest, EliminatesLocalChains) {
  // F.in0 flows through locals a, b into the output: the scheme should
  // relate F.in0 to F.out directly, with no existentials.
  ConstraintSet C = parse(R"(
    F.in0 <= a
    a <= b
    b <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(schemeDerives(S, "F.in0", "F.out"));
  EXPECT_TRUE(S.Existentials.empty())
      << S.str(Syms, Lat);
}

TEST_F(SimplifierTest, KeepsConstantBounds) {
  ConstraintSet C = parse(R"(
    F.in0 <= a
    a <= int
    #SuccessZ <= b
    b <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(schemeDerives(S, "F.in0", "int"));
  EXPECT_TRUE(schemeDerives(S, "#SuccessZ", "F.out"));
}

TEST_F(SimplifierTest, DropsIrrelevantLocals) {
  // z is local plumbing unconnected to the interface.
  ConstraintSet C = parse(R"(
    F.in0 <= F.out
    z1 <= z2
    z2 <= z1
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(S.Existentials.empty());
  EXPECT_EQ(S.Constraints.subtypes().size(), 1u);
}

TEST_F(SimplifierTest, RecursiveTypeKeepsExistential) {
  // The close_last shape (Figure 2): a loop through a local forces one
  // existential variable carrying a recursive constraint.
  ConstraintSet C = parse(R"(
    F.in0 <= t
    t.load.s32@0 <= t
    t.load.s32@4 <= fd
    fd <= int
    fd <= #FileDescriptor
    #SuccessZ <= r
    r <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  ASSERT_EQ(S.Existentials.size(), 1u) << S.str(Syms, Lat);
  // The recursive loop survives: some τ with τ.load.s32@0 <= τ.
  std::string Text = S.Constraints.str(Syms, Lat);
  EXPECT_NE(Text.find(".load.s32@0 <= τ"), std::string::npos) << Text;
  EXPECT_TRUE(schemeDerives(S, "#SuccessZ", "F.out"));
}

TEST_F(SimplifierTest, PreservesPointerFlowAcrossInterface) {
  // Figure 4 embedded in a procedure: the relation between the two formals
  // mediated by local aliased pointers must survive simplification.
  ConstraintSet C = parse(R"(
    F.in0 <= x
    F.in1 <= q
    q <= p
    x <= q.store
    p.load <= y
    y <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_TRUE(schemeDerives(S, "F.in0", "F.out")) << S.str(Syms, Lat);
}

TEST_F(SimplifierTest, KeepsCapabilitiesOfProcedure) {
  ConstraintSet C = parse(R"(
    F.in0 <= p
    p.load.s32@0 <= r
    r <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  bool SawIn = false;
  for (const DerivedTypeVariable &V : S.Constraints.vars())
    if (V.size() >= 1 && V.labels()[0] == Label::in(0))
      SawIn = true;
  EXPECT_TRUE(SawIn) << S.str(Syms, Lat);
}

TEST_F(SimplifierTest, InterestingVariablesSurvive) {
  // A global g must not be renamed away.
  ConstraintSet C = parse(R"(
    F.in0 <= a
    a <= g
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {var("g")});
  EXPECT_TRUE(schemeDerives(S, "F.in0", "g"));
}

TEST_F(SimplifierTest, SchemePrintsReadably) {
  ConstraintSet C = parse("F.in0 <= F.out\n");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  std::string Text = S.str(Syms, Lat);
  EXPECT_NE(Text.find("forall F"), std::string::npos);
  EXPECT_NE(Text.find("F.in0 <= F.out"), std::string::npos);
}

TEST_F(SimplifierTest, AddSubSurvives) {
  ConstraintSet C = parse(R"(
    F.in0 <= a
    add(a, k; z)
    z <= F.out
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {});
  EXPECT_EQ(S.Constraints.addSubs().size(), 1u);
}

TEST_F(SimplifierTest, TidyInlinesRelaysInCreationOrder) {
  // Three relay existentials (a, b, c) between two formals, two outputs
  // and a global. The tidy pass inlines one victim per iteration, always
  // the first eligible existential in creation order, and appends each
  // victim's in x out products after the surviving constraints, so the
  // victim order shows in the scheme's constraint order. A recursive
  // local (t) keeps one existential alive across the pass, and its name
  // shows the creation-order numbering. The expected text was recorded
  // with the hash-map census that preceded the dense per-ordinal one.
  ConstraintSet C = parse(R"(
    F.in0 <= a
    F.in1 <= a
    a <= b
    b <= F.out
    b <= c
    c <= g
    c <= F.out1
    F.in2 <= t
    t.load.s32@0 <= t
    t.load.s32@4 <= c
  )");
  TypeScheme S = Simp.simplify(C, var("F"), {var("g")});
  // Raw constraint order (TypeScheme::str sorts; the codec and the cache
  // keep this order verbatim).
  std::string Order;
  for (const SubtypeConstraint &SC : S.Constraints.subtypes())
    Order += SC.Lhs.str(Syms, Lat) + " <= " + SC.Rhs.str(Syms, Lat) + "\n";
  EXPECT_EQ(Order, "F.in2 <= τ$F$3\n"
                   "τ$F$3.load.s32@0 <= τ$F$3\n"
                   "F.in0 <= F.out\n"
                   "F.in1 <= F.out\n"
                   "τ$F$3.load.s32@4 <= g\n"
                   "τ$F$3.load.s32@4 <= F.out1\n"
                   "F.in0 <= g\n"
                   "F.in0 <= F.out1\n"
                   "F.in1 <= g\n"
                   "F.in1 <= F.out1\n");
  ASSERT_EQ(S.Existentials.size(), 1u);
  EXPECT_EQ(Syms.name(S.Existentials[0].symbol()), "τ$F$3");
}
