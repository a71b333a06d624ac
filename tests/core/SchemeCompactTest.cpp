//===- SchemeCompactTest.cpp - Vacuous-component pruning of schemes ----------===//
//
// dropVacuousComponents (core/ConstraintSet.h) removes the components of
// an exported scheme that no caller can observe. Hand-built schemes pin
// what is dropped and what is kept — in particular that a shared type
// constant never glues a dead component to a live one — and a property
// test over synthetic programs checks, for both solver backends, that a
// caller solves to exactly the same sketches whether its callees' schemes
// were compacted or not.
//
//===----------------------------------------------------------------------===//

#include "absint/ConstraintGen.h"
#include "analysis/CallGraph.h"
#include "analysis/InterfaceRecovery.h"
#include "core/ConstraintParser.h"
#include "core/SolverBackend.h"
#include "frontend/KnownFunctions.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

#include <set>

using namespace retypd;

namespace {

class SchemeCompactTest : public ::testing::Test {
protected:
  SchemeCompactTest() : Lat(makeDefaultLattice()), Parser(Syms, Lat) {}

  TypeVariable var(const std::string &Name) {
    return TypeVariable::var(Syms.intern(Name));
  }

  /// A scheme for F binding \p Existentials over the constraints \p Text.
  TypeScheme scheme(const std::vector<std::string> &Existentials,
                    const std::string &Text) {
    TypeScheme S;
    S.ProcVar = var("F");
    for (const std::string &E : Existentials)
      S.Existentials.push_back(var(E));
    auto C = Parser.parse(Text);
    if (!C)
      ADD_FAILURE() << Parser.error();
    else
      S.Constraints = std::move(*C);
    return S;
  }

  std::string body(const TypeScheme &S) {
    return S.Constraints.str(Syms, Lat);
  }

  std::vector<std::string> existentials(const TypeScheme &S) {
    std::vector<std::string> Names;
    for (TypeVariable V : S.Existentials)
      Names.push_back(Syms.name(V.symbol()));
    return Names;
  }

  SymbolTable Syms;
  Lattice Lat;
  ConstraintParser Parser;
};

} // namespace

TEST_F(SchemeCompactTest, DropsAllExistentialAddComponent) {
  TypeScheme S = scheme({"t0", "t1", "t2", "t3"}, R"(
    F.in0 <= t0
    t0 <= F.out
    add(t1, t2; t3)
  )");
  dropVacuousComponents(S);
  EXPECT_EQ(body(S), "F.in0 <= t0\nt0 <= F.out\n");
  EXPECT_EQ(existentials(S), std::vector<std::string>{"t0"});
}

TEST_F(SchemeCompactTest, ConstantsNeverJoinComponents) {
  // Two dead components and the live one all mention num32. Uniting
  // through the constant would make every component live.
  TypeScheme S = scheme({"t0", "t1", "t2"}, R"(
    F.in0 <= num32
    t0 <= num32
    add(t0, t0; t0)
    num32 <= t1.load
    t2 <= num32
    int <= num32
  )");
  dropVacuousComponents(S);
  // A constraint between constants alone relates no variable: kept.
  EXPECT_EQ(body(S), "F.in0 <= num32\nint <= num32\n");
  EXPECT_TRUE(S.Existentials.empty());
}

TEST_F(SchemeCompactTest, KeepsComponentsWithAFreeVariable) {
  // Components reached from the procedure variable (only through a var
  // declaration), from a kept SCC-mate procedure variable (a formal of
  // the SCC), and from a global all survive, existentials included.
  TypeScheme S = scheme({"t0", "t1", "t2", "t3", "t4"}, R"(
    var F.in0
    G.in0 <= t0
    add(t0, t1; t1)
    t2 <= g!counter.load
    sub(t2, t3; t4)
  )");
  std::string Before = body(S);
  dropVacuousComponents(S);
  EXPECT_EQ(body(S), Before);
  EXPECT_EQ(existentials(S),
            (std::vector<std::string>{"t0", "t1", "t2", "t3", "t4"}));
}

TEST_F(SchemeCompactTest, TrimsExistentialsToThoseThatOccur) {
  // t1 is bound but never mentioned; t3 only in a dropped component. The
  // survivors keep their order.
  TypeScheme S = scheme({"t2", "t1", "t0", "t3"}, R"(
    F.in0 <= t2
    t2 <= t0
    t0 <= F.out
    t3 <= int
  )");
  dropVacuousComponents(S);
  EXPECT_EQ(existentials(S), (std::vector<std::string>{"t2", "t0"}));
  EXPECT_EQ(body(S), "F.in0 <= t2\nt0 <= F.out\nt2 <= t0\n");
}

TEST_F(SchemeCompactTest, IsIdempotent) {
  TypeScheme S = scheme({"t0", "t1", "t2", "t3", "t4"}, R"(
    F.in0 <= t0
    t0.load <= F.out
    add(t1, t2; t3)
    t3 <= num32
    t4 <= int
  )");
  dropVacuousComponents(S);
  std::string Once = S.str(Syms, Lat);
  dropVacuousComponents(S);
  EXPECT_EQ(S.str(Syms, Lat), Once);
  EXPECT_EQ(existentials(S), std::vector<std::string>{"t0"});
}

namespace {

void expectSameSketch(const Sketch &A, const Sketch &B,
                      const std::string &Where) {
  ASSERT_EQ(A.size(), B.size()) << Where;
  for (uint32_t N = 0; N < A.size(); ++N) {
    const Sketch::Node &X = A.node(N), &Y = B.node(N);
    EXPECT_EQ(X.Mark, Y.Mark) << Where << " node " << N;
    EXPECT_EQ(X.Lower, Y.Lower) << Where << " node " << N;
    EXPECT_EQ(X.Upper, Y.Upper) << Where << " node " << N;
    EXPECT_EQ(X.PointerLike, Y.PointerLike) << Where << " node " << N;
    EXPECT_EQ(X.IntegerLike, Y.IntegerLike) << Where << " node " << N;
    EXPECT_EQ(X.Conflicts, Y.Conflicts) << Where << " node " << N;
    EXPECT_EQ(X.Children, Y.Children) << Where << " node " << N;
  }
}

/// Walks \p M bottom-up the way the session does, with compacted callee
/// schemes. At every SCC the caller's set is generated twice — once over
/// the compacted schemes, once over the raw Backend.simplify output — and
/// both are solved for the SCC's wanted variables (member procedure
/// variables and callsite variables). Returns the number of schemes the
/// pass actually shrank.
size_t checkModule(Module M, BackendKind Kind, const std::string &Name) {
  SymbolTable Syms;
  Lattice Lat = makeDefaultLattice();
  std::unordered_map<uint32_t, TypeScheme> Compact;
  recoverInterfaces(M);
  registerKnownFunctions(M, Syms, Lat, Compact);
  std::unordered_map<uint32_t, TypeScheme> Raw = Compact;

  CallGraph CG(M);
  ConstraintGenerator Gen(Syms, Lat, M);
  auto Backend = makeSolverBackend(Kind, Syms, Lat, SimplifyOptions{});
  size_t Shrunk = 0;
  for (uint32_t Scc : CG.bottomUpOrder()) {
    const std::vector<uint32_t> &All = CG.sccs()[Scc];
    std::set<uint32_t> Mates(All.begin(), All.end());
    std::vector<uint32_t> Members;
    for (uint32_t F : All)
      if (!M.Funcs[F].IsExternal)
        Members.push_back(F);
    if (Members.empty())
      continue;

    ConstraintSet FromCompact, FromRaw;
    std::unordered_set<TypeVariable> Interesting;
    std::vector<TypeVariable> Wanted;
    for (uint32_t F : Members) {
      GenResult R = Gen.generate(F, Compact, Mates);
      FromCompact.merge(R.C);
      FromRaw.merge(Gen.generate(F, Raw, Mates).C);
      Interesting.insert(R.Interesting.begin(), R.Interesting.end());
      Wanted.push_back(Gen.procVar(F));
      Wanted.insert(Wanted.end(), R.Callsites.begin(), R.Callsites.end());
    }
    FromCompact.canonicalize(Syms, Lat);
    FromRaw.canonicalize(Syms, Lat);

    SketchSolution A = Backend->solve(FromCompact, Wanted);
    SketchSolution B = Backend->solve(FromRaw, Wanted);
    for (TypeVariable V : Wanted)
      expectSameSketch(A.sketchFor(V), B.sketchFor(V),
                       Name + " " + backendName(Kind) + " " +
                           Syms.name(V.symbol()));

    for (uint32_t F : Members) {
      std::unordered_set<TypeVariable> Keep = Interesting;
      for (uint32_t Mate : All)
        if (Mate != F)
          Keep.insert(Gen.procVar(Mate));
      TypeScheme S = Backend->simplify(FromCompact, Gen.procVar(F), Keep);
      S.Constraints.canonicalize(Syms, Lat);
      Raw[F] = S;
      dropVacuousComponents(S);
      S.Constraints.canonicalize(Syms, Lat);
      Shrunk += S.Constraints.size() < Raw[F].Constraints.size();
      Compact[F] = std::move(S);
    }
  }
  return Shrunk;
}

} // namespace

TEST(SchemeCompactPropertyTest, CompactedCalleesSolveIdentically) {
  SynthGenerator Synth;
  for (BackendKind Kind : {BackendKind::Retypd, BackendKind::BinSub}) {
    size_t Shrunk = 0;
    for (uint64_t Seed = 1; Seed <= 6; ++Seed) {
      SynthOptions Opts;
      Opts.Seed = Seed;
      Opts.TargetInstructions = 400;
      SynthProgram P = Synth.generate("p" + std::to_string(Seed), Opts);
      Shrunk += checkModule(std::move(P.M), Kind, P.Name);
    }
    // The property is only meaningful if the pass had something to drop.
    EXPECT_GT(Shrunk, 0u) << backendName(Kind);
  }
}
