//===- SchedulerTest.cpp - Barrier-free readiness scheduler ------------------===//
//
// Adversarial call-graph shapes for the dependency-counted scheduler in
// frontend/Session: a long chain (zero parallelism, maximal commit
// pressure), a star (one wide wave), many independent tiny SCCs (the
// batching case), and a diamond ladder (join/fork readiness counts).
// For every shape the text AND JSON reports must be byte-identical across
// --jobs 1 / 4 / auto and across tiny-batching thresholds, the scheduler
// counters must satisfy their invariants, and after replaceFunction the
// dirty-cone run must schedule only the cone.
//
//===----------------------------------------------------------------------===//

#include "frontend/ReportJson.h"
#include "frontend/ReportPrinter.h"
#include "frontend/Session.h"
#include "mir/AsmParser.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace retypd;

namespace {

Module parseProgram(const std::string &Text) {
  AsmParser Parser;
  auto M = Parser.parse(Text);
  EXPECT_TRUE(M.has_value()) << Parser.error();
  return M ? *M : Module();
}

std::string renderSession(const AnalysisSession &S) {
  EXPECT_NE(S.report(), nullptr);
  ReportPrintOptions Print;
  Print.Schemes = true;
  Print.Sketches = true;
  return renderReport(*S.report(), S.module(), S.lattice(), Print);
}

std::string renderSessionJson(const AnalysisSession &S) {
  ReportJsonOptions Opts;
  Opts.Schemes = true;
  Opts.Sketches = true;
  return renderReportJson(*S.report(), S.module(), S.lattice(), Opts);
}

/// f0 <- f1 <- ... <- f(N-1): every SCC depends on exactly the previous
/// one, so the ready queue never holds more than one SCC and every
/// out-of-order publish would be a commit stall.
std::string chainAsm(unsigned N) {
  std::string Asm = "fn f0:\n  load eax, [esp+4]\n  add eax, 1\n  ret\n";
  for (unsigned I = 1; I < N; ++I)
    Asm += "fn f" + std::to_string(I) +
           ":\n  load eax, [esp+4]\n  push eax\n  call f" +
           std::to_string(I - 1) + "\n  add esp, 4\n  ret\n";
  return Asm;
}

/// hub -> {leaf0 .. leaf(N-1)}: one maximally wide readiness wave, then a
/// single SCC whose dependency count is N.
std::string starAsm(unsigned N) {
  std::string Asm;
  for (unsigned I = 0; I < N; ++I)
    Asm += "fn leaf" + std::to_string(I) +
           ":\n  load eax, [esp+4]\n  add eax, " + std::to_string(I + 1) +
           "\n  ret\n";
  Asm += "fn hub:\n";
  for (unsigned I = 0; I < N; ++I)
    Asm += "  push " + std::to_string(I) + "\n  call leaf" +
           std::to_string(I) + "\n  add esp, 4\n";
  Asm += "  ret\n";
  return Asm;
}

/// N fully independent tiny functions: every SCC is ready immediately and
/// far below the tiny-SCC constraint threshold, so batching must engage.
std::string manyTinyAsm(unsigned N) {
  std::string Asm;
  for (unsigned I = 0; I < N; ++I)
    Asm += "fn t" + std::to_string(I) +
           ":\n  load eax, [esp+4]\n  add eax, " + std::to_string(I % 7) +
           "\n  ret\n";
  return Asm;
}

/// A ladder of diamonds: top_i -> {a_i, b_i} -> top_(i-1). Fork/join
/// readiness: each join SCC waits on two callers (phase 2) / the two
/// arms wait on the same callee (phase 1).
std::string diamondAsm(unsigned Layers) {
  std::string Asm = "fn d0:\n  load eax, [esp+4]\n  add eax, 1\n  ret\n";
  for (unsigned I = 1; I <= Layers; ++I) {
    std::string N = std::to_string(I);
    std::string P = std::string("d").append(std::to_string(I - 1));
    Asm += "fn a" + N + ":\n  load eax, [esp+4]\n  push eax\n  call " + P +
           "\n  add esp, 4\n  ret\n";
    Asm += "fn b" + N + ":\n  load eax, [esp+4]\n  push eax\n  call " + P +
           "\n  add esp, 4\n  ret\n";
    Asm += "fn d" + N + ":\n  push " + N + "\n  call a" + N +
           "\n  add esp, 4\n  push " + N + "\n  call b" + N +
           "\n  add esp, 4\n  ret\n";
  }
  return Asm;
}

struct RunOutput {
  std::string Text;
  std::string Json;
  PipelineStats Stats;
};

RunOutput runShape(const Module &M, unsigned Jobs,
                   unsigned TinySccConstraints = 64) {
  SessionOptions Opts;
  Opts.Jobs = Jobs;
  Opts.TinySccConstraints = TinySccConstraints;
  AnalysisSession S(makeDefaultLattice(), Opts);
  S.loadModule(M);
  S.analyze();
  RunOutput Out;
  Out.Text = renderSession(S);
  Out.Json = renderSessionJson(S);
  Out.Stats = S.report()->Stats;
  return Out;
}

void checkCounters(const PipelineStats &St, const char *Shape) {
  // Every dispatched work item is either a phase-1 simplify or a phase-2
  // solve; replays and trivial slots never reach the pool.
  EXPECT_EQ(St.SccsScheduled, St.SccsSimplified + St.SccsSolved) << Shape;
  if (St.SccsScheduled > 0) {
    EXPECT_GE(St.BatchesFormed, 1u) << Shape;
    EXPECT_GE(St.MaxReadyQueue, 1u) << Shape;
  }
}

} // namespace

TEST(SchedulerTest, AdversarialShapesByteIdenticalAcrossJobs) {
  const std::pair<const char *, std::string> Shapes[] = {
      {"chain", chainAsm(200)},
      {"star", starAsm(300)},
      {"many-tiny", manyTinyAsm(500)},
      {"diamond", diamondAsm(40)},
  };
  for (const auto &[Name, Asm] : Shapes) {
    Module M = parseProgram(Asm);
    RunOutput Seq = runShape(M, 1);
    checkCounters(Seq.Stats, Name);
    // jobs=4 (oversubscribed on small CI boxes) and jobs=0 (auto: one
    // executor per hardware thread) must reproduce the jobs=1 bytes.
    for (unsigned Jobs : {4u, 0u}) {
      RunOutput Par = runShape(M, Jobs);
      EXPECT_EQ(Par.Text, Seq.Text) << Name << " jobs=" << Jobs;
      EXPECT_EQ(Par.Json, Seq.Json) << Name << " jobs=" << Jobs;
      checkCounters(Par.Stats, Name);
    }
  }
}

TEST(SchedulerTest, TinyBatchingIsPureScheduling) {
  // Threshold 0 (batching off), 64 (default), and effectively-infinite
  // must all produce identical bytes — batching only groups work units,
  // it never reorders commits.
  Module M = parseProgram(manyTinyAsm(300));
  RunOutput Off = runShape(M, 4, 0);
  RunOutput Default = runShape(M, 4, 64);
  RunOutput Huge = runShape(M, 4, 1u << 20);
  EXPECT_EQ(Default.Text, Off.Text);
  EXPECT_EQ(Default.Json, Off.Json);
  EXPECT_EQ(Huge.Text, Off.Text);

  // With batching off, every scheduled SCC is its own work unit; with it
  // on, 300 tiny ready SCCs coalesce into far fewer units.
  EXPECT_EQ(Off.Stats.BatchesFormed, Off.Stats.SccsScheduled);
  EXPECT_GE(Default.Stats.BatchesFormed, 1u);
  EXPECT_LT(Default.Stats.BatchesFormed, Default.Stats.SccsScheduled);
}

TEST(SchedulerTest, StarExposesWideReadyQueue) {
  Module M = parseProgram(starAsm(300));
  RunOutput R = runShape(M, 4, 0); // unbatched: queue width is visible
  // All 300 leaves are ready before any commit retires them.
  EXPECT_GE(R.Stats.MaxReadyQueue, 300u);
}

TEST(SchedulerTest, TracingNeverPerturbsReports) {
  // Recording a trace must be pure observation: the text and JSON reports
  // stay byte-identical to an untraced run, at every jobs setting, and
  // the recording actually captured the per-SCC work.
  Module M = parseProgram(diamondAsm(8));
  RunOutput Off1 = runShape(M, 1);
  RunOutput Off4 = runShape(M, 4);
  ASSERT_EQ(Off4.Text, Off1.Text);

  for (unsigned Jobs : {1u, 4u}) {
    trace::start();
    RunOutput On = runShape(M, Jobs);
    trace::stop();
    EXPECT_EQ(On.Text, Off1.Text) << "jobs=" << Jobs;
    EXPECT_EQ(On.Json, Off1.Json) << "jobs=" << Jobs;

    std::vector<trace::Event> Events = trace::collect();
    EXPECT_GT(Events.size(), 0u);
    size_t SccSpans = 0;
    for (const trace::Event &E : Events)
      if (E.Ph == 'X' && std::string(E.Cat) == "scc")
        ++SccSpans;
    // Every scheduled SCC shows up at least once (simplify or solve).
    EXPECT_GE(SccSpans, static_cast<size_t>(On.Stats.SccsScheduled))
        << "jobs=" << Jobs;
    // And the profile attributes it to named functions.
    auto Rows = trace::buildProfile(Events);
    EXPECT_GT(Rows.size(), 0u);
    for (const trace::ProfileRow &Row : Rows)
      EXPECT_FALSE(Row.Fn.empty()) << "scc " << Row.Scc;
  }
}

TEST(SchedulerTest, DirtyConeSeedsDependencyCounts) {
  // Edit one mid-chain function: the incremental run must re-seed the
  // scheduler's dependency counts correctly (byte-identity with a fresh
  // run) and schedule only the dirty cone, not the whole chain.
  const unsigned N = 60;
  std::string Asm = chainAsm(N);
  Module M = parseProgram(Asm);

  SessionOptions Opts;
  Opts.Jobs = 4;
  AnalysisSession S(makeDefaultLattice(), Opts);
  S.loadModule(M);
  S.analyze();
  PipelineStats Fresh = S.report()->Stats;
  checkCounters(Fresh, "chain-fresh");

  // New f30 body: a different constant propagates into its scheme.
  Module Edited = parseProgram(Asm);
  uint32_t F30 = *Edited.findFunction("f30");
  Function NewBody = Edited.Funcs[F30];
  for (Instr &I : NewBody.Body)
    if (I.Op == Opcode::AddImm)
      I.Imm += 7;
  Edited.Funcs[F30] = NewBody;
  ASSERT_TRUE(S.replaceFunction("f30", NewBody));
  S.analyze();

  PipelineStats Inc = S.report()->Stats;
  checkCounters(Inc, "chain-incremental");
  EXPECT_TRUE(Inc.IncrementalRun);
  // The cone of f30 is f30 itself (phase 1 stops when its scheme hash
  // settles; phase 2 re-solves what phase 1 recomputed) — far less than
  // the 60-SCC chain either way.
  EXPECT_LT(Inc.SccsScheduled, Fresh.SccsScheduled);
  EXPECT_GE(Inc.SccsScheduled, 1u);

  // Byte-identical to a from-scratch analysis of the edited module, at
  // every jobs setting.
  std::string IncText = renderSession(S);
  std::string IncJson = renderSessionJson(S);
  for (unsigned Jobs : {1u, 4u, 0u}) {
    RunOutput FreshRun = runShape(Edited, Jobs);
    EXPECT_EQ(IncText, FreshRun.Text) << "jobs=" << Jobs;
    EXPECT_EQ(IncJson, FreshRun.Json) << "jobs=" << Jobs;
  }
}
