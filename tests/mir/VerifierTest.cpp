//===- VerifierTest.cpp - Structural module verifier ------------------------===//
//
// One malformed module per verifier rule: each test builds the smallest
// module violating exactly one structural invariant and asserts the
// verifier reports it (and nothing unrelated). A final block checks the
// diagnostic renderer: AsmParser's line table turns verifier findings on
// parsed text into file:line positions.
//
//===----------------------------------------------------------------------===//

#include "mir/AsmParser.h"
#include "mir/Verifier.h"

#include <gtest/gtest.h>

using namespace retypd;

namespace {

// Names below are set with append(), not `= "X"`: GCC 12 reports a false
// -Wrestrict for a one-character literal assigned to a std::string under
// -fsanitize=address, and CI builds with warnings as errors.

/// A minimal well-formed module: one function, `ret`.
Module tiny() {
  Module M;
  Function F;
  F.Name.append("f");
  Instr Ret;
  Ret.Op = Opcode::Ret;
  F.Body.push_back(Ret);
  M.addFunction(std::move(F));
  return M;
}

/// True when some error message contains \p Needle.
bool hasError(const ModuleVerifyResult &R, const std::string &Needle) {
  for (const ModuleDiag &D : R.Errors)
    if (D.Message.find(Needle) != std::string::npos)
      return true;
  return false;
}

TEST(ModuleVerifierTest, CleanModulePasses) {
  Module M = tiny();
  ModuleVerifyResult R = verifyModule(M);
  EXPECT_TRUE(R.ok()) << renderModuleDiags(M, R);
}

TEST(ModuleVerifierTest, DuplicateFunctionName) {
  Module M = tiny();
  Function F2;
  F2.Name.append("f"); // clashes; FuncByName silently keeps only one id
  Instr Ret;
  Ret.Op = Opcode::Ret;
  F2.Body.push_back(Ret);
  M.addFunction(std::move(F2));
  ModuleVerifyResult R = verifyModule(M);
  EXPECT_TRUE(hasError(R, "duplicate function name 'f'"));
}

TEST(ModuleVerifierTest, DuplicateGlobalName) {
  Module M = tiny();
  M.addGlobal({"g", 4});
  M.addGlobal({"g", 8});
  EXPECT_TRUE(hasError(verifyModule(M), "duplicate global name 'g'"));
}

TEST(ModuleVerifierTest, NameMapInconsistency) {
  Module M = tiny();
  M.FuncByName["f"] = 7; // dangling id
  EXPECT_TRUE(hasError(verifyModule(M),
                       "name map entry 'f' does not match its function"));
}

TEST(ModuleVerifierTest, FunctionMissingFromNameMap) {
  Module M = tiny();
  M.FuncByName.clear();
  EXPECT_TRUE(hasError(verifyModule(M), "missing from the name map"));
}

TEST(ModuleVerifierTest, EntryFunctionOutOfRange) {
  Module M = tiny();
  M.EntryFunc = 99;
  EXPECT_TRUE(hasError(verifyModule(M), "entry function id 99 out of range"));
}

TEST(ModuleVerifierTest, ExternalWithBody) {
  Module M = tiny();
  M.Funcs[0].IsExternal = true; // but keeps its ret
  EXPECT_TRUE(hasError(verifyModule(M), "external function 'f' has a body"));
}

TEST(ModuleVerifierTest, BadRegisterParameter) {
  Module M = tiny();
  M.Funcs[0].RegParams.push_back(Reg::None);
  EXPECT_TRUE(
      hasError(verifyModule(M), "register parameter of 'f' is not a register"));
}

TEST(ModuleVerifierTest, UnknownOpcode) {
  Module M = tiny();
  Instr Bad;
  Bad.Op = static_cast<Opcode>(200);
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Bad);
  EXPECT_TRUE(hasError(verifyModule(M), "unknown opcode 200"));
}

TEST(ModuleVerifierTest, RegisterOperandOutOfRange) {
  Module M = tiny();
  Instr Mov;
  Mov.Op = Opcode::Mov;
  Mov.Dst = static_cast<Reg>(42); // not even encodable as Reg
  Mov.Src = Reg::Eax;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Mov);
  EXPECT_TRUE(hasError(verifyModule(M), "register operand out of range"));
}

TEST(ModuleVerifierTest, MissingRequiredOperands) {
  Module M = tiny();
  Instr Mov; // mov with neither dst nor src
  Mov.Op = Opcode::Mov;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Mov);
  ModuleVerifyResult R = verifyModule(M);
  EXPECT_TRUE(hasError(R, "missing destination register"));
  EXPECT_TRUE(hasError(R, "missing source register"));
}

TEST(ModuleVerifierTest, BadMemorySize) {
  Module M = tiny();
  Instr Load;
  Load.Op = Opcode::Load;
  Load.Dst = Reg::Eax;
  Load.Mem.Base = Reg::Esp;
  Load.Mem.Size = 3;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Load);
  EXPECT_TRUE(hasError(verifyModule(M), "bad memory access size 3"));
}

TEST(ModuleVerifierTest, MemoryGlobalOutOfRange) {
  Module M = tiny();
  Instr Load;
  Load.Op = Opcode::Load;
  Load.Dst = Reg::Eax;
  Load.Mem.GlobalSym = 5; // no globals exist
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Load);
  EXPECT_TRUE(hasError(verifyModule(M), "references global #5"));
}

TEST(ModuleVerifierTest, MemoryWithoutBaseOrGlobal) {
  Module M = tiny();
  Instr Load;
  Load.Op = Opcode::Load;
  Load.Dst = Reg::Eax; // Mem stays Base=None, no global
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Load);
  EXPECT_TRUE(
      hasError(verifyModule(M), "neither base register nor global"));
}

TEST(ModuleVerifierTest, BranchTargetOutOfRange) {
  Module M = tiny();
  Instr Jmp;
  Jmp.Op = Opcode::Jmp;
  Jmp.Target = 100;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Jmp);
  EXPECT_TRUE(hasError(verifyModule(M), "branch target #100 out of range"));
}

TEST(ModuleVerifierTest, UnknownConditionCode) {
  Module M = tiny();
  Instr Jcc;
  Jcc.Op = Opcode::Jcc;
  Jcc.Target = 1; // the ret
  Jcc.CC = static_cast<Cond>(99);
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Jcc);
  EXPECT_TRUE(hasError(verifyModule(M), "unknown condition code"));
}

TEST(ModuleVerifierTest, UnknownCallTarget) {
  Module M = tiny();
  Instr Call;
  Call.Op = Opcode::Call;
  Call.Target = 9;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Call);
  EXPECT_TRUE(hasError(verifyModule(M), "unknown call target #9"));
}

TEST(ModuleVerifierTest, UnknownGlobalInMovGlobal) {
  Module M = tiny();
  Instr Mg;
  Mg.Op = Opcode::MovGlobal;
  Mg.Dst = Reg::Eax;
  Mg.Target = 3;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Mg);
  EXPECT_TRUE(hasError(verifyModule(M), "unknown global #3"));
}

TEST(ModuleVerifierTest, TrailingConditionalBranch) {
  Module M = tiny();
  Instr Jcc;
  Jcc.Op = Opcode::Jcc;
  Jcc.Target = 0;
  M.Funcs[0].Body.push_back(Jcc); // jcc is now the last instruction
  EXPECT_TRUE(
      hasError(verifyModule(M), "conditional branch falls off the end"));
}

TEST(ModuleVerifierTest, AllErrorsReportedNotJustFirst) {
  // Three independent violations in one module: every one must appear.
  Module M = tiny();
  Instr Call;
  Call.Op = Opcode::Call;
  Call.Target = 9;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Call);
  Instr Jmp;
  Jmp.Op = Opcode::Jmp;
  Jmp.Target = 100;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Jmp);
  M.EntryFunc = 50;
  ModuleVerifyResult R = verifyModule(M);
  EXPECT_GE(R.Errors.size(), 3u);
  EXPECT_TRUE(hasError(R, "unknown call target"));
  EXPECT_TRUE(hasError(R, "branch target #100"));
  EXPECT_TRUE(hasError(R, "entry function id 50"));
}

TEST(ModuleVerifierTest, RenderedDiagsUseParserLineTable) {
  // Parse a program whose only defect is post-parse structural (a jcc as
  // the final instruction); the diagnostic must carry the 1-based source
  // line of that instruction.
  AsmParser Parser;
  auto M = Parser.parse("fn f:\n"
                        "  nop\n"
                        "  jz top\n" // line 3; 'top' is instruction 0
                        "top:\n");
  // Some parsers may reject this outright; the rendering contract only
  // matters when the module parses.
  ASSERT_TRUE(M.has_value()) << Parser.error();
  ModuleVerifyResult R = verifyModule(*M);
  ASSERT_FALSE(R.ok());
  std::string Text =
      renderModuleDiags(*M, R, "prog.asm", &Parser.lineTable());
  EXPECT_NE(Text.find("prog.asm:3: error:"), std::string::npos) << Text;
}

TEST(ModuleVerifierTest, RenderedDiagsFallBackWithoutLineTable) {
  Module M = tiny();
  Instr Jmp;
  Jmp.Op = Opcode::Jmp;
  Jmp.Target = 100;
  M.Funcs[0].Body.insert(M.Funcs[0].Body.begin(), Jmp);
  std::string Text = renderModuleDiags(M, verifyModule(M));
  EXPECT_NE(Text.find("<module>: function 'f' instr #0: error:"),
            std::string::npos)
      << Text;
}

} // namespace
