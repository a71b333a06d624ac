//===- Diamond.cpp - Fork/join diamond ladder and its expected types -------===//

#include "Diamond.h"

#include <cctype>
#include <cstdlib>
#include <random>
#include <set>

namespace perfbench {

std::string diamondAsm(unsigned Layers, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_int_distribution<int> Imm(1, 1000);
  std::string Asm = "fn d0:\n  load eax, [esp+4]\n  add eax, " +
                    std::to_string(Imm(Rng)) + "\n  ret\n";
  for (unsigned I = 1; I <= Layers; ++I) {
    std::string N = std::to_string(I), P = "d" + std::to_string(I - 1);
    for (const char *Arm : {"a", "b"})
      Asm += "fn " + std::string(Arm) + N +
             ":\n  load eax, [esp+4]\n  push eax\n  call " + P +
             "\n  add esp, 4\n  ret\n";
    Asm += "fn d" + N + ":\n  push " + std::to_string(Imm(Rng)) +
           "\n  call a" + N + "\n  add esp, 4\n  push " +
           std::to_string(Imm(Rng)) + "\n  call b" + N +
           "\n  add esp, 4\n  ret\n";
  }
  return Asm;
}

std::string expectedDiamondPrototype(const std::string &Backend,
                                     const std::string &Name) {
  if (Name.size() < 2 || (Name[0] != 'a' && Name[0] != 'b' && Name[0] != 'd'))
    return "";
  char *End = nullptr;
  unsigned long N = std::strtoul(Name.c_str() + 1, &End, 10);
  if (*End || !std::isdigit(static_cast<unsigned char>(Name[1])) ||
      (Name[0] != 'd' && N == 0))
    return "";
  const bool Retypd = Backend == "retypd";
  if (Name[0] == 'd') {
    if (N == 0)
      return "int d0(int)";
    return (Retypd && N >= 2 ? "uint32_t " : "int ") + Name + "(void)";
  }
  if (N == 1)
    return "int " + Name + "(int)";
  return (Retypd ? "uint32_t " : "int ") + Name + "(uint32_t)";
}

std::vector<std::string> checkDiamondPrototypes(
    const std::string &Backend, unsigned Layers,
    const std::vector<std::pair<std::string, std::string>> &Prototypes) {
  std::vector<std::string> Errors;
  std::set<std::string> Seen;
  for (const auto &[Name, Proto] : Prototypes) {
    std::string Want = expectedDiamondPrototype(Backend, Name);
    if (Want.empty() ||
        std::strtoul(Name.c_str() + 1, nullptr, 10) > Layers) {
      Errors.push_back("unexpected function " + Name);
      continue;
    }
    Seen.insert(Name);
    if (Proto != Want)
      Errors.push_back(Name + ": got '" + Proto + "', want '" + Want + "'");
  }
  const size_t Expected = 1 + 3 * static_cast<size_t>(Layers);
  if (Seen.size() != Expected || Prototypes.size() != Expected)
    Errors.push_back("expected " + std::to_string(Expected) +
                     " distinct ladder functions, got " +
                     std::to_string(Prototypes.size()));
  return Errors;
}

retypd::GroundTruth diamondTruth(unsigned Layers) {
  retypd::GroundTruth T;
  const retypd::CTypeId Int = T.Pool.intType(32, true);
  auto Add = [&](const std::string &Name, bool HasParam) {
    retypd::FuncTruth &F = T.Funcs[Name];
    if (HasParam)
      F.Params.push_back({Int, false});
    F.HasRet = true;
    F.Ret = Int;
  };
  Add("d0", true);
  for (unsigned I = 1; I <= Layers; ++I) {
    const std::string N = std::to_string(I);
    Add("a" + N, true);
    Add("b" + N, true);
    Add("d" + N, false);
  }
  return T;
}

} // namespace perfbench
