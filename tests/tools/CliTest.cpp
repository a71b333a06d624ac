//===- CliTest.cpp - retypd-cli subcommand behavior ---------------------------===//
//
// Drives the installed retypd-cli binary (path injected by CMake as
// RETYPD_CLI_PATH) through its subcommand surface: unknown-option
// rejection with "did you mean" hints and exit code 2, reanalyze's
// byte-identity with a fresh analyze, JSON output, and the cache verbs on
// artifact store directories.
//
//===----------------------------------------------------------------------===//

#include "core/SummaryCache.h"
#include "store/Store.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct CmdResult {
  int Exit = -1;
  std::string Out; ///< stdout + stderr, interleaved
};

/// Runs the CLI with \p Args, capturing combined output and the exit code.
CmdResult runCli(const std::string &Args) {
  CmdResult R;
  std::string Cmd = std::string(RETYPD_CLI_PATH) + " " + Args + " 2>&1";
  FILE *P = popen(Cmd.c_str(), "r");
  if (!P)
    return R;
  char Buf[4096];
  size_t N;
  while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
    R.Out.append(Buf, N);
  int Status = pclose(P);
  R.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return R;
}

std::string goldenAsm(const char *Name) {
  return (fs::path(RETYPD_SOURCE_DIR) / "tests" / "frontend" / "golden" /
          Name)
      .string();
}

fs::path writeTemp(const char *Name, const std::string &Content) {
  fs::path P = fs::temp_directory_path() / Name;
  std::ofstream Out(P, std::ios::binary | std::ios::trunc);
  Out << Content;
  return P;
}

std::string slurpFile(const fs::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::string S((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  return S;
}

} // namespace

TEST(CliTest, UnknownOptionExitsTwoWithSuggestion) {
  CmdResult R = runCli("analyze --schmes " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("unknown option '--schmes'"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("did you mean '--schemes'?"), std::string::npos)
      << R.Out;

  R = runCli("analyze --jbos 2 " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("did you mean '--jobs'?"), std::string::npos) << R.Out;
}

TEST(CliTest, UnknownCommandSuggestion) {
  CmdResult R = runCli("analize " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("did you mean 'analyze'?"), std::string::npos) << R.Out;
}

TEST(CliTest, FirstArgumentMustBeACommand) {
  // An input path or a flag in command position is not an implicit
  // `analyze`: it exits 2 and points at the command spelling.
  for (std::string Args : {goldenAsm("list_traverse.asm"),
                           "--schemes " + goldenAsm("list_traverse.asm")}) {
    CmdResult R = runCli(Args);
    EXPECT_EQ(R.Exit, 2) << Args;
    EXPECT_NE(R.Out.find("unknown command"), std::string::npos) << R.Out;
    EXPECT_NE(R.Out.find("retypd-cli analyze"), std::string::npos) << R.Out;
    EXPECT_EQ(R.Out.find("prototype"), std::string::npos)
        << "nothing may be analyzed: " << R.Out;
  }
}

TEST(CliTest, SummaryCacheFlagExitsTwoNamingStore) {
  // The whole-file cache format is gone; both spellings of its flag are
  // usage errors that name the store, and nothing is written at the path.
  fs::path File = fs::temp_directory_path() / "cli_removed_cache.bin";
  fs::remove(File);
  for (std::string Args :
       {"analyze --summary-cache " + File.string() + " " +
            goldenAsm("list_traverse.asm"),
        "analyze --summary-cache=" + File.string() + " " +
            goldenAsm("list_traverse.asm"),
        "reanalyze --summary-cache " + File.string() + " " +
            goldenAsm("list_traverse.asm") + " " +
            goldenAsm("list_traverse.asm")}) {
    CmdResult R = runCli(Args);
    EXPECT_EQ(R.Exit, 2) << Args << "\n" << R.Out;
    EXPECT_NE(R.Out.find("--store DIR"), std::string::npos) << R.Out;
  }
  EXPECT_FALSE(fs::exists(File));
}

TEST(CliTest, ReanalyzeIsByteIdenticalToFreshAnalyze) {
  // base + edited pair: the edited module appends a function and rewires
  // nothing else; reanalyze(base, edited) must print exactly what
  // analyze(edited) prints.
  std::string Base = slurpFile(goldenAsm("list_traverse.asm"));
  std::string Edited =
      Base + "\nfn extra_leaf:\n  load eax, [esp+4]\n  add eax, 1\n  ret\n";
  fs::path BaseP = writeTemp("cli_base.asm", Base);
  fs::path EditedP = writeTemp("cli_edited.asm", Edited);

  for (const char *Flags : {"", "--schemes --sketches", "--jobs 4"}) {
    CmdResult Fresh = runCli(std::string("analyze ") + Flags + " " +
                             EditedP.string());
    CmdResult Re = runCli(std::string("reanalyze ") + Flags + " " +
                          BaseP.string() + " " + EditedP.string());
    EXPECT_EQ(Fresh.Exit, 0) << Fresh.Out;
    EXPECT_EQ(Re.Exit, 0) << Re.Out;
    EXPECT_EQ(Fresh.Out, Re.Out) << "flags: " << Flags;
  }
  fs::remove(BaseP);
  fs::remove(EditedP);
}

TEST(CliTest, ReanalyzeStatsShowIncrementalReuse) {
  std::string Base = slurpFile(goldenAsm("list_traverse.asm"));
  std::string Edited =
      Base + "\nfn extra_leaf:\n  load eax, [esp+4]\n  add eax, 1\n  ret\n";
  fs::path BaseP = writeTemp("cli_base2.asm", Base);
  fs::path EditedP = writeTemp("cli_edited2.asm", Edited);

  CmdResult R = runCli("reanalyze --stats " + BaseP.string() + " " +
                       EditedP.string());
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("incremental: yes"), std::string::npos) << R.Out;
  // The unchanged functions' SCCs must be reused, not re-simplified.
  EXPECT_NE(R.Out.find("sccs_reused=2"), std::string::npos) << R.Out;
  fs::remove(BaseP);
  fs::remove(EditedP);
}

TEST(CliTest, JsonFormat) {
  CmdResult R = runCli("analyze --format=json --schemes " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("\"schema\": \"retypd-report-v1\""), std::string::npos);
  EXPECT_NE(R.Out.find("\"prototype\": "), std::string::npos);
  EXPECT_NE(R.Out.find("\"scheme\": "), std::string::npos);
  // Externals are reported with a structured status instead of "<no type>".
  EXPECT_NE(R.Out.find("\"status\": \"no-type-inferred\""), std::string::npos);
  EXPECT_EQ(R.Out.find("\"stats\""), std::string::npos) << "stats without flag";

  R = runCli("analyze --format=json --stats " + goldenAsm("list_traverse.asm"));
  EXPECT_NE(R.Out.find("\"stats\": {"), std::string::npos);
  EXPECT_NE(R.Out.find("\"sccs_simplified\""), std::string::npos);

  R = runCli("analyze --format=yaml " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
}

TEST(CliTest, CacheVerbsRejectNonDirectories) {
  // Every cache verb works on an artifact store directory: a regular file
  // and a missing path are usage errors, and the file is left untouched.
  fs::path File = writeTemp("cli_cache_verb_file.bin", "not a store\n");
  fs::path Missing = fs::temp_directory_path() / "cli_cache_verb_missing";
  fs::remove_all(Missing);
  for (const fs::path &Path : {File, Missing})
    for (const char *Verb :
         {"inspect ", "prune --max-bytes 0 ", "compact ", "verify "}) {
      CmdResult R = runCli("cache " + std::string(Verb) + Path.string());
      EXPECT_EQ(R.Exit, 2) << Verb << Path << "\n" << R.Out;
      EXPECT_NE(R.Out.find("expects an artifact store directory"),
                std::string::npos)
          << Verb << Path << "\n" << R.Out;
    }
  EXPECT_EQ(slurpFile(File), "not a store\n");
  EXPECT_FALSE(fs::exists(Missing)) << "a cache verb created the path";
  fs::remove(File);
}

TEST(CliTest, CacheActionTypoSuggestion) {
  fs::path Dir = fs::temp_directory_path() / "cli_store_typo";
  fs::remove_all(Dir);
  CmdResult R = runCli("analyze --store " + Dir.string() + " " +
                       goldenAsm("list_traverse.asm"));
  ASSERT_EQ(R.Exit, 0) << R.Out;
  R = runCli("cache inspct " + Dir.string());
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("did you mean 'inspect'?"), std::string::npos) << R.Out;
  fs::remove_all(Dir);
}

TEST(CliTest, StorePruneDropsLargestFirstKeyOrderOnTies) {
  // Four raw payloads: 100, 50, 50 and 10 bytes (210 total). A 60-byte
  // budget drops the 100-byte entry, then the lower-keyed of the two
  // 50-byte entries, and keeps the rest.
  fs::path Dir = fs::temp_directory_path() / "cli_store_prune_policy";
  fs::remove_all(Dir);
  const retypd::Hash128 Big{0, 4}, TieHigh{0, 2}, TieLow{0, 1}, Small{0, 3};
  retypd::StoreOptions SO;
  SO.SchemaVersion = retypd::kSummaryCacheSchemaVersion;
  SO.Fsync = false;
  {
    auto S = retypd::Store::open(Dir.string(), SO);
    ASSERT_TRUE(S);
    S->append(Big, std::string(100, 'a'));
    S->append(TieHigh, std::string(50, 'b'));
    S->append(TieLow, std::string(50, 'c'));
    S->append(Small, std::string(10, 'd'));
    ASSERT_TRUE(S->flush());
  }

  CmdResult R = runCli("cache prune " + Dir.string() + " --max-bytes 60");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("pruned 2 of 4 entries; 2 remain (60 payload bytes)"),
            std::string::npos)
      << R.Out;

  auto S = retypd::Store::open(Dir.string(), SO);
  ASSERT_TRUE(S);
  std::vector<retypd::Hash128> Survivors;
  for (const auto &[K, Bytes] : S->liveEntries())
    Survivors.push_back(K);
  std::sort(Survivors.begin(), Survivors.end());
  EXPECT_EQ(Survivors, (std::vector<retypd::Hash128>{TieHigh, Small}));
  S.reset();
  fs::remove_all(Dir);
}

TEST(CliTest, HelpExitsZero) {
  CmdResult R = runCli("help");
  EXPECT_EQ(R.Exit, 0);
  EXPECT_NE(R.Out.find("reanalyze"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Artifact store (--store DIR, cache verbs on directories)
//===----------------------------------------------------------------------===//

TEST(CliTest, StoreAnalyzeWarmInspectCompact) {
  fs::path Dir = fs::temp_directory_path() / "cli_store";
  fs::remove_all(Dir);

  // Cold run journals; warm run replays from the store, byte-identically
  // to a storeless run.
  CmdResult Cold = runCli("analyze --store " + Dir.string() + " " +
                          goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Cold.Exit, 0) << Cold.Out;
  CmdResult Plain = runCli("analyze " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Cold.Out, Plain.Out);

  CmdResult Warm = runCli("analyze --store " + Dir.string() +
                          " --stats --format=json " +
                          goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Warm.Exit, 0) << Warm.Out;
  EXPECT_EQ(Warm.Out.find("\"store_hits\": 0,"), std::string::npos)
      << "warm run served nothing from the store: " << Warm.Out;
  EXPECT_NE(Warm.Out.find("\"cache_misses\": 0,"), std::string::npos)
      << Warm.Out;

  // inspect: generation, per-segment record counts, live/dead bytes.
  CmdResult R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("header: ok (v1 schema 3)"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("generation: 1"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("segment seg-000001-000000.rseg: records"),
            std::string::npos)
      << R.Out;

  // compact bumps the generation; the store still warm-serves.
  R = runCli("cache compact " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("compacted to generation 2"), std::string::npos)
      << R.Out;
  Warm = runCli("analyze --store " + Dir.string() + " " +
                goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Warm.Out, Plain.Out);

  // prune on a store directory reuses the --max-bytes contract.
  R = runCli("cache prune " + Dir.string() + " --max-bytes 0");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("0 remain"), std::string::npos) << R.Out;

  // Mutating verbs on a directory with unrelated contents (a mistyped
  // path) refuse without polluting it with a fresh MANIFEST/LOCK/segment.
  fs::path PlainDir = fs::temp_directory_path() / "cli_store_plain_dir";
  fs::remove_all(PlainDir);
  fs::create_directories(PlainDir);
  { std::ofstream Junk(PlainDir / "notes.txt", std::ios::binary); Junk << "x"; }
  for (const char *Verb : {"compact ", "prune --max-bytes 0 "}) {
    R = runCli("cache " + std::string(Verb) + PlainDir.string());
    EXPECT_EQ(R.Exit, 1) << Verb << R.Out;
    EXPECT_NE(R.Out.find("not an artifact store"), std::string::npos)
        << Verb << R.Out;
  }
  size_t Entries = 0;
  for ([[maybe_unused]] const auto &E : fs::directory_iterator(PlainDir))
    ++Entries;
  EXPECT_EQ(Entries, 1u) << "cache verb polluted a plain dir";
  fs::remove_all(PlainDir);
  fs::remove_all(Dir);
}

TEST(CliTest, EmptyOrFreshStoreDirIsCleanZeroState) {
  // An empty directory — the state a `--store` path is in before the
  // first analyze — is a zero-state store for every verb, not an error,
  // and the verbs must leave it empty.
  fs::path Dir = fs::temp_directory_path() / "cli_store_empty_dir";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  CmdResult R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("empty store (not yet initialized)"),
            std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("keys: 0"), std::string::npos) << R.Out;
  R = runCli("cache inspect --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"ok\": true"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"empty\": true"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"keys\": 0"), std::string::npos) << R.Out;
  R = runCli("cache compact " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("nothing to compact"), std::string::npos) << R.Out;
  R = runCli("cache prune " + Dir.string() + " --max-bytes 0");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("nothing to prune"), std::string::npos) << R.Out;
  EXPECT_TRUE(fs::is_empty(Dir)) << "zero-state verbs must not create files";

  // A freshly-initialized MANIFEST-only store (generation line written,
  // no segments yet) is a valid empty store: inspect reports zero
  // counts, prune no-ops, and a later analyze appends into it in place.
  fs::path Fresh = fs::temp_directory_path() / "cli_store_fresh";
  fs::remove_all(Fresh);
  fs::create_directories(Fresh);
  {
    std::ofstream M(Fresh / "MANIFEST", std::ios::binary);
    M << "retypd-store v1 schema 3\ngeneration 0\n";
  }
  R = runCli("cache inspect " + Fresh.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("header: ok (v1 schema 3)"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("keys: 0"), std::string::npos) << R.Out;
  R = runCli("cache prune " + Fresh.string() + " --max-bytes 0");
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("pruned 0 of 0"), std::string::npos) << R.Out;
  R = runCli("analyze --store " + Fresh.string() + " " +
             goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  R = runCli("cache inspect " + Fresh.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_EQ(R.Out.find("keys: 0"), std::string::npos)
      << "analyze against a fresh store left it empty: " << R.Out;
  fs::remove_all(Dir);
  fs::remove_all(Fresh);
}

TEST(CliTest, StaleStoreGetsActionableMessageAndAnalyzeRegenerates) {
  fs::path Dir = fs::temp_directory_path() / "cli_stale_store";
  fs::remove_all(Dir);
  fs::create_directories(Dir);
  {
    std::ofstream M(Dir / "MANIFEST", std::ios::binary);
    M << "retypd-store v1 schema 1\ngeneration 1\n"
         "segment seg-000001-000000.rseg\n";
    std::ofstream S(Dir / "seg-000001-000000.rseg", std::ios::binary);
    S << "retypd-segment v1 schema 1\n";
  }
  CmdResult R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Out.find("re-run analyze to regenerate"), std::string::npos)
      << R.Out;
  // compact refuses a stale store the same way...
  R = runCli("cache compact " + Dir.string());
  EXPECT_EQ(R.Exit, 1);
  EXPECT_NE(R.Out.find("re-run analyze to regenerate"), std::string::npos)
      << R.Out;
  // ...and analyze actually does regenerate it.
  R = runCli("analyze --store " + Dir.string() + " " +
             goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("header: ok (v1 schema 3)"), std::string::npos)
      << R.Out;
  fs::remove_all(Dir);
}

TEST(CliTest, CrossProcessHammerLeavesStoreCleanAndDecodable) {
  // N real retypd-cli processes append to and read from ONE store
  // directory concurrently (popen starts them all before any pclose
  // reaps). The advisory-lock append protocol must keep the store
  // uncorrupted: it opens clean afterwards, and a warm run over it is
  // byte-identical to a storeless run for every program involved.
  fs::path Dir = fs::temp_directory_path() / "cli_store_hammer";
  fs::remove_all(Dir);

  const char *Programs[] = {"list_traverse.asm", "callbacks.asm",
                            "mutual_rec.asm"};
  std::vector<FILE *> Children;
  for (int Round = 0; Round < 2; ++Round)
    for (const char *Prog : Programs) {
      std::string Cmd = std::string(RETYPD_CLI_PATH) + " analyze --store " +
                        Dir.string() + " " + goldenAsm(Prog) +
                        " > /dev/null 2>&1";
      FILE *P = popen(Cmd.c_str(), "r");
      ASSERT_NE(P, nullptr);
      Children.push_back(P);
    }
  for (FILE *P : Children) {
    int Status = pclose(P);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0)
        << "hammer child failed";
  }

  // The store opens clean: no corrupt records in any segment.
  CmdResult R = runCli("cache inspect --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  auto Count = [&](const std::string &Needle) {
    size_t N = 0;
    for (size_t Pos = R.Out.find(Needle); Pos != std::string::npos;
         Pos = R.Out.find(Needle, Pos + 1))
      ++N;
    return N;
  };
  EXPECT_GT(Count("\"corrupt_records\": "), 0u) << R.Out;
  EXPECT_EQ(Count("\"corrupt_records\": "), Count("\"corrupt_records\": 0"))
      << "hammer corrupted a record: " << R.Out;

  // Every surviving key decodes: warm runs replay each program with zero
  // misses, and the report proper matches the storeless output byte for
  // byte (--stats is omitted from the identity check — its cache counter
  // comment is SUPPOSED to differ between a cached and an uncached run).
  for (const char *Prog : Programs) {
    CmdResult Warm = runCli("analyze --store " + Dir.string() + " " +
                            goldenAsm(Prog));
    CmdResult Plain = runCli("analyze " + goldenAsm(Prog));
    EXPECT_EQ(Warm.Exit, 0) << Warm.Out;
    EXPECT_EQ(Warm.Out, Plain.Out) << Prog;
    CmdResult Stats = runCli("analyze --store " + Dir.string() +
                             " --stats " + goldenAsm(Prog));
    EXPECT_NE(Stats.Out.find("cache_misses=0"), std::string::npos)
        << Prog << ": " << Stats.Out;
  }

  // And compaction folds the duplicate-append debris away.
  R = runCli("cache compact " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  fs::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Verification surfaces (--verify, module verifier, cache verify)
//===----------------------------------------------------------------------===//

TEST(CliTest, MalformedAsmExitsTwoListingEveryError) {
  // Structurally malformed input must never reach constraint generation:
  // exit 2, and ALL violations are reported, not just the first.
  fs::path Bad = writeTemp("cli_bad_module.asm",
                           "fn f:\n"
                           "  jz end\n"
                           "end:\n"
                           "fn f:\n"
                           "  ret\n");
  CmdResult R = runCli("analyze " + Bad.string());
  EXPECT_EQ(R.Exit, 2) << R.Out;
  EXPECT_NE(R.Out.find("duplicate function name 'f'"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("branch target"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("falls off the end"), std::string::npos) << R.Out;
  // file:line positions come from the parser's line table.
  EXPECT_NE(R.Out.find(Bad.string() + ":2: error:"), std::string::npos)
      << R.Out;
  fs::remove(Bad);
}

TEST(CliTest, VerifyFlagParsesAndRunsCleanOnGoldens) {
  CmdResult R = runCli("analyze --verify=full " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  CmdResult Plain = runCli("analyze " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Out, Plain.Out) << "--verify=full changed the report";

  R = runCli("analyze --verify=banana " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("--verify expects off, phase or full"),
            std::string::npos)
      << R.Out;

  R = runCli("reanalyze --verify=phase " + goldenAsm("list_traverse.asm") +
             " " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
}

TEST(CliTest, CacheVerifyCleanAndCorrupt) {
  fs::path Dir = fs::temp_directory_path() / "cli_store_verify";
  fs::remove_all(Dir);

  // Empty dir: vacuously clean, untouched.
  fs::create_directories(Dir);
  CmdResult R = runCli("cache verify " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("empty store"), std::string::npos) << R.Out;
  EXPECT_TRUE(fs::is_empty(Dir)) << "cache verify polluted an empty dir";

  CmdResult Pop = runCli("analyze --store " + Dir.string() + " " +
                         goldenAsm("list_traverse.asm"));
  ASSERT_EQ(Pop.Exit, 0) << Pop.Out;

  R = runCli("cache verify " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find(": clean"), std::string::npos) << R.Out;
  R = runCli("cache verify --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"clean\": true"), std::string::npos) << R.Out;

  // Flip one byte of the segment: nonzero exit naming file+offset+key.
  fs::path Seg;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".rseg")
      Seg = E.path();
  ASSERT_FALSE(Seg.empty());
  std::string Bytes = slurpFile(Seg);
  ASSERT_GT(Bytes.size(), 100u);
  Bytes[100] = static_cast<char>(Bytes[100] ^ 0xff);
  {
    std::ofstream Out(Seg, std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }
  R = runCli("cache verify " + Dir.string());
  EXPECT_EQ(R.Exit, 1) << R.Out;
  EXPECT_NE(R.Out.find(Seg.filename().string() + ":"), std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("key "), std::string::npos) << R.Out;
  R = runCli("cache verify --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 1) << R.Out;
  EXPECT_NE(R.Out.find("\"clean\": false"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"offset\": "), std::string::npos) << R.Out;

  // verify on a FILE is rejected with guidance.
  fs::path File = writeTemp("cli_verify_file.bin", "not a dir");
  R = runCli("cache verify " + File.string());
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("artifact store directory"), std::string::npos)
      << R.Out;
  fs::remove(File);
  fs::remove_all(Dir);
}

TEST(CliTest, BackendFlagSelectsAndMisspellingExitsTwo) {
  // --backend=binsub runs end-to-end and the stats line attributes it.
  CmdResult R = runCli("analyze --backend=binsub --stats " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("backend=binsub"), std::string::npos) << R.Out;

  // The default spelled out explicitly is the same as omitting the flag.
  CmdResult Explicit = runCli("analyze --backend=retypd --schemes " +
                              goldenAsm("list_traverse.asm"));
  CmdResult Implicit =
      runCli("analyze --schemes " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Explicit.Exit, 0);
  EXPECT_EQ(Explicit.Out, Implicit.Out);

  // JSON stats carry the backend too.
  R = runCli("analyze --backend=binsub --format=json --stats " +
             goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"backend\": \"binsub\""), std::string::npos) << R.Out;

  // An unknown backend must exit 2 with a hint — never fall back silently.
  R = runCli("analyze --backend=binsab " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("--backend expects retypd or binsub, got 'binsab'"),
            std::string::npos)
      << R.Out;
  EXPECT_NE(R.Out.find("did you mean 'binsub'?"), std::string::npos) << R.Out;

  // No-hint spelling still exits 2.
  R = runCli("analyze --backend=zzz " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);

  // reanalyze accepts the flag as well.
  R = runCli("reanalyze --backend=binsub " + goldenAsm("list_traverse.asm") +
             " " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
}

//===----------------------------------------------------------------------===//
// Tracing & profiling (--trace, --profile)
//===----------------------------------------------------------------------===//

TEST(CliTest, TraceWritesChromeJsonWithoutPerturbingTheReport) {
  fs::path TraceFile = fs::temp_directory_path() / "cli_trace.json";
  fs::remove(TraceFile);

  CmdResult Plain = runCli("analyze " + goldenAsm("list_traverse.asm"));
  CmdResult Traced = runCli("analyze --trace " + TraceFile.string() + " " +
                            goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Traced.Exit, 0) << Traced.Out;
  EXPECT_EQ(Traced.Out, Plain.Out) << "--trace changed the report";

  std::string Json = slurpFile(TraceFile);
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"thread_name\""), std::string::npos);
  // Per-SCC spans carry the structured args the profiler aggregates.
  EXPECT_NE(Json.find("\"cat\":\"scc\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"backend\":\"retypd\""), std::string::npos);
  EXPECT_NE(Json.find("\"constraints\":"), std::string::npos);

  // --trace=FILE spelling works too, and reanalyze records both runs.
  fs::path TraceFile2 = fs::temp_directory_path() / "cli_trace2.json";
  CmdResult Re = runCli("reanalyze --trace=" + TraceFile2.string() + " " +
                        goldenAsm("list_traverse.asm") + " " +
                        goldenAsm("list_traverse.asm"));
  EXPECT_EQ(Re.Exit, 0) << Re.Out;
  EXPECT_NE(slurpFile(TraceFile2).find("\"traceEvents\""), std::string::npos);

  fs::remove(TraceFile);
  fs::remove(TraceFile2);
}

TEST(CliTest, TraceToUnwritablePathFailsLoudlyBeforeAnalyzing) {
  // An unwritable trace path must be a loud up-front exit 1 — never a
  // full analysis whose recording is then silently dropped.
  CmdResult R = runCli("analyze --trace /nonexistent-dir/trace.json " +
                       goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 1) << R.Out;
  EXPECT_NE(R.Out.find("cannot write trace file"), std::string::npos)
      << R.Out;
  // Fail-fast: no report was printed.
  EXPECT_EQ(R.Out.find("struct"), std::string::npos) << R.Out;
}

TEST(CliTest, ProfilePrintsTableAndJsonStats) {
  // Text mode: the per-SCC attribution table goes to stderr; the report
  // on stdout stays byte-identical to an unprofiled run.
  CmdResult Plain = runCli("analyze " + goldenAsm("list_traverse.asm"));
  std::string Cmd = std::string(RETYPD_CLI_PATH) + " analyze --profile " +
                    goldenAsm("list_traverse.asm") + " 2>/dev/null";
  CmdResult StdoutOnly;
  {
    FILE *P = popen(Cmd.c_str(), "r");
    ASSERT_NE(P, nullptr);
    char Buf[4096];
    size_t N;
    while ((N = fread(Buf, 1, sizeof(Buf), P)) > 0)
      StdoutOnly.Out.append(Buf, N);
    int Status = pclose(P);
    StdoutOnly.Exit = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  }
  EXPECT_EQ(StdoutOnly.Exit, 0);
  EXPECT_EQ(StdoutOnly.Out, Plain.Out) << "--profile changed stdout";

  CmdResult R = runCli("analyze --profile " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("profile: top"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("attributed"), std::string::npos) << R.Out;

  // JSON mode: --profile implies stats and adds the "profile" member with
  // per-SCC attribution fields.
  R = runCli("analyze --profile --format=json " +
             goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"stats\": {"), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"profile\": ["), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"join_ops\""), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("\"total_secs\""), std::string::npos) << R.Out;

  // --profile=N caps the table; a bogus N exits 2.
  R = runCli("analyze --profile=1 " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("profile: top 1 of"), std::string::npos) << R.Out;
  R = runCli("analyze --profile=banana " + goldenAsm("list_traverse.asm"));
  EXPECT_EQ(R.Exit, 2);
  EXPECT_NE(R.Out.find("--profile expects a non-negative row count"),
            std::string::npos)
      << R.Out;
}

TEST(CliTest, CacheInspectAttributesBackends) {
  // A store fed by both backends is attributed per backend in both the
  // text and JSON renderings of `cache inspect`.
  fs::path Dir = fs::temp_directory_path() / "cli_backend_store";
  fs::remove_all(Dir);
  CmdResult R = runCli("analyze --store " + Dir.string() + " " +
                       goldenAsm("list_traverse.asm"));
  ASSERT_EQ(R.Exit, 0) << R.Out;
  R = runCli("analyze --backend=binsub --store " + Dir.string() + " " +
             goldenAsm("list_traverse.asm"));
  ASSERT_EQ(R.Exit, 0) << R.Out;

  R = runCli("cache inspect " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("scheme[retypd]="), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("scheme[binsub]="), std::string::npos) << R.Out;
  EXPECT_NE(R.Out.find("sketches[binsub]="), std::string::npos) << R.Out;

  R = runCli("cache inspect --format=json " + Dir.string());
  EXPECT_EQ(R.Exit, 0) << R.Out;
  EXPECT_NE(R.Out.find("\"live_kinds\""), std::string::npos) << R.Out;
  fs::remove_all(Dir);
}
