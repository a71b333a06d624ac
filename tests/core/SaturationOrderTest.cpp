//===- SaturationOrderTest.cpp - Saturation edge-order regression pin -----===//
//
// Saturation (Algorithm D.2) appends shortcut 1-edges to each node's
// out-edge list in the order it drains the reaching-forget sets. The
// simplifier numbers fresh existentials (τ$proc$k) in the order its emit
// loop meets those out-edges, and the numbering reaches golden text and
// summary-cache keys. A storage change that reorders the shortcut edges
// therefore renumbers existentials silently; this test makes it fail
// loudly instead.
//
// For every SCC's canonical constraint set of six synthetic modules
// (src/synth seeds 1-6) the first test saturates the constraint graph and
// hashes ConstraintGraph::str() (every node's out-edges, in list order)
// together with numSaturationEdges(). The canonical sets are the
// generation results the pipeline itself produced: the run writes them
// into an artifact store, and the test reads the gen-result payloads back
// by key.
//
// On those real sets the edge order proved insensitive to the worklist
// discipline and to R(n)'s iteration order: a LIFO worklist or an ordered
// R(n) leaves all six digests unchanged. The second test therefore also
// pins 300 small random sets dense in .load/.store/field/.in/.out words,
// where either of those changes alters the digest. Its generator is a
// fixed LCG (no <random> distributions), so the sets are the same under
// every standard library.
//
// All digests were recorded with the hash-map-based graph storage that
// preceded the arena kernel and must match exactly; never re-record them
// to make a change pass.
//
//===----------------------------------------------------------------------===//

#include "core/ConstraintGraph.h"
#include "core/ConstraintParser.h"
#include "core/SchemeCodec.h"
#include "core/SummaryCache.h"
#include "frontend/Pipeline.h"
#include "store/Store.h"
#include "synth/Synth.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include <unistd.h>

using namespace retypd;
namespace fs = std::filesystem;

namespace {

struct SeedPin {
  uint64_t Seed;
  size_t Sccs;            ///< SCC constraint sets with a gen result
  size_t SaturationEdges; ///< summed over those sets
  const char *Digest;     ///< Fnv128 of (str hash, edges) in set-hash order
};

// A mismatch means saturation now emits edges in another order.
constexpr SeedPin Pins[] = {
    {1, 553, 9174, "e04806beb286adeed41d7b112dbec649"},
    {2, 554, 9050, "884692949b5a51e010d70fc312162db9"},
    {3, 567, 9244, "b833db25fe624b46c64ba9f3d5bc5caf"},
    {4, 556, 8948, "d3710e0a4ab708989d94ad6d08651c39"},
    {5, 558, 9210, "517dac30b2946e84fab0cbe7fd191faf"},
    {6, 568, 8868, "e29d1db369412671a1f95c9a61b6fe46"},
};

struct SccPin {
  Hash128 SetHash;
  Hash128 StrHash;
  size_t Edges = 0;
};

Hash128 hashText(const std::string &S) {
  Fnv128 H;
  H.update(S);
  return H.digest();
}

} // namespace

TEST(SaturationOrderTest, ShortcutEdgeOrderMatchesRecordedKernel) {
  const Lattice Lat = makeDefaultLattice();
  SynthGenerator Synth;
  for (const SeedPin &Pin : Pins) {
    SCOPED_TRACE("seed " + std::to_string(Pin.Seed));
    SynthOptions SO;
    SO.Seed = Pin.Seed;
    SO.TargetInstructions = 4000;
    SynthProgram P =
        Synth.generate("satorder" + std::to_string(Pin.Seed), SO);

    fs::path Dir = fs::temp_directory_path() /
                   ("retypd_satorder_" + std::to_string(::getpid()) + "_" +
                    std::to_string(Pin.Seed));
    fs::remove_all(Dir);
    SummaryCache Cache;
    ASSERT_TRUE(Cache.openStore(Dir.string()));
    PipelineOptions Opts;
    Opts.Cache = &Cache;
    Pipeline(Lat, Opts).run(P.M);

    // Every gen-result payload is one SCC's canonical constraint set.
    SymbolTable Syms;
    std::vector<SccPin> Sccs;
    for (const auto &[Key, Bytes] : Cache.store()->liveEntries()) {
      (void)Bytes;
      std::optional<std::string> Payload = Cache.lookupPayload(Key);
      ASSERT_TRUE(Payload && !Payload->empty());
      if (std::string_view(payloadKindName(
              static_cast<uint8_t>((*Payload)[0]))) != "gen")
        continue;
      std::optional<DecodedGenResult> Gen =
          decodeGenResult(*Payload, Syms, Lat);
      ASSERT_TRUE(Gen.has_value());
      ConstraintGraph G(Gen->C);
      G.saturate();
      Sccs.push_back(SccPin{Gen->SetHash, hashText(G.str(Syms, Lat)),
                            G.numSaturationEdges()});
    }
    fs::remove_all(Dir);
    std::sort(Sccs.begin(), Sccs.end(),
              [](const SccPin &A, const SccPin &B) {
                return A.SetHash < B.SetHash;
              });

    Fnv128 Digest;
    size_t Edges = 0;
    for (const SccPin &S : Sccs) {
      Digest.updateU64(S.StrHash.Hi);
      Digest.updateU64(S.StrHash.Lo);
      Digest.updateU64(S.Edges);
      Edges += S.Edges;
    }
    EXPECT_EQ(Sccs.size(), Pin.Sccs);
    EXPECT_EQ(Edges, Pin.SaturationEdges);
    EXPECT_EQ(Digest.digest().hex(), Pin.Digest)
        << "pin: {" << Pin.Seed << ", " << Sccs.size() << ", " << Edges
        << ", \"" << Digest.digest().hex() << "\"}";
  }
}

TEST(SaturationOrderTest, DenseRandomSetsMatchRecordedKernel) {
  const Lattice Lat = makeDefaultLattice();
  uint64_t State = 0x9e3779b97f4a7c15ull;
  auto Next = [&](unsigned Bound) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<unsigned>((State >> 33) % Bound);
  };
  const char *Vars[] = {"a", "b", "c", "d", "p", "q", "r", "F"};
  const char *Words[] = {"",          ".load",        ".store",
                         ".load.s32@0", ".store.s32@0", ".load.s32@4",
                         ".store.s32@4", ".in0",        ".out",
                         ".in0.load",   ".out.store"};
  Fnv128 Digest;
  size_t Edges = 0;
  for (int Set = 0; Set < 300; ++Set) {
    SymbolTable Syms;
    ConstraintParser P(Syms, Lat);
    std::string Text;
    unsigned N = 6 + Next(30);
    // One draw per statement: operands of + are unsequenced.
    for (unsigned I = 0; I < 2 * N; ++I) {
      Text += Vars[Next(8)];
      Text += Words[Next(11)];
      Text += I % 2 ? "\n" : " <= ";
    }
    std::optional<ConstraintSet> C = P.parse(Text);
    ASSERT_TRUE(C.has_value()) << P.error();
    ConstraintGraph G(*C);
    G.saturate();
    Digest.update(G.str(Syms, Lat));
    Digest.sep();
    Edges += G.numSaturationEdges();
  }
  EXPECT_EQ(Edges, 29244u);
  EXPECT_EQ(Digest.digest().hex(), "20167c8fcd238d17d6ec0dfe9d475940");
}
