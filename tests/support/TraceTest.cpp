//===- TraceTest.cpp - Span recorder + Chrome JSON export tests -----------===//
//
// Covers the per-thread span/instant recorder of support/Trace.h: the
// zero-cost-off contract (no buffers, no counted events, untouched Args),
// span nesting and multi-thread interleaving round-tripping into valid
// Chrome trace-event JSON, the collect() ordering contract, and the
// per-SCC profile aggregation. The multi-thread cases double as the tsan
// targets (support_TraceTest is in RETYPD_TSAN_TESTS).
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <thread>
#include <vector>

using namespace retypd;

namespace {

/// Minimal JSON well-formedness checker — enough to catch the classic
/// emitter bugs (trailing commas, unescaped quotes, unbalanced brackets)
/// without pulling in a parser dependency.
bool validJson(const std::string &S, size_t &I);

bool skipWs(const std::string &S, size_t &I) {
  while (I < S.size() && (S[I] == ' ' || S[I] == '\n' || S[I] == '\t' ||
                          S[I] == '\r'))
    ++I;
  return I < S.size();
}

bool validString(const std::string &S, size_t &I) {
  if (I >= S.size() || S[I] != '"')
    return false;
  ++I;
  while (I < S.size() && S[I] != '"') {
    if (S[I] == '\\') {
      ++I;
      if (I >= S.size())
        return false;
    }
    ++I;
  }
  if (I >= S.size())
    return false;
  ++I; // closing quote
  return true;
}

bool validNumber(const std::string &S, size_t &I) {
  size_t Start = I;
  if (I < S.size() && (S[I] == '-' || S[I] == '+'))
    ++I;
  while (I < S.size() && (std::isdigit(static_cast<unsigned char>(S[I])) ||
                          S[I] == '.' || S[I] == 'e' || S[I] == 'E' ||
                          S[I] == '-' || S[I] == '+'))
    ++I;
  return I > Start;
}

bool validJson(const std::string &S, size_t &I) {
  if (!skipWs(S, I))
    return false;
  char C = S[I];
  if (C == '{') {
    ++I;
    if (!skipWs(S, I))
      return false;
    if (S[I] == '}') {
      ++I;
      return true;
    }
    while (true) {
      if (!skipWs(S, I) || !validString(S, I) || !skipWs(S, I) ||
          S[I] != ':')
        return false;
      ++I;
      if (!validJson(S, I) || !skipWs(S, I))
        return false;
      if (S[I] == ',') {
        ++I;
        continue;
      }
      if (S[I] == '}') {
        ++I;
        return true;
      }
      return false;
    }
  }
  if (C == '[') {
    ++I;
    if (!skipWs(S, I))
      return false;
    if (S[I] == ']') {
      ++I;
      return true;
    }
    while (true) {
      if (!validJson(S, I) || !skipWs(S, I))
        return false;
      if (S[I] == ',') {
        ++I;
        continue;
      }
      if (S[I] == ']') {
        ++I;
        return true;
      }
      return false;
    }
  }
  if (C == '"')
    return validString(S, I);
  if (S.compare(I, 4, "true") == 0) {
    I += 4;
    return true;
  }
  if (S.compare(I, 5, "false") == 0) {
    I += 5;
    return true;
  }
  if (S.compare(I, 4, "null") == 0) {
    I += 4;
    return true;
  }
  return validNumber(S, I);
}

bool isValidJson(const std::string &S) {
  size_t I = 0;
  if (!validJson(S, I))
    return false;
  skipWs(S, I);
  return I == S.size();
}

size_t countOccurrences(const std::string &Haystack,
                        const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Haystack.find(Needle); Pos != std::string::npos;
       Pos = Haystack.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

/// Recording guard: every test that starts a recording must stop it, or a
/// failing ASSERT would leak an enabled recorder into later tests.
struct Recording {
  Recording() { trace::start(); }
  ~Recording() { trace::stop(); }
};

} // namespace

TEST(TraceTest, OffByDefaultRecordsNothing) {
  ASSERT_FALSE(trace::enabled());
  RunMetrics::process().reset();
  {
    trace::TraceSpan Span("noop", "test");
    EXPECT_FALSE(Span.active());
    // Disabled spans leave Args untouched: strings stay empty (SSO, no
    // heap), so argument setup must be guarded by active() at call sites.
    EXPECT_TRUE(Span.Args.Fn.empty());
    trace::instant("noop.instant", "test", 7);
  }
  EXPECT_EQ(trace::collect().size(), 0u);
  EXPECT_EQ(trace::bufferCount(), 0u);
  EXPECT_EQ(CounterSnapshot::take().TraceEvents, 0u);
}

TEST(TraceTest, NestedSpansRoundTripToValidJson) {
  RunMetrics::process().reset();
  {
    Recording R;
    {
      trace::TraceSpan Outer("outer", "test");
      ASSERT_TRUE(Outer.active());
      Outer.Args.Scc = 3;
      Outer.Args.Fn = "fn_with_\"quotes\"_and_\\slashes\\";
      Outer.Args.Backend = "retypd";
      Outer.Args.Constraints = 42;
      {
        trace::TraceSpan Inner("inner", "test");
        Inner.Args.JoinOps = 9;
        Inner.Args.Cache = "hit";
      }
      trace::instant("tick", "test", 5, 3);
    }
  }
  std::vector<trace::Event> Events = trace::collect();
  ASSERT_EQ(Events.size(), 3u);
  // collect() sorts by start time: outer opened first, then inner, then
  // the instant — even though the inner span's destructor ran first.
  EXPECT_STREQ(Events[0].Name, "outer");
  EXPECT_STREQ(Events[1].Name, "inner");
  EXPECT_STREQ(Events[2].Name, "tick");
  EXPECT_EQ(Events[0].Ph, 'X');
  EXPECT_EQ(Events[2].Ph, 'i');
  EXPECT_GE(Events[0].DurUs, Events[1].DurUs); // outer encloses inner
  EXPECT_EQ(Events[0].Args.Scc, 3);
  EXPECT_EQ(Events[1].Args.JoinOps, 9);
  EXPECT_EQ(CounterSnapshot::take().TraceEvents, 3u);

  std::string Json = trace::writeChromeJson(Events);
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\":\"i\""), std::string::npos);
  // The quote-laden function name survives escaping (that is what the
  // validator is checking above), and unset args are omitted.
  EXPECT_NE(Json.find("fn_with_"), std::string::npos);
  EXPECT_NE(Json.find("\"join_ops\":9"), std::string::npos);
  EXPECT_NE(Json.find("\"cache\":\"hit\""), std::string::npos);
}

TEST(TraceTest, ThreadsGetTheirOwnLanes) {
  constexpr int kThreads = 3;
  constexpr int kSpansPerThread = 50;
  {
    Recording R;
    std::vector<std::thread> Threads;
    for (int T = 0; T < kThreads; ++T)
      Threads.emplace_back([T] {
        std::string Name = "hammer-" + std::to_string(T + 1);
        trace::setCurrentThreadName(Name.c_str());
        for (int I = 0; I < kSpansPerThread; ++I) {
          trace::TraceSpan Span("work", "test");
          if (Span.active())
            Span.Args.Scc = T * kSpansPerThread + I;
          trace::instant("beat", "test", I);
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  std::vector<trace::Event> Events = trace::collect();
  // main (named by start()) + 3 hammer threads registered buffers; only
  // the hammers recorded events.
  EXPECT_EQ(Events.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  EXPECT_GE(trace::bufferCount(), static_cast<size_t>(kThreads));
  for (size_t I = 1; I < Events.size(); ++I) {
    EXPECT_LE(Events[I - 1].TsUs, Events[I].TsUs); // sorted by start time
  }
  std::string Json = trace::writeChromeJson(Events);
  ASSERT_TRUE(isValidJson(Json)) << "invalid JSON, " << Json.size()
                                 << " bytes";
  // One thread_name metadata record per lane, and >= 3 distinct lanes —
  // the Perfetto multi-lane acceptance shape.
  EXPECT_GE(countOccurrences(Json, "\"thread_name\""),
            static_cast<size_t>(kThreads));
  EXPECT_EQ(countOccurrences(Json, "\"hammer-2\""), 1u);
}

TEST(TraceTest, StartClearsPreviousRecording) {
  {
    Recording R;
    trace::TraceSpan Span("first", "test");
  }
  ASSERT_EQ(trace::collect().size(), 1u);
  {
    Recording R;
    trace::TraceSpan Span("second", "test");
  }
  {
    // Spans constructed after stop() are inert end to end.
    trace::TraceSpan Dropped("after-stop", "test");
    EXPECT_FALSE(Dropped.active());
  }
  std::vector<trace::Event> Events = trace::collect();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_STREQ(Events[0].Name, "second");
}

TEST(TraceTest, ProfileAggregatesSccSpans) {
  {
    Recording R;
    {
      trace::TraceSpan Gen("generate", "scc");
      Gen.Args.Scc = 0;
      Gen.Args.Fn = "hot_fn";
      Gen.Args.Backend = "retypd";
      Gen.Args.Constraints = 10;
      Gen.Args.Cache = "miss";
    }
    {
      trace::TraceSpan Simp("simplify", "scc");
      Simp.Args.Scc = 0;
      Simp.Args.Backend = "retypd";
      Simp.Args.Constraints = 12;
      Simp.Args.Cache = "hit";
    }
    {
      trace::TraceSpan Ref("refine", "scc");
      Ref.Args.Scc = 0;
      Ref.Args.JoinOps = 4;
    }
    {
      trace::TraceSpan Ref("refine", "scc");
      Ref.Args.Scc = 0;
      Ref.Args.JoinOps = 3;
    }
    {
      trace::TraceSpan Other("solve", "scc");
      Other.Args.Scc = 1;
      Other.Args.Fn = "cold_fn";
    }
    // Non-"scc" categories never reach the profile.
    trace::TraceSpan Phase("phase1", "phase");
  }
  std::vector<trace::ProfileRow> Rows =
      trace::buildProfile(trace::collect());
  ASSERT_EQ(Rows.size(), 2u);
  const trace::ProfileRow *Hot = nullptr;
  for (const trace::ProfileRow &Row : Rows)
    if (Row.Scc == 0)
      Hot = &Row;
  ASSERT_NE(Hot, nullptr);
  EXPECT_EQ(Hot->Fn, "hot_fn");
  EXPECT_EQ(Hot->Backend, "retypd");
  EXPECT_EQ(Hot->Constraints, 12); // max across the SCC's spans
  EXPECT_EQ(Hot->JoinOps, 7);      // summed across refine spans
  EXPECT_EQ(Hot->GenCache, "miss");
  EXPECT_EQ(Hot->SchemeCache, "hit");
  EXPECT_GT(Hot->TotalSecs, 0.0);

  std::string Table = trace::renderProfileTable(Rows, 10, 1.0);
  EXPECT_NE(Table.find("hot_fn"), std::string::npos);
  EXPECT_NE(Table.find("attributed"), std::string::npos);
  std::string Json = trace::profileJson(Rows, 10);
  EXPECT_TRUE(isValidJson(Json)) << Json;
  EXPECT_NE(Json.find("\"join_ops\": 7"), std::string::npos);
  // N truncates.
  EXPECT_EQ(countOccurrences(trace::profileJson(Rows, 1), "\"scc\""), 1u);
}

TEST(TraceTest, ConcurrentHammerIsRaceFree) {
  // tsan target: spans, instants, and thread registration from many
  // threads at once, twice (the second recording re-registers every
  // thread buffer through the generation check).
  for (int Round = 0; Round < 2; ++Round) {
    Recording R;
    std::atomic<int> Go{0};
    std::vector<std::thread> Threads;
    for (int T = 0; T < 4; ++T)
      Threads.emplace_back([&Go] {
        Go.fetch_add(1);
        while (Go.load() < 4) {
        } // line up for maximum overlap
        for (int I = 0; I < 200; ++I) {
          trace::TraceSpan Span("hammer", "test");
          if (Span.active())
            Span.Args.Constraints = I;
          if (I % 8 == 0)
            trace::instant("mark", "test", I);
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
    EXPECT_EQ(trace::collect().size(), 4u * (200 + 25));
  }
}
