//===- Trace.cpp - Structured tracing + per-SCC attribution ---------------===//

#include "support/Trace.h"

#include "support/Stats.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <unordered_map>

using namespace retypd;
using namespace retypd::trace;

namespace {

constexpr size_t kChunkEvents = 1024;

/// One thread's event storage: a list of fixed-capacity chunks so appends
/// never invalidate earlier events and never pay a large realloc. Only the
/// owning thread appends; collect() reads after stop().
struct ThreadBuffer {
  uint32_t Tid = 0;
  std::string Name;
  std::vector<std::unique_ptr<std::vector<Event>>> Chunks;

  void append(Event &&E) {
    if (Chunks.empty() || Chunks.back()->size() == kChunkEvents) {
      Chunks.emplace_back(std::make_unique<std::vector<Event>>());
      Chunks.back()->reserve(kChunkEvents);
    }
    Chunks.back()->push_back(std::move(E));
  }
};

struct Registry {
  std::mutex Mu;
  std::vector<std::unique_ptr<ThreadBuffer>> Buffers;
  uint32_t NextTid = 1;
};

Registry &registry() {
  static Registry R;
  return R;
}

std::atomic<uint64_t> Generation{0};
std::atomic<uint64_t> SeqCounter{0};
std::chrono::steady_clock::time_point TraceStart;

thread_local ThreadBuffer *TlsBuf = nullptr;
thread_local uint64_t TlsGen = ~uint64_t{0};
thread_local std::string TlsThreadName;

ThreadBuffer &myBuffer() {
  uint64_t Gen = Generation.load(std::memory_order_acquire);
  if (TlsBuf == nullptr || TlsGen != Gen) {
    Registry &R = registry();
    std::lock_guard<std::mutex> Lock(R.Mu);
    auto Buf = std::make_unique<ThreadBuffer>();
    Buf->Tid = R.NextTid++;
    Buf->Name = TlsThreadName.empty()
                    ? "thread-" + std::to_string(Buf->Tid)
                    : TlsThreadName;
    TlsBuf = Buf.get();
    TlsGen = Gen;
    R.Buffers.push_back(std::move(Buf));
  }
  return *TlsBuf;
}

void jsonEscape(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

void appendArgsJson(std::string &Out, const SpanArgs &A) {
  bool First = true;
  auto Sep = [&] {
    if (!First)
      Out += ',';
    First = false;
  };
  Out += "\"args\":{";
  if (A.Scc >= 0) {
    Sep();
    Out += "\"scc\":" + std::to_string(A.Scc);
  }
  if (!A.Fn.empty()) {
    Sep();
    Out += "\"fn\":\"";
    jsonEscape(Out, A.Fn);
    Out += '"';
  }
  if (!A.Backend.empty()) {
    Sep();
    Out += "\"backend\":\"";
    jsonEscape(Out, A.Backend);
    Out += '"';
  }
  if (A.Constraints >= 0) {
    Sep();
    Out += "\"constraints\":" + std::to_string(A.Constraints);
  }
  if (A.Cache != nullptr) {
    Sep();
    Out += "\"cache\":\"";
    jsonEscape(Out, A.Cache);
    Out += '"';
  }
  if (A.JoinOps >= 0) {
    Sep();
    Out += "\"join_ops\":" + std::to_string(A.JoinOps);
  }
  if (A.Count >= 0) {
    Sep();
    Out += "\"count\":" + std::to_string(A.Count);
  }
  Out += '}';
}

std::string formatUs(double Us) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.3f", Us);
  return Buf;
}

} // namespace

namespace retypd {
namespace trace {
namespace detail {

std::atomic<bool> Enabled{false};

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - TraceStart)
      .count();
}

void record(const char *Name, const char *Cat, char Ph, double TsUs,
            double DurUs, SpanArgs &&Args) {
  Event E;
  E.Name = Name;
  E.Cat = Cat;
  E.Ph = Ph;
  E.Seq = SeqCounter.fetch_add(1, std::memory_order_relaxed);
  E.TsUs = TsUs;
  E.DurUs = DurUs;
  E.Args = std::move(Args);
  myBuffer().append(std::move(E));
  countEvent(Counter::TraceEvents);
}

} // namespace detail

void start() {
  Registry &R = registry();
  {
    std::lock_guard<std::mutex> Lock(R.Mu);
    R.Buffers.clear();
    R.NextTid = 1;
  }
  Generation.fetch_add(1, std::memory_order_release);
  SeqCounter.store(0, std::memory_order_relaxed);
  TraceStart = std::chrono::steady_clock::now();
  detail::Enabled.store(true, std::memory_order_relaxed);
  setCurrentThreadName("main");
}

void stop() { detail::Enabled.store(false, std::memory_order_relaxed); }

void setCurrentThreadName(const char *Name) {
  TlsThreadName = Name;
  if (!enabled())
    return;
  ThreadBuffer &Buf = myBuffer();
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  Buf.Name = Name;
}

size_t bufferCount() {
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  return R.Buffers.size();
}

std::vector<Event> collect() {
  std::vector<Event> Out;
  Registry &R = registry();
  std::lock_guard<std::mutex> Lock(R.Mu);
  for (const auto &Buf : R.Buffers)
    for (const auto &Chunk : Buf->Chunks)
      for (const Event &E : *Chunk) {
        Out.push_back(E);
        Out.back().Tid = Buf->Tid;
        Out.back().ThreadName = Buf->Name;
      }
  std::sort(Out.begin(), Out.end(), [](const Event &A, const Event &B) {
    if (A.TsUs != B.TsUs)
      return A.TsUs < B.TsUs;
    return A.Seq < B.Seq;
  });
  return Out;
}

std::string writeChromeJson(const std::vector<Event> &Events) {
  std::string Out;
  Out.reserve(Events.size() * 160 + 64);
  Out += "{\"traceEvents\":[\n";
  bool First = true;
  auto Sep = [&] {
    if (!First)
      Out += ",\n";
    First = false;
  };
  // Thread-name metadata events, one per lane.
  std::unordered_map<uint32_t, std::string> Lanes;
  for (const Event &E : Events)
    Lanes.emplace(E.Tid, E.ThreadName);
  std::vector<std::pair<uint32_t, std::string>> Sorted(Lanes.begin(),
                                                       Lanes.end());
  std::sort(Sorted.begin(), Sorted.end());
  for (const auto &[Tid, Name] : Sorted) {
    Sep();
    Out += "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":" +
           std::to_string(Tid) + ",\"args\":{\"name\":\"";
    jsonEscape(Out, Name);
    Out += "\"}}";
  }
  for (const Event &E : Events) {
    Sep();
    Out += "{\"name\":\"";
    jsonEscape(Out, E.Name);
    Out += "\",\"cat\":\"";
    jsonEscape(Out, E.Cat);
    Out += "\",\"ph\":\"";
    Out += E.Ph;
    Out += "\",\"pid\":1,\"tid\":" + std::to_string(E.Tid) +
           ",\"ts\":" + formatUs(E.TsUs);
    if (E.Ph == 'X')
      Out += ",\"dur\":" + formatUs(E.DurUs);
    if (E.Ph == 'i')
      Out += ",\"s\":\"t\"";
    Out += ',';
    appendArgsJson(Out, E.Args);
    Out += '}';
  }
  Out += "\n]}\n";
  return Out;
}

void instant(const char *Name, const char *Cat, int64_t Count, int64_t Scc) {
  if (!enabled())
    return;
  SpanArgs Args;
  Args.Count = Count;
  Args.Scc = Scc;
  detail::record(Name, Cat, 'i', detail::nowUs(), 0.0, std::move(Args));
}

//===----------------------------------------------------------------------===//
// Profile aggregation
//===----------------------------------------------------------------------===//

std::vector<ProfileRow> buildProfile(const std::vector<Event> &Events) {
  std::unordered_map<int64_t, ProfileRow> Rows;
  for (const Event &E : Events) {
    if (E.Ph != 'X' || std::string_view(E.Cat) != "scc" || E.Args.Scc < 0)
      continue;
    ProfileRow &Row = Rows[E.Args.Scc];
    Row.Scc = E.Args.Scc;
    if (Row.Fn.empty() && !E.Args.Fn.empty())
      Row.Fn = E.Args.Fn;
    if (!E.Args.Backend.empty())
      Row.Backend = E.Args.Backend;
    if (E.Args.Constraints > Row.Constraints)
      Row.Constraints = E.Args.Constraints;
    if (E.Args.JoinOps > 0)
      Row.JoinOps += E.Args.JoinOps;
    double Secs = E.DurUs / 1e6;
    std::string_view Name(E.Name);
    if (Name == "generate") {
      Row.GenerateSecs += Secs;
      if (E.Args.Cache != nullptr)
        Row.GenCache = E.Args.Cache;
    } else if (Name == "simplify") {
      Row.SimplifySecs += Secs;
      if (E.Args.Cache != nullptr)
        Row.SchemeCache = E.Args.Cache;
    } else if (Name == "solve") {
      Row.SolveSecs += Secs;
    } else if (Name == "refine") {
      Row.RefineSecs += Secs;
    }
    Row.TotalSecs += Secs;
  }
  std::vector<ProfileRow> Out;
  Out.reserve(Rows.size());
  for (auto &[_, Row] : Rows)
    Out.push_back(std::move(Row));
  std::sort(Out.begin(), Out.end(), [](const ProfileRow &A,
                                       const ProfileRow &B) {
    if (A.TotalSecs != B.TotalSecs)
      return A.TotalSecs > B.TotalSecs;
    return A.Scc < B.Scc;
  });
  return Out;
}

std::string renderProfileTable(const std::vector<ProfileRow> &Rows, size_t N,
                               double WallSecs) {
  size_t Show = (N == 0 || N > Rows.size()) ? Rows.size() : N;
  double Attributed = 0.0;
  for (const ProfileRow &Row : Rows)
    Attributed += Row.TotalSecs;
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "profile: top %zu of %zu SCCs by attributed time\n", Show,
                Rows.size());
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "%5s  %-24s %-7s %9s %9s %9s %9s %9s %7s %7s %-7s %-7s\n",
                "scc", "function", "backend", "total(s)", "gen(s)", "simp(s)",
                "solve(s)", "ref(s)", "constr", "joins", "gcache", "scache");
  Out += Buf;
  for (size_t I = 0; I < Show; ++I) {
    const ProfileRow &Row = Rows[I];
    std::string Fn = Row.Fn.size() > 24 ? Row.Fn.substr(0, 21) + "..." : Row.Fn;
    std::snprintf(Buf, sizeof(Buf),
                  "%5lld  %-24s %-7s %9.6f %9.6f %9.6f %9.6f %9.6f %7lld "
                  "%7lld %-7s %-7s\n",
                  static_cast<long long>(Row.Scc), Fn.c_str(),
                  Row.Backend.c_str(), Row.TotalSecs, Row.GenerateSecs,
                  Row.SimplifySecs, Row.SolveSecs, Row.RefineSecs,
                  static_cast<long long>(Row.Constraints),
                  static_cast<long long>(Row.JoinOps),
                  Row.GenCache.empty() ? "-" : Row.GenCache.c_str(),
                  Row.SchemeCache.empty() ? "-" : Row.SchemeCache.c_str());
    Out += Buf;
  }
  if (WallSecs > 0.0) {
    std::snprintf(Buf, sizeof(Buf),
                  "attributed %.6fs across %zu SCCs (%.1f%% of %.6fs wall)\n",
                  Attributed, Rows.size(), 100.0 * Attributed / WallSecs,
                  WallSecs);
    Out += Buf;
  }
  return Out;
}

std::string profileJson(const std::vector<ProfileRow> &Rows, size_t N) {
  size_t Show = (N == 0 || N > Rows.size()) ? Rows.size() : N;
  std::string Out = "[";
  for (size_t I = 0; I < Show; ++I) {
    const ProfileRow &Row = Rows[I];
    if (I != 0)
      Out += ',';
    char Buf[160];
    Out += "\n    {\"scc\": " + std::to_string(Row.Scc) + ", \"fn\": \"";
    jsonEscape(Out, Row.Fn);
    Out += "\", \"backend\": \"";
    jsonEscape(Out, Row.Backend);
    Out += "\"";
    std::snprintf(Buf, sizeof(Buf),
                  ", \"total_secs\": %.6f, \"generate_secs\": %.6f, "
                  "\"simplify_secs\": %.6f, \"solve_secs\": %.6f, "
                  "\"refine_secs\": %.6f",
                  Row.TotalSecs, Row.GenerateSecs, Row.SimplifySecs,
                  Row.SolveSecs, Row.RefineSecs);
    Out += Buf;
    Out += ", \"constraints\": " + std::to_string(Row.Constraints) +
           ", \"join_ops\": " + std::to_string(Row.JoinOps);
    Out += ", \"gen_cache\": \"";
    jsonEscape(Out, Row.GenCache);
    Out += "\", \"scheme_cache\": \"";
    jsonEscape(Out, Row.SchemeCache);
    Out += "\"}";
  }
  Out += Show ? "\n  ]" : "]";
  return Out;
}

} // namespace trace
} // namespace retypd
