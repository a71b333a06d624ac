//===- Trace.h - Structured tracing + per-SCC attribution -------*- C++ -*-===//
//
// Per-thread, lock-free span/instant recorder. Threads append trace events
// into thread-local chunked buffers (no contention on the hot path); the
// buffers are registered once per thread under a mutex and drained at run
// end by trace::collect(). Events carry structured args (SCC id,
// representative function, backend, constraint count, cache hit kind,
// sketch-join count) so a single recording serves both the Chrome
// trace-event JSON export (--trace) and the per-SCC attribution profile
// (--profile).
//
// Zero-cost when off: TraceSpan's constructor does a single relaxed atomic
// load and nothing else; no buffers are allocated, no strings are built,
// and Counter::TraceEvents stays 0 (gated by bench_warmpath).
//
//===----------------------------------------------------------------------===//

#ifndef RETYPD_SUPPORT_TRACE_H
#define RETYPD_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace retypd {
namespace trace {

/// Structured arguments attached to a span or instant. Negative integers and
/// empty strings mean "unset" and are omitted from the JSON output.
struct SpanArgs {
  int64_t Scc = -1;          ///< SCC id (commit-slot sequence number).
  std::string Fn;            ///< Representative function name of the SCC.
  std::string Backend;       ///< Solver backend name ("retypd"/"binsub").
  int64_t Constraints = -1;  ///< Constraint count fed to the backend.
  const char *Cache = nullptr; ///< Cache outcome: "hit", "miss", ...
  int64_t JoinOps = -1;      ///< Sketch join/meet operations performed.
  int64_t Count = -1;        ///< Generic count for instant events.
};

/// One recorded event. Ph follows the Chrome trace-event phase codes:
/// 'X' = complete span (TsUs + DurUs), 'i' = instant.
struct Event {
  const char *Name = nullptr; ///< Static string literal.
  const char *Cat = nullptr;  ///< Static category literal ("phase", "scc").
  char Ph = 'X';
  uint32_t Tid = 0;           ///< Stable per-thread lane id (1 = main).
  std::string ThreadName;     ///< Lane label ("main", "worker-1", ...).
  uint64_t Seq = 0;           ///< Global sequence stamp (total order tiebreak).
  double TsUs = 0.0;          ///< Microseconds since trace::start().
  double DurUs = 0.0;         ///< Span duration in microseconds ('X' only).
  SpanArgs Args;
};

namespace detail {
extern std::atomic<bool> Enabled;
void record(const char *Name, const char *Cat, char Ph, double TsUs,
            double DurUs, SpanArgs &&Args);
double nowUs();
} // namespace detail

/// True while a recording is in progress. Single relaxed load.
inline bool enabled() {
  return detail::Enabled.load(std::memory_order_relaxed);
}

/// Begin recording. Clears any previous recording, stamps the time origin,
/// and names the calling thread "main". Not thread-safe against concurrent
/// record() calls — call it before spinning up workers.
void start();

/// Stop recording. Buffers are retained for collect().
void stop();

/// Label the calling thread's lane (e.g. "worker-1"). Cheap when disabled.
void setCurrentThreadName(const char *Name);

/// Flatten all thread buffers into one list sorted by (TsUs, Seq).
/// Non-destructive; callable after stop().
std::vector<Event> collect();

/// Number of thread buffers ever registered for the current recording.
/// Stays 0 when tracing was never started (the zero-cost-off contract).
size_t bufferCount();

/// Serialize events as Chrome trace-event JSON (the {"traceEvents": [...]}
/// object form), loadable in Perfetto / chrome://tracing.
std::string writeChromeJson(const std::vector<Event> &Events);

/// Record an instant event. Internally guarded by enabled().
void instant(const char *Name, const char *Cat, int64_t Count = -1,
             int64_t Scc = -1);

/// RAII complete-span recorder. Name/Cat must be static string literals.
/// When tracing is disabled the constructor performs one relaxed atomic
/// load and the destructor one branch; Args is left untouched (its strings
/// stay default-constructed, no heap traffic). Guard any argument setup
/// that builds dynamic strings with `if (Span.active())`.
class TraceSpan {
public:
  TraceSpan(const char *Name, const char *Cat)
      : Name(Name), Cat(Cat), Active(enabled()),
        StartUs(Active ? detail::nowUs() : 0.0) {}

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  ~TraceSpan() {
    if (Active)
      detail::record(Name, Cat, 'X', StartUs, detail::nowUs() - StartUs,
                     std::move(Args));
  }

  bool active() const { return Active; }

  SpanArgs Args;

private:
  const char *Name;
  const char *Cat;
  bool Active;
  double StartUs;
};

//===----------------------------------------------------------------------===//
// Profile aggregation (--profile)
//===----------------------------------------------------------------------===//

/// Per-SCC attribution row aggregated from "scc"-category spans.
struct ProfileRow {
  int64_t Scc = -1;
  std::string Fn;
  std::string Backend;
  double GenerateSecs = 0.0;
  double SimplifySecs = 0.0;
  double SolveSecs = 0.0;
  double RefineSecs = 0.0;
  int64_t Constraints = 0;
  int64_t JoinOps = 0;
  std::string GenCache;    ///< generate-stage cache outcome.
  std::string SchemeCache; ///< simplify-stage scheme-cache outcome.
  double TotalSecs = 0.0;
};

/// Aggregate collected events into per-SCC rows, sorted hottest-first.
std::vector<ProfileRow> buildProfile(const std::vector<Event> &Events);

/// Render a human-readable top-N table (with a coverage line relating
/// attributed SCC time to WallSecs). N == 0 means "all rows".
std::string renderProfileTable(const std::vector<ProfileRow> &Rows, size_t N,
                               double WallSecs);

/// Render the top-N rows as a JSON array for the statsJson "profile" key.
std::string profileJson(const std::vector<ProfileRow> &Rows, size_t N);

} // namespace trace
} // namespace retypd

#endif // RETYPD_SUPPORT_TRACE_H
