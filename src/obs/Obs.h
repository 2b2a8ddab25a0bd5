//===- obs/Obs.h - Process-wide observability layer -------------*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission pipeline's observability layer (DESIGN.md §10), three
/// pillars behind one header:
///
///   * **Metrics registry** — named counters, gauges, and HDR-style
///     sub-bucketed latency histograms (log2 major buckets split into 16
///     linear minor buckets, so quantile estimates carry <=~6% relative
///     error before interpolation). Slots are statically allocated per
///     name (the first registration wins; later registrations of the same
///     name share the slot) and sharded across NumShards per-thread
///     banks, so a hot-path increment is one relaxed fetch_add into a
///     bank no other running thread touches; snapshot() folds the banks
///     on read.
///     External stats surfaces (TypeArena::Stats, cache::CacheStats,
///     per-instance FunctionProfile tables) plug in as *sources*:
///     callbacks sampled at snapshot time, so one obs::snapshot() returns
///     everything uniformly.
///
///   * **Pipeline tracing** — RAII phase spans (OBS_SPAN("check", mod))
///     recorded into per-thread ring buffers that survive thread exit,
///     so the spans of a pooled checkModules land attributed to the
///     worker ("pool-3") that ran them. traceJson() exports Chrome
///     trace_event JSON for about:tracing / Perfetto. Every span also
///     feeds its phase's latency histogram.
///
///   * **Runtime gating** — counters are always live (one relaxed add);
///     spans check enabled() (one relaxed load) before touching a clock,
///     and record trace events only when tracing() is also set. Initial
///     state comes from RW_OBS=1 / RW_OBS_TRACE=1 in the environment.
///     For always-on server tracing, RW_OBS_TRACE_SAMPLE=N head-samples
///     1-in-N admissions deterministically on content hash (see
///     TraceSampleScope); ring-buffer overwrites are counted so
///     truncation is visible (traceDroppedCount / "obs.trace.dropped").
///
/// Exporters: renderText / renderJson for one-shot dumps,
/// renderPrometheus for text exposition a scraper can poll, and
/// obs::Timeline (Timeline.h) for an in-process ring of periodic
/// snapshot deltas (rate/history for long-running servers).
///
/// Compile-time gating: building with -DRW_OBS=OFF (RW_OBS_ENABLED=0)
/// replaces everything here with empty inline stubs — OBS_SPAN expands to
/// nothing, Counter/Span are empty types, and Obs.cpp contributes zero
/// code to the archive (tests/obs_test.cpp pins this).
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_OBS_OBS_H
#define RICHWASM_OBS_OBS_H

#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#ifndef RW_OBS_ENABLED
#define RW_OBS_ENABLED 1
#endif

namespace rw::obs {

/// What a registry entry measures. A histogram is an HDR-style
/// sub-bucketed layout: values below 16 get one exact bucket each
/// (index == value); values with bit_width w >= 5 land in log2 major
/// bucket w split into 16 linear minor buckets by the 4 bits below the
/// leading bit. Bucket width is thus 1/16 of the bucket's magnitude, so
/// the worst-case relative error of a bucket bound is 1/16 (~6.25%), and
/// within-bucket interpolation in histQuantile() does better on average.
enum class MetricKind : uint8_t { Counter, Gauge, Histogram };

/// Total histogram buckets: 16 exact (v < 16) + 60 majors x 16 minors
/// (bit_width 5..64).
constexpr unsigned HistBucketCount = 16 + 60 * 16;

/// Bucket index for a sample value (see MetricKind for the layout).
constexpr unsigned histBucketIndex(uint64_t V) {
  if (V < 16)
    return static_cast<unsigned>(V);
  unsigned W = static_cast<unsigned>(std::bit_width(V));
  return (W - 4) * 16 + static_cast<unsigned>((V >> (W - 5)) & 15);
}

/// Smallest sample value mapping to bucket I.
constexpr uint64_t histBucketLo(unsigned I) {
  if (I < 16)
    return I;
  unsigned W = I / 16 + 4;
  return (1ull << (W - 1)) + (static_cast<uint64_t>(I % 16) << (W - 5));
}

/// Largest sample value mapping to bucket I.
constexpr uint64_t histBucketHi(unsigned I) {
  if (I < 16)
    return I;
  unsigned W = I / 16 + 4;
  return histBucketLo(I) + ((1ull << (W - 5)) - 1);
}

/// One aggregated registry entry (shards already folded) or one sampled
/// source value, as returned by snapshot().
struct Metric {
  std::string Name;
  MetricKind Kind = MetricKind::Counter;
  uint64_t Value = 0; ///< Counter/gauge value; histograms: sample count.
  uint64_t Sum = 0;   ///< Histograms only: sum of samples.
  std::vector<uint64_t> Buckets; ///< Histograms only: HistBucketCount.
};

struct Snapshot {
  std::vector<Metric> Metrics; ///< Registry entries, then source samples.
};

/// Approximate quantile of a histogram Metric. The q-th ranked sample is
/// located in its bucket and linearly interpolated within the bucket's
/// [lo, hi] value range (midpoint rank convention), so a tight
/// distribution quantile is within the bucket's ~6.25% width instead of
/// snapping to a log2 bound. Buckets of width 1 (all values < 32) are
/// exact. Returns 0 for empty or non-histogram metrics.
inline uint64_t histQuantile(const Metric &M, double Q) {
  if (M.Kind != MetricKind::Histogram || M.Value == 0 || M.Buckets.empty())
    return 0;
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(M.Value));
  if (Rank >= M.Value)
    Rank = M.Value - 1;
  uint64_t Seen = 0;
  for (size_t I = 0; I < M.Buckets.size(); ++I) {
    if (!M.Buckets[I])
      continue;
    if (Seen + M.Buckets[I] > Rank) {
      uint64_t Lo = histBucketLo(static_cast<unsigned>(I));
      uint64_t Hi = histBucketHi(static_cast<unsigned>(I));
      if (Hi == Lo)
        return Lo; // Exact bucket.
      // Position of the ranked sample among this bucket's samples,
      // midpoint convention: the k-th of c samples sits at (k+0.5)/c.
      double Pos = (static_cast<double>(Rank - Seen) + 0.5) /
                   static_cast<double>(M.Buckets[I]);
      uint64_t Width = Hi - Lo + 1;
      uint64_t Est = Lo + static_cast<uint64_t>(Pos * static_cast<double>(Width));
      return Est > Hi ? Hi : Est;
    }
    Seen += M.Buckets[I];
  }
  return histBucketHi(HistBucketCount - 1);
}

/// Prometheus metric-name sanitization: [a-zA-Z0-9_:] pass through,
/// everything else (including the registry's '.' separators) becomes '_'.
/// A leading digit gets a '_' prefix. Pure helper, available in both
/// compile configurations.
inline std::string promSanitizeName(const std::string &Name) {
  std::string Out;
  Out.reserve(Name.size() + 1);
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out += Ok ? C : '_';
  }
  if (!Out.empty() && Out[0] >= '0' && Out[0] <= '9')
    Out.insert(Out.begin(), '_');
  return Out;
}

/// Prometheus label-value escaping: backslash, double-quote, and newline
/// must be escaped inside label values. Pure helper, available in both
/// compile configurations.
inline std::string promEscapeLabel(const std::string &Value) {
  std::string Out;
  Out.reserve(Value.size());
  for (char C : Value) {
    switch (C) {
    case '\\':
      Out += "\\\\";
      break;
    case '"':
      Out += "\\\"";
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      Out += C;
    }
  }
  return Out;
}

/// The callback a stats source receives: emit(name, value) one or more
/// times; names are reported as "<prefix>.<name>".
using EmitFn = std::function<void(const char *Name, uint64_t Value)>;

#if RW_OBS_ENABLED

/// True when the layer is compiled in (RW_OBS=ON).
constexpr bool compiledIn() { return true; }

namespace detail {
/// Bit 0: enabled (span clocks + histograms). Bit 1: tracing (ring-buffer
/// events; only meaningful with bit 0). Seeded from RW_OBS / RW_OBS_TRACE.
extern std::atomic<uint32_t> Flags;
unsigned allocSlots(const char *Name, MetricKind K, unsigned Words);
void counterAdd(unsigned Slot, uint64_t N);
void gaugeSet(unsigned Slot, uint64_t V);
uint64_t slotValue(unsigned Slot);
void histRecord(unsigned Slot, uint64_t Sample);
} // namespace detail

/// Master switch for span timing and histogram recording (counters stay
/// live regardless — they are one relaxed add). Cheap to query.
inline bool enabled() {
  return detail::Flags.load(std::memory_order_relaxed) & 1u;
}
void setEnabled(bool On);

/// Trace-event recording (requires enabled()).
inline bool tracing() {
  return (detail::Flags.load(std::memory_order_relaxed) & 3u) == 3u;
}
void setTracing(bool On);

/// Head-sampling rate for always-on tracing: with setTraceSampling(N),
/// N > 1, a span records a trace event only on threads whose enclosing
/// TraceSampleScope was selected (or on threads with no scope at all, so
/// non-admission spans and existing callers are unaffected). N <= 1
/// means no suppression. Seeded from RW_OBS_TRACE_SAMPLE=N.
void setTraceSampling(uint64_t N);
uint64_t traceSampling();

/// The deterministic 1-in-N selection decision for a unit of work,
/// keyed on its content hash — the same bytes sample the same way
/// regardless of thread, pool size, or arrival order. True when
/// sampling is off (N <= 1).
bool traceSampleSelect(uint64_t ContentHash);

/// RAII: marks the calling thread's spans as selected / suppressed for
/// the scope's lifetime (nests; inner scopes win, the previous state is
/// restored on exit). Opened by ingest::admit from the input content
/// hash; suppression only gates *trace events* — phase histograms and
/// counters record regardless, so metric totals stay complete.
class TraceSampleScope {
public:
  explicit TraceSampleScope(bool Selected);
  ~TraceSampleScope();
  TraceSampleScope(const TraceSampleScope &) = delete;
  TraceSampleScope &operator=(const TraceSampleScope &) = delete;

private:
  uint8_t Prev;
};

/// True when the calling thread is inside a TraceSampleScope.
bool traceSampleActive();

/// Trace events overwritten by ring-buffer wraparound since the last
/// clearTrace(), summed across threads. The lifetime-monotone counter
/// "obs.trace.dropped" tracks the same overwrites in the registry.
uint64_t traceDroppedCount();

/// Monotonic nanoseconds (steady clock).
uint64_t nowNs();

/// Names the calling thread for trace export and snapshot attribution
/// ("pool-3" instead of a raw thread id). Also applied to the OS thread
/// (pthread name) so debugger/TSan reports match the trace.
void setThreadName(const char *Name);

/// A named monotonic counter. Construction registers (or re-finds) the
/// name; add() is a relaxed fetch_add into the calling thread's shard.
/// Intended use: one function-local `static obs::Counter` per site.
class Counter {
public:
  explicit Counter(const char *Name)
      : Slot(detail::allocSlots(Name, MetricKind::Counter, 1)) {}
  void add(uint64_t N = 1) const { detail::counterAdd(Slot, N); }
  void inc() const { add(1); }
  uint64_t value() const { return detail::slotValue(Slot); }

private:
  unsigned Slot;
};

/// A named last-value gauge (single slot, relaxed store).
class Gauge {
public:
  explicit Gauge(const char *Name)
      : Slot(detail::allocSlots(Name, MetricKind::Gauge, 1)) {}
  void set(uint64_t V) const { detail::gaugeSet(Slot, V); }
  uint64_t value() const { return detail::slotValue(Slot); }

private:
  unsigned Slot;
};

/// A named sub-bucketed histogram (HistBucketCount buckets + count +
/// sum, sharded like counters). record() is gated on enabled() by
/// callers that care (Span does); calling it directly always records.
class Histogram {
public:
  explicit Histogram(const char *Name)
      : Slot(detail::allocSlots(Name, MetricKind::Histogram,
                                HistBucketCount + 2)) {}
  void record(uint64_t Sample) const { detail::histRecord(Slot, Sample); }

private:
  unsigned Slot;
};

/// An interned pipeline phase: the span name plus its latency histogram
/// ("phase.<name>.ns"). phase() deduplicates by name, so the usual
/// pattern is a function-local `static Phase &P = obs::phase("check")`.
struct Phase {
  const char *Name;
  Histogram Hist;
  explicit Phase(const char *Name, const char *HistName)
      : Name(Name), Hist(HistName) {}
};

Phase &phase(const char *Name);

namespace detail {
void spanEnd(const Phase &P, uint64_t StartNs, uint64_t A, uint64_t B);
} // namespace detail

/// A span's start time: the clock when enabled(), else 0 (one relaxed
/// load, no clock read).
inline uint64_t spanStart() { return enabled() ? nowNs() : 0; }

/// An RAII phase span that began at \p StartNs, a spanStart() value; 0
/// means the layer was runtime-disabled, and the destructor is then a
/// predictable no-op branch. Otherwise the destructor records the
/// duration into the phase histogram and — if tracing() — appends a
/// trace event (with the two free-form args, e.g. module and function
/// index) to the calling thread's ring buffer.
class Span {
public:
  Span(uint64_t StartNs, Phase &P, uint64_t A = 0, uint64_t B = 0)
      : P(&P), A(A), B(B), StartNs(StartNs) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
  ~Span() {
    if (StartNs)
      detail::spanEnd(*P, StartNs, A, B);
  }

private:
  Phase *P;
  uint64_t A, B;
  uint64_t StartNs;
};

#define RW_OBS_CAT2(a, b) a##b
#define RW_OBS_CAT(a, b) RW_OBS_CAT2(a, b)
/// OBS_SPAN("check", Mod, Func): scoped span for the rest of the block.
/// The phase lookup is a function-local static, so steady-state cost is
/// spanStart()'s relaxed load plus one static-init guard check. The span
/// starts before the lookup, so the first use of a phase, which registers
/// it and allocates its histogram, is timed inside its own span.
#define OBS_SPAN(NAME, ...)                                                    \
  const uint64_t RW_OBS_CAT(ObsStart_, __LINE__) = ::rw::obs::spanStart();     \
  static ::rw::obs::Phase &RW_OBS_CAT(ObsPhase_, __LINE__) =                   \
      ::rw::obs::phase(NAME);                                                  \
  ::rw::obs::Span RW_OBS_CAT(ObsSpan_, __LINE__)(                              \
      RW_OBS_CAT(ObsStart_, __LINE__),                                         \
      RW_OBS_CAT(ObsPhase_, __LINE__) __VA_OPT__(, ) __VA_ARGS__)

/// Registers a stats source sampled by snapshot(). \p Prefix is
/// uniquified ("cache", "cache#2", ...) when already taken. Returns an id
/// for unregisterSource; sources must unregister before the state their
/// callback reads dies.
uint64_t registerSource(const char *Prefix, std::function<void(const EmitFn &)> Fn);
void unregisterSource(uint64_t Id);

/// Folds every shard of every registry entry and samples every source.
Snapshot snapshot();

/// Human-readable one-line-per-metric rendering (histograms get count,
/// mean, and approximate p50/p99/p999).
std::string renderText(const Snapshot &S);

/// Machine-readable rendering: {"metrics": {name: value | {histogram}}}.
std::string renderJson(const Snapshot &S);

/// Prometheus text exposition (version 0.0.4) of a snapshot. Metric
/// names are sanitized (promSanitizeName) and prefixed "rw_"; a
/// uniquified source prefix ("cache#2") renders its base name with an
/// instance="cache#2" label; a name segment "shard<N>" is lifted into a
/// shard="<N>" label. Histograms render as classic cumulative-le series
/// (non-empty bucket upper bounds + "+Inf") with _sum and _count.
std::string renderPrometheus(const Snapshot &S);

/// Chrome trace_event JSON ("traceEvents" array, duration events plus
/// thread_name metadata) of everything currently in the ring buffers.
/// Collect while span-recording threads are quiescent.
std::string traceJson();

/// Drops all recorded trace events (buffers stay registered). Call while
/// span-recording threads are quiescent.
void clearTrace();

/// Events currently held across all ring buffers (after drops).
size_t traceEventCount();

#else // !RW_OBS_ENABLED — every entry point collapses to nothing.

constexpr bool compiledIn() { return false; }
inline bool enabled() { return false; }
inline void setEnabled(bool) {}
inline bool tracing() { return false; }
inline void setTracing(bool) {}
inline void setTraceSampling(uint64_t) {}
inline uint64_t traceSampling() { return 1; }
inline bool traceSampleSelect(uint64_t) { return true; }
inline bool traceSampleActive() { return false; }
inline uint64_t traceDroppedCount() { return 0; }
inline uint64_t nowNs() { return 0; }
inline void setThreadName(const char *) {}

class TraceSampleScope {
public:
  constexpr explicit TraceSampleScope(bool) {}
  TraceSampleScope(const TraceSampleScope &) = delete;
  TraceSampleScope &operator=(const TraceSampleScope &) = delete;
};

class Counter {
public:
  constexpr explicit Counter(const char *) {}
  void add(uint64_t = 1) const {}
  void inc() const {}
  uint64_t value() const { return 0; }
};

class Gauge {
public:
  constexpr explicit Gauge(const char *) {}
  void set(uint64_t) const {}
  uint64_t value() const { return 0; }
};

class Histogram {
public:
  constexpr explicit Histogram(const char *) {}
  void record(uint64_t) const {}
};

struct Phase {};

inline Phase &phase(const char *) {
  static Phase P;
  return P;
}

inline uint64_t spanStart() { return 0; }

class Span {
public:
  constexpr Span(uint64_t, Phase &, uint64_t = 0, uint64_t = 0) {}
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;
};

#define OBS_SPAN(...) ((void)0)

inline uint64_t registerSource(const char *,
                               std::function<void(const EmitFn &)>) {
  return 0;
}
inline void unregisterSource(uint64_t) {}
inline Snapshot snapshot() { return {}; }
inline std::string renderText(const Snapshot &) {
  return "(observability compiled out)\n";
}
inline std::string renderJson(const Snapshot &) { return "{\"metrics\":{}}"; }
inline std::string renderPrometheus(const Snapshot &) { return ""; }
inline std::string traceJson() { return "{\"traceEvents\":[]}"; }
inline void clearTrace() {}
inline size_t traceEventCount() { return 0; }

#endif // RW_OBS_ENABLED

} // namespace rw::obs

#endif // RICHWASM_OBS_OBS_H
