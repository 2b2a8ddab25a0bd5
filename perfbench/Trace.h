//===- perfbench/Trace.h - In-memory spans around layer calls ---*- C++-*-===//
//
// Part of the RichWasm reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. Spans are taken from the benchmark's own
/// code around calls into each layer's public functions (nothing inside
/// src/ is instrumented): one root span "op" per operation, with the layer
/// calls it made as children. Each thread owns one SpanLog; logs are kept
/// in memory and written out when the run ends.
///
/// Workload code is templated on the recorder: NoTrace inlines every
/// span to the bare call, so the timed runs execute the same code with
/// nothing recorded.
///
//===----------------------------------------------------------------------===//

#ifndef RICHWASM_PERFBENCH_TRACE_H
#define RICHWASM_PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The recorder of the timed runs: records nothing.
struct NoTrace {
  static constexpr bool On = false;
  void beginOp(uint64_t, uint8_t) {}
  void endOp() {}
  template <class F> decltype(auto) span(const char *, F &&Fn) {
    return Fn();
  }
};

/// One span: a timed call into one layer (or an op root, Parent == -1).
struct Span {
  const char *Name;
  uint64_t StartNs = 0, EndNs = 0;
  int32_t Parent = -1; ///< Index into the same log.
  uint32_t Op = 0;     ///< Op id, shared by an op's spans.
  uint8_t Kind = 0;    ///< Workload-defined op class.

  double us() const { return static_cast<double>(EndNs - StartNs) / 1e3; }
};

/// The recorder of the traced run, one per thread.
class SpanLog {
public:
  static constexpr bool On = true;
  std::vector<Span> Spans;

  void beginOp(uint64_t Op, uint8_t Kind) {
    CurOp = static_cast<uint32_t>(Op);
    CurKind = Kind;
    open("op");
  }
  void endOp() { close(); }

  template <class F> decltype(auto) span(const char *Name, F &&Fn) {
    struct Closer {
      SpanLog &L;
      ~Closer() { L.close(); }
    } C{*this};
    open(Name);
    return Fn();
  }

private:
  void open(const char *Name) {
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Op = CurOp;
    S.Kind = CurKind;
    Stack.push_back(static_cast<int32_t>(Spans.size()));
    Spans.push_back(S);
    Spans.back().StartNs = nowNs();
  }
  void close() {
    Spans[static_cast<size_t>(Stack.back())].EndNs = nowNs();
    Stack.pop_back();
  }

  std::vector<int32_t> Stack;
  uint32_t CurOp = 0;
  uint8_t CurKind = 0;
};

//===----------------------------------------------------------------------===//
// Summaries
//===----------------------------------------------------------------------===//

/// Nearest-rank quantile of \p V (sorted in place); NaN when empty.
inline double quantile(std::vector<double> &V, double Q) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}

/// True when \p N samples leave at least ten beyond quantile \p Q.
inline bool tailHasTen(size_t N, double Q) {
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(N)));
  return N >= Rank + 10;
}

/// Queries over a set of per-thread logs.
struct TraceView {
  std::vector<const SpanLog *> Logs;

  /// Durations (µs) of spans named \p Name whose op has kind \p Kind
  /// (any kind when Kind < 0).
  std::vector<double> durations(const std::string &Name, int Kind = -1) const {
    std::vector<double> D;
    for (const SpanLog *L : Logs)
      for (const Span &S : L->Spans)
        if (Name == S.Name && (Kind < 0 || S.Kind == Kind))
          D.push_back(S.us());
    return D;
  }

  /// Per op: the summed duration (µs) of its spans named \p Name, for
  /// every op that made at least one such call.
  std::vector<double> perOpSums(const std::string &Name) const {
    std::vector<double> D;
    for (const SpanLog *L : Logs) {
      std::map<uint32_t, double> Sum;
      for (const Span &S : L->Spans)
        if (Name == S.Name)
          Sum[S.Op] += S.us();
      for (const auto &[Op, Us] : Sum)
        D.push_back(Us);
    }
    return D;
  }

  /// Op root durations (µs).
  std::vector<double> opTimes() const { return durations("op"); }

  /// Per op: the time (µs) its direct layer calls cover.
  std::vector<double> attributedPerOp() const {
    std::vector<double> D;
    for (const SpanLog *L : Logs) {
      std::vector<double> Child = childCover(*L);
      for (size_t I = 0; I < L->Spans.size(); ++I)
        if (L->Spans[I].Parent < 0)
          D.push_back(Child[I]);
    }
    return D;
  }

  /// Self time (µs) summed per span name: each span's duration minus the
  /// part its direct children cover.
  std::map<std::string, double> selfTimes() const {
    std::map<std::string, double> Self;
    for (const SpanLog *L : Logs) {
      std::vector<double> Child = childCover(*L);
      for (size_t I = 0; I < L->Spans.size(); ++I)
        Self[L->Spans[I].Name] += L->Spans[I].us() - Child[I];
    }
    return Self;
  }

private:
  /// Per span of \p L: the summed duration (µs) of its direct children.
  static std::vector<double> childCover(const SpanLog &L) {
    std::vector<double> Child(L.Spans.size(), 0.0);
    for (const Span &S : L.Spans)
      if (S.Parent >= 0)
        Child[static_cast<size_t>(S.Parent)] += S.us();
    return Child;
  }
};

/// Appends every span of \p Logs to \p Out as CSV rows
/// `workload,thread,op,kind,parent,name,start_ns,end_ns` (start and end
/// relative to \p T0), at most \p Cap rows. Returns the rows written.
inline size_t writeSpans(std::FILE *Out, const char *Workload,
                         const std::vector<const SpanLog *> &Logs,
                         uint64_t T0, size_t Cap) {
  size_t N = 0;
  for (size_t T = 0; T < Logs.size(); ++T)
    for (const Span &S : Logs[T]->Spans) {
      if (N == Cap)
        return N;
      std::fprintf(Out, "%s,%zu,%u,%u,%d,%s,%llu,%llu\n", Workload, T, S.Op,
                   S.Kind, S.Parent, S.Name,
                   static_cast<unsigned long long>(S.StartNs - T0),
                   static_cast<unsigned long long>(S.EndNs - T0));
      ++N;
    }
  return N;
}

} // namespace perfbench

#endif // RICHWASM_PERFBENCH_TRACE_H
