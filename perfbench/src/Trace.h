//===- perfbench/src/Trace.h - In-memory span recorder --------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans for the traced run. Every span carries a name, start and end
/// (steady clock, microseconds from the tracer's epoch), the id of the
/// span that was open when it started (its parent; 0 = root) and the id
/// of the request it belongs to. Spans are kept in memory and written
/// out once the run ends.
///
/// A span's self time is its duration minus the part of its interval
/// that its children cover — the union of the child intervals clipped
/// to the parent, so overlapping children are never counted twice.
///
/// Single-threaded: the traced run replays requests serially.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_TRACE_H
#define CUASMRL_PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string Name;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = a root span.
  uint64_t Request = 0;
  double StartUs = 0.0;
  double EndUs = 0.0;
  double durationUs() const { return EndUs - StartUs; }
};

class Tracer {
public:
  Tracer();

  /// RAII span: opens on construction under the innermost open span,
  /// closes on destruction. A null tracer records nothing, so one code
  /// path serves the traced and the untraced replay.
  class Scope {
  public:
    Scope(Tracer *T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *T;
    size_t Index = 0;
  };

  /// Tags every span opened from now on with \p Id.
  void setRequest(uint64_t Id) { Request = Id; }

  const std::vector<Span> &spans() const { return Spans; }

private:
  double nowUs() const;

  std::chrono::steady_clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> Open; ///< Indices of the open spans, innermost last.
  uint64_t Request = 0;
};

/// Self time of every span in \p Spans (same order).
std::vector<double> selfTimesUs(const std::vector<Span> &Spans);

/// Per-name totals over a span list.
struct SpanTotals {
  uint64_t Count = 0;
  double TotalUs = 0.0;
  double SelfUs = 0.0;
};
std::map<std::string, SpanTotals> aggregate(const std::vector<Span> &Spans);

/// One JSON object per line: name, id, parent, request, start_us, end_us.
void writeSpans(std::ostream &OS, const std::vector<Span> &Spans);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_TRACE_H
