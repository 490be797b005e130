//===- perfbench/src/Trace.cpp --------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <unordered_map>

namespace perfbench {

Tracer::Tracer() : Epoch(std::chrono::steady_clock::now()) {}

double Tracer::nowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

Tracer::Scope::Scope(Tracer *T, const char *Name) : T(T) {
  if (!T)
    return;
  Span S;
  S.Name = Name;
  S.Id = T->Spans.size() + 1;
  S.Parent = T->Open.empty() ? 0 : T->Spans[T->Open.back()].Id;
  S.Request = T->Request;
  Index = T->Spans.size();
  T->Spans.push_back(std::move(S));
  T->Open.push_back(Index);
  T->Spans[Index].StartUs = T->nowUs();
}

Tracer::Scope::~Scope() {
  if (!T)
    return;
  T->Spans[Index].EndUs = T->nowUs();
  T->Open.pop_back();
}

std::vector<double> selfTimesUs(const std::vector<Span> &Spans) {
  std::unordered_map<uint64_t, size_t> ById;
  for (size_t I = 0; I < Spans.size(); ++I)
    ById.emplace(Spans[I].Id, I);
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans) {
    auto It = ById.find(S.Parent);
    if (S.Parent != 0 && It != ById.end())
      Children[It->second].emplace_back(S.StartUs, S.EndUs);
  }

  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &P = Spans[I];
    std::vector<std::pair<double, double>> &C = Children[I];
    std::sort(C.begin(), C.end());
    // Length of the union of the child intervals, clipped to the parent.
    double Covered = 0.0, RunStart = 0.0, RunEnd = 0.0;
    bool InRun = false;
    for (auto [Start, End] : C) {
      Start = std::max(Start, P.StartUs);
      End = std::min(End, P.EndUs);
      if (End <= Start)
        continue;
      if (InRun && Start <= RunEnd) {
        RunEnd = std::max(RunEnd, End);
        continue;
      }
      if (InRun)
        Covered += RunEnd - RunStart;
      RunStart = Start;
      RunEnd = End;
      InRun = true;
    }
    if (InRun)
      Covered += RunEnd - RunStart;
    Self[I] = P.durationUs() - Covered;
  }
  return Self;
}

std::map<std::string, SpanTotals> aggregate(const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimesUs(Spans);
  std::map<std::string, SpanTotals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    SpanTotals &T = Out[Spans[I].Name];
    ++T.Count;
    T.TotalUs += Spans[I].durationUs();
    T.SelfUs += Self[I];
  }
  return Out;
}

void writeSpans(std::ostream &OS, const std::vector<Span> &Spans) {
  for (const Span &S : Spans)
    OS << "{\"name\":\"" << S.Name << "\",\"id\":" << S.Id
       << ",\"parent\":" << S.Parent << ",\"request\":" << S.Request
       << ",\"start_us\":" << S.StartUs << ",\"end_us\":" << S.EndUs
       << "}\n";
}

} // namespace perfbench
