//===- perfbench/src/Stats.cpp --------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> Values, unsigned Permille) {
  if (Values.empty())
    return 0.0;
  const size_t N = Values.size();
  // Nearest rank: the smallest sample with at least Permille/1000 of
  // the sample at or below it.
  size_t Rank = (N * Permille + 999) / 1000;
  Rank = std::clamp<size_t>(Rank, 1, N);
  std::nth_element(Values.begin(), Values.begin() + (Rank - 1),
                   Values.end());
  return Values[Rank - 1];
}

double mean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double Sum = 0.0;
  for (double V : Values)
    Sum += V;
  return Sum / static_cast<double>(Values.size());
}

double trimmedMean(std::vector<double> Values, double Share) {
  std::sort(Values.begin(), Values.end());
  const size_t Cut = static_cast<size_t>(static_cast<double>(Values.size()) *
                                         std::clamp(Share, 0.0, 0.49));
  return mean(std::vector<double>(Values.begin() + Cut, Values.end() - Cut));
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

size_t tailBeyond(size_t N, unsigned Permille) {
  return N - std::min(N, (N * Permille + 999) / 1000);
}

unsigned tailPermille(size_t N, size_t MinBeyond) {
  static const unsigned Grid[] = {999, 990, 950, 900, 750, 500};
  for (unsigned P : Grid)
    if (tailBeyond(N, P) >= MinBeyond)
      return P;
  return 0;
}

namespace {

std::vector<std::vector<double>>
splitWindows(const std::vector<std::pair<double, double>> &Timed,
             double SpanUs, unsigned Windows) {
  Windows = std::max(1u, Windows);
  std::vector<std::vector<double>> Slices(Windows);
  for (const auto &[T, V] : Timed) {
    double Pos = SpanUs > 0 ? T / SpanUs * Windows : 0.0;
    size_t W = Pos <= 0 ? 0 : static_cast<size_t>(Pos);
    Slices[std::min<size_t>(W, Windows - 1)].push_back(V);
  }
  return Slices;
}

} // namespace

double windowedPercentile(const std::vector<std::pair<double, double>> &Timed,
                          double SpanUs, unsigned Windows, unsigned Permille) {
  std::vector<double> PerSlice;
  for (std::vector<double> &Slice : splitWindows(Timed, SpanUs, Windows))
    if (!Slice.empty())
      PerSlice.push_back(percentile(std::move(Slice), Permille));
  return median(std::move(PerSlice));
}

size_t smallestWindow(const std::vector<std::pair<double, double>> &Timed,
                      double SpanUs, unsigned Windows) {
  size_t Min = Timed.size();
  for (const std::vector<double> &Slice : splitWindows(Timed, SpanUs, Windows))
    Min = std::min(Min, Slice.size());
  return Min;
}

} // namespace perfbench
