//===- perfbench/src/Stats.h - Percentiles, tails and geomeans ------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The summary statistics every benchmark metric is built from. All
/// percentiles are nearest-rank, so "the value at percentile p" is an
/// observed sample and exactly tailBeyond(N, p) samples lie past it.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_STATS_H
#define CUASMRL_PERFBENCH_STATS_H

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of \p Values at \p Permille (500 = median,
/// 990 = p99); 0 for an empty sample.
double percentile(std::vector<double> Values, unsigned Permille);

inline double median(std::vector<double> Values) {
  return percentile(std::move(Values), 500);
}

double mean(const std::vector<double> &Values);

/// Mean of \p Values without the lowest and the highest \p Share of
/// them; 0 for an empty sample.
double trimmedMean(std::vector<double> Values, double Share);

/// Geometric mean of positive values; 0 for an empty sample.
double geomean(const std::vector<double> &Values);

/// Samples strictly past the nearest-rank percentile \p Permille of a
/// sample of size \p N.
size_t tailBeyond(size_t N, unsigned Permille);

/// The tail rule: the highest percentile of the grid
/// {p50, p75, p90, p95, p99, p99.9} that leaves at least \p MinBeyond
/// samples past it, as per-mille; 0 when even the median does not.
unsigned tailPermille(size_t N, size_t MinBeyond = 10);

/// Splits timed samples (time, value) into \p Windows equal slices of
/// [0, \p SpanUs) and returns the median over slices of each slice's
/// percentile at \p Permille — a single stall then moves one slice, not
/// the result. Samples at or past \p SpanUs fall in the last slice.
double windowedPercentile(const std::vector<std::pair<double, double>> &Timed,
                          double SpanUs, unsigned Windows, unsigned Permille);

/// The smallest slice of windowedPercentile's split.
size_t smallestWindow(const std::vector<std::pair<double, double>> &Timed,
                      double SpanUs, unsigned Windows);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_STATS_H
