//===- perfbench/src/Checker.h - Output check and honest speedup ----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// For every distinct served key: disassemble the returned binary,
/// rebuild the -O3 baseline from the request that produced the key
/// (Autotuner::tune + compileKernel under the request's AutotuneSeed
/// and AutotuneMeasure), check the binary's output against the oracle
/// run of the baseline (triton::probabilisticTest), then measure the
/// baseline and the binary under one MeasureConfig whose seed the
/// daemon never saw. The ratio of those two times is the honest
/// speedup: it does not reuse the search's own minimum.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_CHECKER_H
#define CUASMRL_PERFBENCH_CHECKER_H

#include "cubin/Cubin.h"
#include "serve/OptimizationService.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct KeyCheck {
  std::string Key;
  bool Ok = false;
  std::string Why; ///< Set when !Ok.
  double BaselineUs = 0.0;
  double WinnerUs = 0.0;
  double speedup() const { return WinnerUs > 0 ? BaselineUs / WinnerUs : 0; }
};

/// Checks every binary of \p Binaries; \p Specs maps each key to the
/// request that produced it. Runs on \p Threads threads, each key on a
/// private device; results come back in key order and do not depend on
/// the thread count.
std::vector<KeyCheck>
checkBinaries(const std::map<std::string, cuasmrl::cubin::CubinFile> &Binaries,
              const std::map<std::string, cuasmrl::serve::OptimizeRequest> &Specs,
              uint64_t HeldOutSeed, unsigned Threads);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_CHECKER_H
