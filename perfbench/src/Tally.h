//===- perfbench/src/Tally.h - Request outcomes and the run's verdict -----===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Counts the requests of one run: the listed ones (one Outcome each)
/// and the timed loops' hits (counts per connection), split by request
/// class so that a broken miss path cannot hide among the hit volume.
/// A run is correct only when no request of any class failed.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_TALLY_H
#define CUASMRL_PERFBENCH_TALLY_H

#include "LoadGen.h"

#include <array>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// The classes failures are counted by: the listed request classes,
/// then the timed loops' hits.
enum class FailClass { Hit, Cold, NearMiss, Duplicate, TimedHit };
constexpr size_t kFailClasses = 5;

FailClass classOf(ReqClass C);

/// Metric-name suffix of \p C: "hit", "cold", "near_miss", ...
const char *failClassName(FailClass C);

struct Tally {
  uint64_t Attempted = 0;
  uint64_t Completed = 0; ///< Requests that got a response frame.
  uint64_t Failed = 0;
  std::array<uint64_t, kFailClasses> FailedBy{};
  /// Parallel to the listed requests: resolved as intended.
  std::vector<bool> ListedOk;

  uint64_t failed(FailClass C) const {
    return FailedBy[static_cast<size_t>(C)];
  }
};

/// Counts \p Listed (outcomes parallel to it) and the \p Timed loops.
/// A request fails when isFailure() says so or when the key it was
/// served from is in \p BadKeys (its binary failed the output check, or
/// differed between responses); a timed hit on a bad key fails too.
Tally tallyRequests(const std::vector<PlannedRequest> &Listed,
                    const std::vector<Outcome> &Outcomes,
                    const std::vector<const TimedResult *> &Timed,
                    const std::set<std::string> &BadKeys);

/// What a run must show to be reported correct, beyond the tally.
struct RunChecks {
  size_t CheckedKeys = 0;  ///< Served keys the output check ran on.
  size_t BadKeys = 0;      ///< Of those, keys that failed it.
  bool GeneratorOk = true; ///< The open loop kept its schedule.
  bool ReplayOk = true;    ///< The traced replay matched the optimizer.
};

/// True when every request of every class succeeded, at least one key
/// was checked and every check in \p C passed.
bool runCorrect(const Tally &T, const RunChecks &C);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_TALLY_H
