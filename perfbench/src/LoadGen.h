//===- perfbench/src/LoadGen.h - Closed- and open-loop load over the wire -===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a daemon with net::Client, one thread per connection:
///
///   - closed loop over a list: each connection takes the next request
///     of the list once the previous response arrived;
///   - timed closed loop: each connection keeps a fixed number of
///     requests of a sequence in flight (1 = a caller that waits for
///     every reply; more = pipelining) until a deadline;
///   - open loop: each connection sends its requests at their due
///     times whether or not earlier ones were answered (pipelined), and
///     reads responses in between. Latency runs from the due time, so
///     a stall also charges the requests queued up behind it; how late
///     each send left is recorded as lateness.
///
/// The first binary returned for every served key (the key actually
/// served: DegradedFrom for a Degraded response) is kept for the
/// output check, and every later binary for that key is compared with
/// it byte for byte: a differing one fails its request. Generator
/// threads can be pinned to a CPU set, apart from the daemon's.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_LOADGEN_H
#define CUASMRL_PERFBENCH_LOADGEN_H

#include "Workloads.h"

#include "net/Wire.h"

#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

/// First binary returned per served key.
using BinaryMap = std::map<std::string, cuasmrl::cubin::CubinFile>;

/// True when \p A and \p B serialize to the same bytes.
bool sameBinary(const cuasmrl::cubin::CubinFile &A,
                const cuasmrl::cubin::CubinFile &B);

/// Moves into \p Into the keys of \p From it lacks, and adds to
/// \p Mismatched every key whose two binaries differ.
void mergeBinaries(BinaryMap &Into, BinaryMap &&From,
                   std::set<std::string> &Mismatched);

/// How one listed request ended. Times are microseconds from the phase
/// start.
struct Outcome {
  bool Done = false;      ///< A response frame arrived.
  std::string Transport;  ///< Why no response arrived (when !Done).
  cuasmrl::net::WireStatus St = cuasmrl::net::WireStatus::Failed;
  std::string ServedKey;  ///< Key of the binary served (empty: none).
  /// The binary differs from one served earlier for the same key.
  bool BinaryMismatch = false;
  double WallMs = 0.0;    ///< The daemon's admission-to-resolution time.
  double TritonUs = 0.0;  ///< Wire-reported result (Optimized only).
  double OptimizedUs = 0.0;
  double DueUs = 0.0;
  double SentUs = 0.0;
  double DoneUs = 0.0;
};

struct PhaseResult {
  std::vector<Outcome> Outcomes; ///< Parallel to the phase's requests.
  double WallS = 0.0;
  BinaryMap Binaries;
  /// Keys whose binaries differed between connections.
  std::set<std::string> Mismatched;
};

/// Result of a timed closed loop, where every request should hit.
struct TimedResult {
  uint64_t Completed = 0; ///< LookupHit responses.
  /// Any other outcome, transport errors and binaries that differ from
  /// the one this connection got earlier for the key included.
  uint64_t Failed = 0;
  double WallS = 0.0;
  /// LookupHit completions per second in each full 250 ms slice.
  std::vector<double> SliceRps;
  /// (send time us, round trip ms) of every LookupHit.
  std::vector<std::pair<double, double>> LatencyMs;
  /// Round trip minus the daemon's WallMs, in microseconds.
  std::vector<double> OverheadUs;
  /// The daemon's WallMs of every LookupHit.
  std::vector<double> WallMs;
  /// LookupHit responses per served key.
  std::map<std::string, uint64_t> Served;
  BinaryMap Binaries;
  /// Keys whose binaries differed between connections or rounds.
  std::set<std::string> Mismatched;

  /// Appends \p Next as if it ran right after this result.
  void append(TimedResult &&Next);
};

/// CPUs a generator thread may run on; empty = no pinning.
using CpuSet = std::vector<int>;

PhaseResult runClosedLoop(uint16_t Port,
                          const std::vector<PlannedRequest> &Requests,
                          unsigned Connections, const CpuSet &Cpus);

TimedResult
runTimedLoop(uint16_t Port,
             const std::vector<cuasmrl::serve::OptimizeRequest> &Sequence,
             unsigned Connections, unsigned Depth, double Seconds,
             const CpuSet &Cpus);

/// Requests go out on connection PlannedRequest::Conn.
PhaseResult runOpenLoop(uint16_t Port,
                        const std::vector<PlannedRequest> &Requests,
                        unsigned Connections, const CpuSet &Cpus);

/// True for the outcomes the benchmark counts as failures: transport
/// errors, every status but Optimized, LookupHit and Degraded, and a
/// binary that differs from one served earlier for its key.
bool isFailure(const Outcome &O);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_LOADGEN_H
