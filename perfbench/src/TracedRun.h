//===- perfbench/src/TracedRun.h - In-process traced replay ---------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-layer half of the benchmark: replays a workload's generated
/// requests in-process, serially, through the modules' public
/// functions in the order the daemon runs them, with a span around
/// every call:
///
///   request                       one root per replayed request
///     net.encode_request          encodeRequestFrame (client side)
///     net.decode_request          decodeRequestPayload (server side)
///     triton.deploy_load          DeployCache::load, hit path
///     triton.deploy_miss          DeployCache::load, miss path
///     triton.autotune             Autotuner::tune
///     triton.compile              compileKernel + interceptCubin
///     env.game_init               AssemblyGame construction
///     rl.collect                  RolloutRunner::collect
///       env.reset / env.begin_step / gpusim.measure_batch /
///       env.finish_step           one env step, split by TracedEnv
///     rl.update                   PpoTrainer::updateFromBatch
///     rl.greedy_replay            PpoTrainer::playGreedy (+ env spans)
///     triton.probtest             probabilisticTest
///     triton.substitute           substituteSchedule
///     triton.deploy_store         DeployCache::store
///     net.encode_response         encodeResponseFrame (server side)
///     net.decode_response         decodeResponsePayload (client side)
///   serve.inproc_hit              OptimizationService::submit to the
///                                 resolved future, on a hit (own root)
///
/// The cold path mirrors core::Optimizer::optimize under the service's
/// per-key data seed, so its result can be compared with an untraced
/// Optimizer::optimize of the same request (the replay-match count).
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_TRACEDRUN_H
#define CUASMRL_PERFBENCH_TRACEDRUN_H

#include "Trace.h"
#include "Workloads.h"

#include <string>
#include <vector>

namespace perfbench {

struct TracedResult {
  std::vector<Span> Spans;
  /// Wall time of the traced replay, and of the same work untraced
  /// (Optimizer::optimize for cold requests, the replay with tracing
  /// off for hits).
  double TracedWallS = 0.0;
  double UntracedWallS = 0.0;
  /// Untraced Optimizer::optimize, seconds per cold request.
  std::vector<double> OptimizeS;
  /// Measurement-cache accounting summed over the traced cold replays.
  uint64_t Sims = 0;
  uint64_t SimCacheHits = 0;
  /// Env steps the traced replay took (rollouts and greedy replays).
  uint64_t EnvSteps = 0;
  /// Cold replays whose result matched Optimizer::optimize exactly.
  unsigned ReplayMatches = 0;
  unsigned ReplayCompared = 0;
};

/// Replays up to a fixed number of \p P's cold requests and of its hit
/// sequence; hits load from \p DeployDir, cold replays store into
/// \p ScratchDeployDir.
TracedResult runTraced(const Plan &P, const std::string &DeployDir,
                       const std::string &ScratchDeployDir);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_TRACEDRUN_H
