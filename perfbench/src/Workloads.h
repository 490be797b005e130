//===- perfbench/src/Workloads.h - Seeded request streams -----------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three benchmark workloads as pure functions of (workload, seed,
/// seconds). The daemon only ever sees the generated requests, never
/// the seed. Every request carries its own Config block, so the
/// daemon's built-in defaults do not matter.
///
///   cold-zoo     closed loop, every key distinct and absent: all six
///                kinds at test shapes, then seeded shape variants.
///   warm-lookup  hits on a pre-deployed key set with Zipf-skewed
///                popularity: an open loop of seeded Poisson arrivals at
///                a fixed rate, then rounds of a closed loop of callers
///                that wait for each reply and a pipelined saturation.
///   mixed-churn  warm-lookup's hit rounds for the whole run, beside a
///                seeded schedule of misses:
///                exact-shape misses (no degrade), duplicates of those
///                while in flight (single-flight attach), and near-shape
///                misses that resolve Degraded.
///
/// Shape variant s of a kind (s = 1 is kernels::testShape) grows only
/// launch-grid dimensions, so the reward loop — which simulates at most
/// two blocks — costs about the same for every variant.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_WORKLOADS_H
#define CUASMRL_PERFBENCH_WORKLOADS_H

#include "serve/OptimizationService.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

enum class Workload { ColdZoo, WarmLookup, MixedChurn };

std::optional<Workload> parseWorkload(const std::string &Name);
const char *workloadName(Workload W);

/// What a generated request is meant to exercise.
enum class ReqClass {
  Hit,       ///< A deployed key: LookupHit.
  Cold,      ///< An absent key, degrade off: a full optimize job.
  NearMiss,  ///< An absent key with a deployed sibling shape: Degraded.
  Duplicate, ///< A Cold request re-sent while its job runs: attaches.
};

struct PlannedRequest {
  cuasmrl::serve::OptimizeRequest Req;
  ReqClass Class = ReqClass::Hit;
  /// Open loop: when the request is due, seconds from phase start.
  double DueS = 0.0;
  /// Open loop: which generator connection sends it.
  unsigned Conn = 0;
};

struct Plan {
  Workload W = Workload::ColdZoo;
  /// Keys deployed (untimed) before the daemon starts.
  std::vector<cuasmrl::serve::OptimizeRequest> Deployed;
  /// The listed requests: cold-zoo's closed-loop list; warm-lookup's
  /// open-loop hits; mixed-churn's scheduled misses (sent beside the
  /// hit loop).
  std::vector<PlannedRequest> Requests;
  unsigned ListConnections = 1;
  /// Zipf-skewed hit sequence the timed closed loops cycle through.
  std::vector<cuasmrl::serve::OptimizeRequest> Hits;
  /// Timed closed loops over Hits, in Cycles rounds of: SequentialS
  /// with one request in flight per connection (callers waiting for
  /// each reply), then SaturationS pipelined. Alternating spreads both
  /// over the whole run, so a host stall of a few seconds hits neither
  /// all of one nor all of the other.
  unsigned Cycles = 1;
  double SequentialS = 0.0;
  double SaturationS = 0.0;
  /// Daemon optimizer workers (x NumEnvs = 1 busy thread each).
  unsigned DaemonWorkers = 1;
};

/// Pinned cold-job budget: 256 PPO steps, one env.
cuasmrl::core::OptimizeConfig coldConfig();
/// The light budget the pre-deployed keys were optimized under.
cuasmrl::core::OptimizeConfig deployConfig();

/// Shape variant \p S (>= 1) of \p Kind; variant 1 is the test shape.
cuasmrl::kernels::WorkloadShape variantShape(cuasmrl::kernels::WorkloadKind Kind,
                                             unsigned S);

Plan makePlan(Workload W, uint64_t Seed, unsigned Seconds);

/// The plan as bytes: every deployed and measured request as a wire
/// frame, plus due times and classes — equal plans give equal bytes.
std::vector<uint8_t> planBytes(const Plan &P);

/// The deploy-cache key a request resolves to (requests always carry
/// their Config, so the daemon's defaults never enter the key).
std::string keyOf(const cuasmrl::serve::OptimizeRequest &R);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_WORKLOADS_H
