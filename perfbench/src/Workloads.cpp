//===- perfbench/src/Workloads.cpp ----------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "net/Wire.h"
#include "support/Rng.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace cuasmrl;
using kernels::WorkloadKind;

namespace perfbench {

namespace {

/// Warm-lookup: the open loop's fixed rate, and how a run splits into
/// the open loop and rounds of sequential and saturation phases.
constexpr double kOpenRate = 500.0;
constexpr double kOpenShare = 0.2;
constexpr double kSequentialShare = 0.5;
constexpr double kSaturationShare = 0.3;
constexpr unsigned kWarmCycles = 5;
/// Mixed-churn: the share of each hit round with one request in flight.
constexpr double kMixedSequentialShare = 0.6;
/// Length of the hit sequence the timed loops cycle through.
constexpr size_t kHitSequence = 4096;
/// Distinct shape variants per kind in the pre-deployed set.
constexpr unsigned kDeployedPerKind = 3;
/// Zipf exponent of key popularity.
constexpr double kZipfS = 1.0;
/// Delay of a duplicate behind the cold request it copies.
constexpr double kDuplicateDelayS = 0.1;

serve::OptimizeRequest makeRequest(WorkloadKind Kind, unsigned Variant,
                                   const core::OptimizeConfig &Config,
                                   bool AllowDegraded) {
  serve::OptimizeRequest R;
  R.Kind = Kind;
  R.Shape = variantShape(Kind, Variant);
  R.Config = Config;
  R.AllowDegraded = AllowDegraded;
  return R;
}

/// \p Count distinct values of [Lo, Hi], in seeded order.
std::vector<unsigned> drawDistinct(Rng &R, unsigned Lo, unsigned Hi,
                                   size_t Count) {
  std::vector<unsigned> All;
  for (unsigned V = Lo; V <= Hi; ++V)
    All.push_back(V);
  R.shuffle(All);
  All.resize(std::min(Count, All.size()));
  return All;
}

/// Seeded pre-deployed key set: kDeployedPerKind variants of every kind
/// drawn from 1..6, under the light deploy budget.
std::vector<serve::OptimizeRequest> deployedSet(Rng &R) {
  std::vector<serve::OptimizeRequest> Out;
  for (WorkloadKind Kind : kernels::allWorkloads())
    for (unsigned V : drawDistinct(R, 1, 6, kDeployedPerKind))
      Out.push_back(makeRequest(Kind, V, deployConfig(), true));
  return Out;
}

/// Zipf weights over \p N keys, ranked in a seeded order.
std::vector<double> zipfWeights(Rng &R, size_t N) {
  std::vector<double> W(N);
  for (size_t I = 0; I < N; ++I)
    W[I] = 1.0 / std::pow(static_cast<double>(I + 1), kZipfS);
  R.shuffle(W);
  return W;
}

/// Seeded Poisson arrivals at \p Rate for \p Span seconds of Zipf hits
/// over \p Keys, alternating between connections 0 and 1.
std::vector<PlannedRequest>
poissonHits(Rng &R, const std::vector<serve::OptimizeRequest> &Keys,
            double Rate, double Span) {
  std::vector<double> W = zipfWeights(R, Keys.size());
  std::vector<PlannedRequest> Out;
  for (double T = -std::log(1.0 - R.uniformReal()) / Rate; T < Span;
       T += -std::log(1.0 - R.uniformReal()) / Rate) {
    PlannedRequest Q;
    Q.Req = Keys[R.categorical(W)];
    Q.Class = ReqClass::Hit;
    Q.DueS = T;
    Q.Conn = static_cast<unsigned>(Out.size() % 2);
    Out.push_back(std::move(Q));
  }
  return Out;
}

/// Seeded Zipf-skewed hits over \p Keys.
std::vector<serve::OptimizeRequest>
hitSequence(Rng &R, const std::vector<serve::OptimizeRequest> &Keys) {
  std::vector<double> W = zipfWeights(R, Keys.size());
  std::vector<serve::OptimizeRequest> Out;
  for (size_t I = 0; I < kHitSequence; ++I)
    Out.push_back(Keys[R.categorical(W)]);
  return Out;
}

Plan coldZoo(Rng &R, unsigned Seconds) {
  Plan P;
  P.W = Workload::ColdZoo;
  P.DaemonWorkers = 3;
  P.ListConnections = 3;
  // About three 1 s jobs complete per second on three workers.
  const unsigned Rounds = std::max(2u, (Seconds + 1) / 2);
  std::vector<WorkloadKind> Kinds = kernels::allWorkloads();
  std::vector<std::vector<unsigned>> Variants;
  for (size_t K = 0; K < Kinds.size(); ++K)
    Variants.push_back(drawDistinct(R, 2, std::max(12u, Rounds), Rounds - 1));
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    std::vector<size_t> Order(Kinds.size());
    for (size_t K = 0; K < Order.size(); ++K)
      Order[K] = K;
    R.shuffle(Order);
    for (size_t K : Order) {
      PlannedRequest Q;
      Q.Req = makeRequest(Kinds[K], Round == 0 ? 1 : Variants[K][Round - 1],
                          coldConfig(), false);
      Q.Class = ReqClass::Cold;
      P.Requests.push_back(std::move(Q));
    }
  }
  return P;
}

Plan warmLookup(Rng &R, unsigned Seconds) {
  Plan P;
  P.W = Workload::WarmLookup;
  P.DaemonWorkers = 1;
  P.Deployed = deployedSet(R);
  P.Hits = hitSequence(R, P.Deployed);
  const double Span = static_cast<double>(Seconds);
  P.Cycles = kWarmCycles;
  P.SequentialS = kSequentialShare * Span / kWarmCycles;
  P.SaturationS = kSaturationShare * Span / kWarmCycles;
  P.ListConnections = 2;
  P.Requests = poissonHits(R, P.Deployed, kOpenRate, kOpenShare * Span);
  return P;
}

Plan mixedChurn(Rng &R, unsigned Seconds) {
  Plan P;
  P.W = Workload::MixedChurn;
  // One optimizer worker: with the daemon's poll thread and the two hit
  // connections, four busy threads (the miss connections mostly wait).
  // warm-lookup's hit rounds fill the whole run; the misses arrive on
  // their own schedule beside them.
  P.DaemonWorkers = 1;
  P.Deployed = deployedSet(R);
  P.Hits = hitSequence(R, P.Deployed);
  const double Span = static_cast<double>(Seconds);
  P.Cycles = kWarmCycles;
  P.SequentialS = kMixedSequentialShare * Span / kWarmCycles;
  P.SaturationS = (1.0 - kMixedSequentialShare) * Span / kWarmCycles;
  P.ListConnections = 2;

  // One exact-shape miss and one near-shape miss per event; events
  // walk a seeded order of the kinds, so every kind gets its turn.
  std::vector<WorkloadKind> Kinds = kernels::allWorkloads();
  R.shuffle(Kinds);
  // At most one event per kind keeps every miss key distinct.
  const unsigned Events = std::clamp(Seconds * 3 / 10, 2u,
                                     static_cast<unsigned>(Kinds.size()));
  // Per event: a near-shape miss, then an exact-shape miss (connection
  // 0), then the exact miss's duplicate, which waits for the job on
  // connection 1 until well before the next near miss is due there.
  // Variants 13..18 are never deployed; 7..12 are never deployed but
  // always have a deployed sibling of their kind, so they resolve
  // Degraded.
  std::vector<unsigned> ColdVariants = drawDistinct(R, 13, 18, Events);
  std::vector<unsigned> NearVariants = drawDistinct(R, 7, 12, Events);
  for (unsigned E = 0; E < Events; ++E) {
    const double Start = E * Span / Events;
    PlannedRequest Near;
    Near.Req = makeRequest(Kinds[(E + 1) % Kinds.size()], NearVariants[E],
                           deployConfig(), true);
    Near.Class = ReqClass::NearMiss;
    Near.DueS = Start + 0.1;
    Near.Conn = 1;
    PlannedRequest Cold;
    Cold.Req = makeRequest(Kinds[E], ColdVariants[E], coldConfig(), false);
    Cold.Class = ReqClass::Cold;
    Cold.DueS = Start + 0.2;
    Cold.Conn = 0;
    PlannedRequest Dup = Cold;
    Dup.Class = ReqClass::Duplicate;
    Dup.DueS += kDuplicateDelayS;
    Dup.Conn = 1;
    P.Requests.push_back(std::move(Near));
    P.Requests.push_back(std::move(Cold));
    P.Requests.push_back(std::move(Dup));
  }
  std::stable_sort(P.Requests.begin(), P.Requests.end(),
                   [](const PlannedRequest &A, const PlannedRequest &B) {
                     return A.DueS < B.DueS;
                   });
  return P;
}

} // namespace

std::optional<Workload> parseWorkload(const std::string &Name) {
  for (Workload W :
       {Workload::ColdZoo, Workload::WarmLookup, Workload::MixedChurn})
    if (Name == workloadName(W))
      return W;
  return std::nullopt;
}

const char *workloadName(Workload W) {
  switch (W) {
  case Workload::ColdZoo:
    return "cold-zoo";
  case Workload::WarmLookup:
    return "warm-lookup";
  case Workload::MixedChurn:
    return "mixed-churn";
  }
  return "?";
}

core::OptimizeConfig coldConfig() {
  core::OptimizeConfig C;
  C.Ppo.TotalSteps = 256;
  C.Ppo.RolloutLen = 32;
  C.NumEnvs = 1;
  return C;
}

core::OptimizeConfig deployConfig() {
  core::OptimizeConfig C;
  C.Ppo.TotalSteps = 64;
  C.Ppo.RolloutLen = 16;
  C.Ppo.MiniBatches = 2;
  C.Ppo.Epochs = 2;
  C.Ppo.Channels = 4;
  C.Ppo.Hidden = 16;
  C.Game.EpisodeLength = 8;
  C.Game.Measure.WarmupIters = 1;
  C.Game.Measure.RepeatIters = 1;
  C.AutotuneMeasure.WarmupIters = 1;
  C.AutotuneMeasure.RepeatIters = 2;
  C.ProbTestRounds = 1;
  C.NumEnvs = 1;
  return C;
}

kernels::WorkloadShape variantShape(WorkloadKind Kind, unsigned S) {
  kernels::WorkloadShape Shape = kernels::testShape(Kind);
  const unsigned I = std::max(1u, S) - 1;
  switch (Kind) {
  case WorkloadKind::FusedFF:
  case WorkloadKind::MmLeakyRelu:
    Shape.M *= I % 4 + 1;
    Shape.N *= I / 4 + 1;
    break;
  case WorkloadKind::Bmm:
    Shape.B += I % 3;
    Shape.M *= I / 3 + 1;
    break;
  case WorkloadKind::FlashAttention:
    Shape.NHead *= I + 1;
    break;
  case WorkloadKind::Softmax:
  case WorkloadKind::RmsNorm:
    Shape.Rows *= I + 1;
    break;
  }
  return Shape;
}

Plan makePlan(Workload W, uint64_t Seed, unsigned Seconds) {
  Rng R(mixSeed(Seed, static_cast<uint64_t>(W) + 1));
  Seconds = std::max(1u, Seconds);
  switch (W) {
  case Workload::ColdZoo:
    return coldZoo(R, Seconds);
  case Workload::WarmLookup:
    return warmLookup(R, Seconds);
  case Workload::MixedChurn:
    return mixedChurn(R, Seconds);
  }
  return Plan();
}

std::vector<uint8_t> planBytes(const Plan &P) {
  std::vector<uint8_t> Out;
  auto Append = [&](const serve::OptimizeRequest &R, uint64_t Id) {
    std::vector<uint8_t> Frame = net::encodeRequestFrame(R, Id);
    Out.insert(Out.end(), Frame.begin(), Frame.end());
  };
  uint64_t Id = 0;
  for (const serve::OptimizeRequest &R : P.Deployed)
    Append(R, ++Id);
  for (const PlannedRequest &Q : P.Requests) {
    Append(Q.Req, ++Id);
    uint8_t Bits[8];
    std::memcpy(Bits, &Q.DueS, sizeof(Bits));
    Out.insert(Out.end(), Bits, Bits + sizeof(Bits));
    Out.push_back(static_cast<uint8_t>(Q.Class));
    Out.push_back(static_cast<uint8_t>(Q.Conn));
  }
  for (const serve::OptimizeRequest &R : P.Hits)
    Append(R, ++Id);
  return Out;
}

std::string keyOf(const serve::OptimizeRequest &R) {
  return serve::OptimizationService::requestKey(
      R, R.Config ? *R.Config : core::OptimizeConfig());
}

} // namespace perfbench
