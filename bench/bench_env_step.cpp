//===- bench/bench_env_step.cpp - env-step throughput benchmark --------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Single-env step throughput of the assembly game on the GEMM and
// attention kernels — the number that bounds rollout collection speed —
// plus a per-phase breakdown (decode / execute / measure / mask / hash /
// embed, and the policy network's forward, PPO training sample and PPO
// minibatch on the kernel's observations) so the perf trajectory of each
// hot-path component is tracked across revisions.
//
// Emits a machine-readable JSON report (see tools/run_benchmarks.py):
//
//   bench_env_step [--json PATH] [--steps N] [--paper]
//
// Env overrides: CUASMRL_STEPS (step budget), CUASMRL_FAST=1 (1/8 budget).
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/GameEnvAdapter.h"
#include "env/AssemblyGame.h"
#include "gpusim/Measurement.h"
#include "kernels/Builder.h"
#include "rl/ActorCritic.h"
#include "rl/Ppo.h"
#include "sass/Parser.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace cuasmrl;
using namespace cuasmrl::kernels;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Rates of the individual per-step phases, in operations per second.
struct PhaseRates {
  double MaskCached = 0.0;  ///< actionMask() as the env exposes it.
  double MaskFresh = 0.0;   ///< Full O(program) legality sweep.
  double HashKey = 0.0;     ///< Schedule key as measure() obtains it.
  double HashFresh = 0.0;   ///< From-scratch schedule key.
  double Embed = 0.0;       ///< Full observation rebuild.
  double Decode = 0.0;      ///< Pre-decoded kernel image build.
  double SimTimed = 0.0;    ///< One timed simulation (execute phase).
  double Measure = 0.0;     ///< One uncached measurement, default protocol.
  double PolicyForward = 0.0;     ///< ActorCritic::forward on one observation.
  double PolicyTrainSample = 0.0; ///< Forward + PPO-loss backward, one sample.
  double PpoMinibatch = 0.0;      ///< One PPO update of one minibatch.
};

struct KernelReport {
  std::string Name;
  unsigned Steps = 0;
  double Seconds = 0.0;
  double StepsPerSec = 0.0;
  double CacheHitRate = 0.0;
  PhaseRates Phases;
  gpusim::PerfCounters Counters; ///< From one timed simulation.
};

unsigned stepBudget(unsigned Default) {
  if (const char *Env = std::getenv("CUASMRL_STEPS"))
    if (unsigned V = static_cast<unsigned>(std::atoi(Env)))
      Default = V;
  if (const char *Fast = std::getenv("CUASMRL_FAST"))
    if (std::strcmp(Fast, "1") == 0)
      Default = std::max(64u, Default / 8);
  return Default;
}

/// Times \p Fn repeatedly for ~\p Budget seconds; returns calls/second.
template <typename Fn> double rate(double Budget, Fn &&Body) {
  // One untimed call warms caches and proves the operation works.
  Body();
  uint64_t Calls = 0;
  Clock::time_point Start = Clock::now();
  double Elapsed = 0.0;
  do {
    Body();
    ++Calls;
    Elapsed = secondsSince(Start);
  } while (Elapsed < Budget);
  return static_cast<double>(Calls) / Elapsed;
}

KernelReport benchKernel(WorkloadKind Kind, unsigned Steps, bool Paper) {
  KernelReport Rep;
  Rep.Name = workloadName(Kind);
  Rep.Steps = Steps;

  gpusim::Gpu Device;
  Rng DataRng(7);
  WorkloadShape Shape = Paper ? paperShape(Kind) : testShape(Kind);
  BuiltKernel Kernel =
      buildKernel(Device, Kind, Shape, candidateConfigs(Kind).front(),
                  ScheduleStyle::TritonO3, DataRng);

  env::GameConfig Config;
  Config.Measure.WarmupIters = 1;
  Config.Measure.RepeatIters = 1;
  Config.Measure.NoiseStddev = 0.001;
  Config.RecordTrace = false;
  env::AssemblyGame Game(Device, Kernel, Config);

  // --- end-to-end step throughput (random legal-action walk) ------------
  Rng Walk(1);
  Game.reset();
  std::vector<unsigned> Legal;
  unsigned Performed = 0; // Actual step() calls (reset-only laps excluded).
  Clock::time_point Start = Clock::now();
  for (unsigned Lap = 0; Lap < Steps; ++Lap) {
    std::vector<uint8_t> Mask = Game.actionMask();
    Legal.clear();
    for (unsigned A = 0; A < Mask.size(); ++A)
      if (Mask[A])
        Legal.push_back(A);
    if (Legal.empty()) {
      Game.reset();
      continue;
    }
    unsigned Action = Legal[Walk.uniformInt(Legal.size())];
    env::AssemblyGame::StepResult R = Game.step(Action);
    ++Performed;
    if (R.Done)
      Game.reset();
  }
  Rep.Seconds = secondsSince(Start);
  Rep.Steps = Performed;
  Rep.StepsPerSec = Performed / Rep.Seconds;
  if (const gpusim::MeasurementCache *Cache = Game.measurementCache())
    Rep.CacheHitRate = Cache->hitRate();

  // --- per-phase rates ---------------------------------------------------
  const double Budget = 0.2; // Seconds per phase probe.
  Rep.Phases.MaskCached = rate(Budget, [&] {
    std::vector<uint8_t> M = Game.actionMask();
    (void)M;
  });
  Rep.Phases.MaskFresh = rate(Budget, [&] {
    std::vector<uint8_t> M = Game.actionMaskFresh();
    (void)M;
  });
  Rep.Phases.HashKey = rate(Budget, [&] { (void)Game.scheduleKey(); });
  Rep.Phases.HashFresh = rate(Budget, [&] {
    (void)gpusim::MeasurementCache::keyFor(Game.current());
  });
  env::Embedding Embed(Kernel.Prog);
  Rep.Phases.Embed = rate(Budget, [&] {
    std::vector<float> Obs = Embed.embed(Game.current());
    (void)Obs;
  });
  Rep.Phases.Decode = rate(Budget, [&] {
    gpusim::DecodedProgram D(Game.current());
    (void)D;
  });
  unsigned Resident = Device.residentBlocks(Kernel.Launch);
  Rep.Phases.SimTimed = rate(Budget, [&] {
    gpusim::RunResult R = Device.run(Game.current(), Kernel.Launch,
                                     gpusim::RunMode::Timed, Resident);
    Rep.Counters = R.Counters;
  });

  // Policy network at the default NetConfig/PpoConfig width, on this
  // kernel's observation: the layer that dominates a cold optimization
  // job (rollout forwards, greedy replay and PPO updates).
  std::vector<float> Obs = Embed.embed(Game.current());
  std::vector<uint8_t> Mask = Game.actionMask();
  // A cache miss's measurement as cold requests take it: the default
  // protocol (2 warmups, 3 reps, caches cleared between reps) on the
  // game's block subset.
  gpusim::MeasureConfig Measure;
  Measure.MaxBlocks = std::min(Resident, 2u);
  Rep.Phases.Measure = rate(Budget, [&] {
    gpusim::Measurement M = gpusim::measureKernel(
        Device, Game.current(), Game.decoded(), Kernel.Launch, Measure);
    (void)M;
  });

  rl::PpoConfig Ppo;
  rl::NetConfig Net;
  Net.Features = Embed.features();
  Net.Length = Embed.rows();
  Net.Actions = Mask.size();
  Net.Channels = Ppo.Channels;
  Net.Hidden = Ppo.Hidden;
  Rng Init(3);
  rl::ActorCritic Policy(Net, Init);
  Rep.Phases.PolicyForward = rate(Budget, [&] {
    rl::ActorCritic::Output Out = Policy.forward(Obs, Mask);
    (void)Out;
  });
  unsigned Action = 0;
  while (Action + 1 < Mask.size() && !Mask[Action])
    ++Action;
  float OldLogProb =
      rl::gather(rl::logSoftmax(Policy.forward(Obs, Mask).MaskedLogits),
                 Action)
          .item();
  std::vector<rl::Tensor> Params = Policy.parameters();
  Rep.Phases.PolicyTrainSample = rate(Budget, [&] {
    // A PPO-shaped sample loss (clipped surrogate + value + entropy
    // terms, advantage 1 and return 0) and its backward.
    rl::ActorCritic::Output Out = Policy.forward(Obs, Mask);
    rl::Tensor LogP = rl::logSoftmax(Out.MaskedLogits);
    rl::Tensor Ratio =
        rl::expT(rl::scalarAdd(rl::gather(LogP, Action), -OldLogProb));
    float Clip = static_cast<float>(Ppo.ClipCoef);
    rl::Tensor PolicyLoss = rl::neg(
        rl::minElem(Ratio, rl::clampRange(Ratio, 1.0f - Clip, 1.0f + Clip)));
    rl::Tensor VLoss = rl::mul(Out.Value, Out.Value);
    rl::Tensor Entropy = rl::neg(rl::sumT(rl::mul(rl::expT(LogP), LogP)));
    rl::Tensor Loss = rl::add(
        PolicyLoss,
        rl::add(rl::scalarMul(VLoss, static_cast<float>(Ppo.VfCoef) * 0.5f),
                rl::scalarMul(Entropy, -static_cast<float>(Ppo.EntCoef))));
    for (rl::Tensor &P : Params)
      P.zeroGrad();
    Loss.backward();
  });

  // One PPO minibatch as a cold request trains it (RolloutLen 32 over 4
  // minibatches: 8 samples), over observations of a random walk: the
  // minibatch's forward graph, backward, clipping and Adam step, plus
  // the update's one bootstrap forward and GAE.
  core::GameEnvAdapter Adapter(Game);
  rl::PpoConfig MbConfig;
  MbConfig.RolloutLen = 8;
  MbConfig.MiniBatches = 1;
  MbConfig.Epochs = 1;
  rl::PpoTrainer Trainer({&Adapter}, MbConfig);
  rl::TrajectoryBatch Batch;
  rl::Trajectory &Traj = Batch.Trajectories.emplace_back();
  std::vector<float> WalkObs = Game.reset();
  while (Traj.Steps.size() < MbConfig.RolloutLen) {
    std::vector<uint8_t> WalkMask = Game.actionMask();
    Legal.clear();
    for (unsigned A = 0; A < WalkMask.size(); ++A)
      if (WalkMask[A])
        Legal.push_back(A);
    if (Legal.empty()) {
      WalkObs = Game.reset();
      continue;
    }
    rl::Transition &T = Traj.Steps.emplace_back();
    T.Obs = WalkObs;
    T.Mask = WalkMask;
    T.Action = Legal[Walk.uniformInt(Legal.size())];
    T.LogProb = -std::log(static_cast<float>(Legal.size()));
    env::AssemblyGame::StepResult R = Game.step(T.Action);
    T.Reward = static_cast<float>(R.Reward);
    T.Done = R.Done;
    WalkObs = R.Done ? Game.reset() : R.Observation;
  }
  Traj.BootstrapObs = WalkObs;
  Traj.BootstrapMask = Game.actionMask();
  Rep.Phases.PpoMinibatch =
      rate(Budget, [&] { (void)Trainer.updateFromBatch(Batch); });
  return Rep;
}

stats::BenchReport buildReport(const std::vector<KernelReport> &Reports,
                               unsigned Steps, bool Paper) {
  stats::BenchReport Rep("env_step", bench::reportMeta());
  gpusim::PerfCounters Total;
  stats::JsonValue Kernels = stats::JsonValue::array();
  for (const KernelReport &R : Reports) {
    Rep.addMetric(R.Name + ".steps_per_sec", R.StepsPerSec, "steps/s");
    Rep.addMetric(R.Name + ".measure_cache_hit_rate", R.CacheHitRate,
                  "fraction");
    Rep.addMetric(R.Name + ".phase.mask_cached", R.Phases.MaskCached,
                  "ops/s");
    Rep.addMetric(R.Name + ".phase.mask_fresh", R.Phases.MaskFresh, "ops/s");
    Rep.addMetric(R.Name + ".phase.hash_key", R.Phases.HashKey, "ops/s");
    Rep.addMetric(R.Name + ".phase.hash_fresh", R.Phases.HashFresh, "ops/s");
    Rep.addMetric(R.Name + ".phase.embed_full", R.Phases.Embed, "ops/s");
    Rep.addMetric(R.Name + ".phase.decode_full", R.Phases.Decode, "ops/s");
    Rep.addMetric(R.Name + ".phase.sim_timed", R.Phases.SimTimed, "ops/s");
    Rep.addMetric(R.Name + ".phase.measure", R.Phases.Measure, "ops/s");
    Rep.addMetric(R.Name + ".phase.policy_forward", R.Phases.PolicyForward,
                  "ops/s");
    Rep.addMetric(R.Name + ".phase.policy_train_sample",
                  R.Phases.PolicyTrainSample, "ops/s");
    Rep.addMetric(R.Name + ".phase.ppo_minibatch", R.Phases.PpoMinibatch,
                  "ops/s");
    Total += R.Counters;

    stats::JsonValue K = stats::JsonValue::object();
    K.set("name", stats::JsonValue(R.Name));
    K.set("steps", stats::JsonValue(R.Steps));
    K.set("seconds", stats::JsonValue(R.Seconds));
    Kernels.push(std::move(K));
  }
  Rep.setSimCounters(Total);

  stats::JsonValue Extra = stats::JsonValue::object();
  Extra.set("steps_per_kernel", stats::JsonValue(Steps));
  Extra.set("shape", stats::JsonValue(Paper ? "paper" : "test"));
  Extra.set("kernels", std::move(Kernels));
  Rep.setExtra(std::move(Extra));
  return Rep;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath;
  unsigned Steps = stepBudget(384);
  bool Paper = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--json" && I + 1 < argc)
      JsonPath = argv[++I];
    else if (Arg == "--steps" && I + 1 < argc)
      Steps = static_cast<unsigned>(std::atoi(argv[++I]));
    else if (Arg == "--paper")
      Paper = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--json PATH] [--steps N] [--paper]\n",
                   argv[0]);
      return 2;
    }
  }

  std::vector<KernelReport> Reports;
  for (WorkloadKind Kind :
       {WorkloadKind::MmLeakyRelu, WorkloadKind::FlashAttention}) {
    KernelReport R = benchKernel(Kind, Steps, Paper);
    std::printf("%-16s %6u steps in %7.3f s  ->  %9.1f steps/s  "
                "(cache hit %.1f%%)\n",
                R.Name.c_str(), R.Steps, R.Seconds, R.StepsPerSec,
                100.0 * R.CacheHitRate);
    std::printf("  phases/s: mask %.0f (fresh %.0f)  hash %.0f (fresh %.0f)"
                "  embed %.0f  decode %.0f  sim %.0f  measure %.0f\n"
                "  policy/s: forward %.0f  train sample %.0f"
                "  ppo minibatch %.0f\n",
                R.Phases.MaskCached, R.Phases.MaskFresh, R.Phases.HashKey,
                R.Phases.HashFresh, R.Phases.Embed, R.Phases.Decode,
                R.Phases.SimTimed, R.Phases.Measure, R.Phases.PolicyForward,
                R.Phases.PolicyTrainSample, R.Phases.PpoMinibatch);
    Reports.push_back(std::move(R));
  }

  stats::BenchReport Report = buildReport(Reports, Steps, Paper);
  return bench::emitReport(Report, JsonPath) ? 0 : 1;
}
