//===- perfbench/src/TracedRun.cpp ----------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "TracedRun.h"

#include "core/GameEnvAdapter.h"
#include "core/Optimizer.h"
#include "net/Wire.h"
#include "rl/Ppo.h"
#include "rl/RolloutRunner.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "triton/DeployCache.h"

#include <chrono>
#include <memory>
#include <stdexcept>

using namespace cuasmrl;

namespace perfbench {

namespace {

/// Replay budget: every cold request of cold-zoo's first round (one
/// per kind) and enough hits for stable per-call means.
constexpr size_t kMaxTracedCold = 6;
constexpr size_t kMaxTracedHits = 2000;

using SteadyClock = std::chrono::steady_clock;

double secondsSince(SteadyClock::time_point T0) {
  return std::chrono::duration<double>(SteadyClock::now() - T0).count();
}

/// Splits every env step into its env and gpusim halves, so a step's
/// time lands on the layer that spent it: beginStep / finishStep (env)
/// around measureBatch (gpusim). Forwards the lockstep surface of the
/// wrapped adapter unchanged, so results are bit-identical to it.
class TracedEnv : public rl::Env, public rl::LockstepEnv {
public:
  TracedEnv(std::unique_ptr<core::GameEnvAdapter> Inner, Tracer *T,
            uint64_t &Steps)
      : Inner(std::move(Inner)), T(T), Steps(Steps) {}

  std::vector<float> reset() override {
    Tracer::Scope S(T, "env.reset");
    return Inner->reset();
  }
  rl::EnvStep step(unsigned Action) override {
    beginStep(Action);
    measureBatch({this});
    return finishStep();
  }
  std::vector<uint8_t> actionMask() override { return Inner->actionMask(); }
  unsigned actionCount() const override { return Inner->actionCount(); }
  size_t obsRows() const override { return Inner->obsRows(); }
  size_t obsFeatures() const override { return Inner->obsFeatures(); }
  rl::LockstepEnv *lockstep() override { return this; }

  void beginStep(unsigned Action) override {
    Tracer::Scope S(T, "env.begin_step");
    ++Steps;
    Inner->beginStep(Action);
  }
  void measureBatch(const std::vector<rl::LockstepEnv *> &Pending) override {
    Tracer::Scope S(T, "gpusim.measure_batch");
    std::vector<rl::LockstepEnv *> Unwrapped;
    Unwrapped.reserve(Pending.size());
    for (rl::LockstepEnv *P : Pending) {
      auto *Traced = dynamic_cast<TracedEnv *>(P);
      Unwrapped.push_back(Traced ? Traced->Inner.get() : P);
    }
    Inner->measureBatch(Unwrapped);
  }
  rl::EnvStep finishStep() override {
    Tracer::Scope S(T, "env.finish_step");
    return Inner->finishStep();
  }

private:
  std::unique_ptr<core::GameEnvAdapter> Inner;
  Tracer *T;
  uint64_t &Steps;
};

/// The wire round trip around a replayed request: client encode and
/// server decode before, server encode and client decode after.
serve::OptimizeRequest wireIn(Tracer *T, const serve::OptimizeRequest &Req,
                              uint64_t Id) {
  std::vector<uint8_t> Frame;
  {
    Tracer::Scope S(T, "net.encode_request");
    Frame = net::encodeRequestFrame(Req, Id);
  }
  Tracer::Scope S(T, "net.decode_request");
  Expected<serve::OptimizeRequest> Decoded = net::decodeRequestPayload(
      Frame.data() + net::kHeaderSize, Frame.size() - net::kHeaderSize);
  if (!Decoded)
    throw std::runtime_error("request frame does not decode: " +
                             Decoded.error().message());
  return Decoded.takeValue();
}

void wireOut(Tracer *T, const serve::OptimizeResponse &Resp, uint64_t Id) {
  std::vector<uint8_t> Frame;
  {
    Tracer::Scope S(T, "net.encode_response");
    Frame = net::encodeResponseFrame(net::summarizeResponse(Resp), Id);
  }
  Tracer::Scope S(T, "net.decode_response");
  if (!net::decodeResponsePayload(Frame.data() + net::kHeaderSize,
                                  Frame.size() - net::kHeaderSize))
    throw std::runtime_error("response frame does not decode");
}

uint64_t serviceDataSeed(const std::string &Key) {
  // The per-job data stream of serve::OptimizationService under the
  // default service seed, which serve_daemon keeps.
  return mixSeed(serve::ServiceConfig().Seed, fnv1a64(Key));
}

struct ColdOut {
  double TritonUs = 0.0;
  double OptimizedUs = 0.0;
  bool Verified = false;
  std::vector<uint8_t> Binary;
};

/// One cold request through the layers, mirroring
/// core::Optimizer::optimize plus the service's lookup and persist.
ColdOut replayCold(Tracer *T, const serve::OptimizeRequest &Req, uint64_t Id,
                   const triton::DeployCache &Lookup,
                   triton::DeployCache &Store, TracedResult &Acc) {
  if (T)
    T->setRequest(Id);
  Tracer::Scope Root(T, "request");
  const serve::OptimizeRequest R = wireIn(T, Req, Id);
  const std::string Key = keyOf(R);
  {
    Tracer::Scope S(T, "triton.deploy_miss");
    (void)Lookup.load(Key);
  }
  const core::OptimizeConfig Config = R.Config ? *R.Config
                                               : core::OptimizeConfig();
  gpusim::Gpu Device;
  Rng DataRng(serviceDataSeed(Key));

  triton::AutotuneOptions Opts;
  Opts.Measure = Config.AutotuneMeasure;
  Opts.Workers = Config.AutotuneWorkers;
  Opts.BaseSeed = Config.AutotuneSeed;
  triton::AutotuneResult Tuned;
  {
    Tracer::Scope S(T, "triton.autotune");
    Tuned = triton::Autotuner(Opts).tune(Device, R.Kind, R.Shape);
  }
  if (!Tuned.Valid)
    throw std::runtime_error("no valid configuration for " + Key);
  triton::CompiledKernel Compiled;
  {
    Tracer::Scope S(T, "triton.compile");
    Compiled =
        triton::compileKernel(Device, R.Kind, R.Shape, Tuned.Best, DataRng);
    if (!triton::interceptCubin(Compiled))
      throw std::runtime_error("cubin does not disassemble for " + Key);
  }

  std::shared_ptr<gpusim::MeasurementCache> Cache;
  if (Config.Game.CacheMeasurements)
    Cache =
        std::make_shared<gpusim::MeasurementCache>(Config.Game.Measure.Seed);
  const unsigned NumEnvs = std::max(1u, Config.NumEnvs);
  std::vector<std::unique_ptr<rl::Env>> Envs;
  std::vector<env::AssemblyGame *> Games;
  for (unsigned E = 0; E < NumEnvs; ++E) {
    env::GameConfig GC = Config.Game;
    GC.SharedCache = Cache;
    GC.RecordTrace = false;
    GC.PrivateDevice = NumEnvs > 1;
    std::unique_ptr<env::AssemblyGame> Game;
    {
      Tracer::Scope S(T, "env.game_init");
      Game = std::make_unique<env::AssemblyGame>(Device, Compiled.Runtime,
                                                 GC);
    }
    Games.push_back(Game.get());
    Envs.push_back(std::make_unique<TracedEnv>(
        std::make_unique<core::GameEnvAdapter>(std::move(Game)), T,
        Acc.EnvSteps));
  }

  // Serial rollouts (results are identical for any worker count).
  rl::RolloutConfig RC;
  RC.Workers = 1;
  RC.Seed = Config.Ppo.Seed;
  rl::RolloutRunner Runner(std::move(Envs), RC);
  rl::PpoTrainer Trainer(Runner, Config.Ppo);
  for (size_t Steps = 0; Steps < Config.Ppo.TotalSteps;) {
    rl::TrajectoryBatch Batch;
    {
      Tracer::Scope S(T, "rl.collect");
      Batch = Runner.collect(Trainer.net(), Config.Ppo.RolloutLen);
    }
    Steps += Batch.totalSteps();
    Tracer::Scope S(T, "rl.update");
    Trainer.updateFromBatch(Batch);
  }

  // Best schedule across games, then the greedy replay (§5.7).
  env::AssemblyGame *Best = Games.front();
  for (env::AssemblyGame *G : Games)
    if (G->bestTimeUs() < Best->bestTimeUs())
      Best = G;
  ColdOut Out;
  Out.TritonUs = Best->initialTimeUs();
  Out.OptimizedUs = Best->bestTimeUs();
  sass::Program OptimizedProg = Best->best();
  Best->setTraceRecording(Config.Game.RecordTrace);
  {
    Tracer::Scope S(T, "rl.greedy_replay");
    TracedEnv Probe(std::make_unique<core::GameEnvAdapter>(*Best), T,
                    Acc.EnvSteps);
    Trainer.playGreedy(Probe, Config.Game.EpisodeLength);
  }
  if (Best->bestTimeUs() < Out.OptimizedUs) {
    Out.OptimizedUs = Best->bestTimeUs();
    OptimizedProg = Best->best();
  }
  if (Cache) {
    Acc.Sims += Cache->misses();
    Acc.SimCacheHits += Cache->hits();
  }

  {
    Tracer::Scope S(T, "triton.probtest");
    Out.Verified = triton::probabilisticTest(
        Device, Compiled.Runtime, Compiled.Runtime.Prog, OptimizedProg,
        Config.ProbTestRounds, DataRng);
  }
  serve::OptimizeResponse Resp;
  if (Out.Verified) {
    {
      Tracer::Scope S(T, "triton.substitute");
      triton::substituteSchedule(Compiled, OptimizedProg);
    }
    Tracer::Scope S(T, "triton.deploy_store");
    Resp.Persisted = Store.store(Key, Compiled.Binary);
  }
  Resp.St = serve::OptimizeResponse::Status::Optimized;
  Resp.Key = Key;
  Resp.Binary = Compiled.Binary;
  Resp.Result.TritonUs = Out.TritonUs;
  Resp.Result.OptimizedUs = Out.OptimizedUs;
  Resp.Result.Verified = Out.Verified;
  wireOut(T, Resp, Id);
  Out.Binary = Compiled.Binary.serialize();
  return Out;
}

/// One hit through the layers: wire in, deploy-cache load, wire out.
void replayHit(Tracer *T, const serve::OptimizeRequest &Req, uint64_t Id,
               const triton::DeployCache &Lookup) {
  if (T)
    T->setRequest(Id);
  Tracer::Scope Root(T, "request");
  const serve::OptimizeRequest R = wireIn(T, Req, Id);
  serve::OptimizeResponse Resp;
  Resp.Key = keyOf(R);
  std::optional<cubin::CubinFile> File;
  {
    Tracer::Scope S(T, "triton.deploy_load");
    File = Lookup.load(Resp.Key);
  }
  if (!File)
    throw std::runtime_error("deployed key missing: " + Resp.Key);
  Resp.St = serve::OptimizeResponse::Status::LookupHit;
  Resp.Binary = *std::move(File);
  wireOut(T, Resp, Id);
}

} // namespace

TracedResult runTraced(const Plan &P, const std::string &DeployDir,
                       const std::string &ScratchDeployDir) {
  TracedResult Out;
  Tracer Trace;
  const triton::DeployCache Lookup(DeployDir);
  triton::DeployCache Store(ScratchDeployDir);

  std::vector<const serve::OptimizeRequest *> Cold, Hits;
  for (const PlannedRequest &Q : P.Requests)
    if (Q.Class == ReqClass::Cold && Cold.size() < kMaxTracedCold)
      Cold.push_back(&Q.Req);
  for (size_t I = 0; I < P.Hits.size() && Hits.size() < kMaxTracedHits; ++I)
    Hits.push_back(&P.Hits[I]);

  uint64_t Id = 0;
  // Traced and untraced passes alternate request by request, so drift
  // in the machine's speed hits both sides alike.
  for (const serve::OptimizeRequest *R : Cold) {
    SteadyClock::time_point T0 = SteadyClock::now();
    ColdOut Traced = replayCold(&Trace, *R, ++Id, Lookup, Store, Out);
    Out.TracedWallS += secondsSince(T0);

    const core::OptimizeConfig Config = *R->Config;
    gpusim::Gpu Device;
    Rng DataRng(serviceDataSeed(keyOf(*R)));
    T0 = SteadyClock::now();
    core::OptimizeResult Plain =
        core::Optimizer(Config).optimize(Device, R->Kind, R->Shape, DataRng);
    const double PlainS = secondsSince(T0);
    Out.OptimizeS.push_back(PlainS);
    Out.UntracedWallS += PlainS;
    ++Out.ReplayCompared;
    if (Plain.TritonUs == Traced.TritonUs &&
        Plain.OptimizedUs == Traced.OptimizedUs &&
        Plain.Verified == Traced.Verified &&
        Plain.Kernel.Binary.serialize() == Traced.Binary)
      ++Out.ReplayMatches;
  }
  for (const serve::OptimizeRequest *R : Hits) {
    SteadyClock::time_point T0 = SteadyClock::now();
    replayHit(&Trace, *R, ++Id, Lookup);
    Out.TracedWallS += secondsSince(T0);
    T0 = SteadyClock::now();
    replayHit(nullptr, *R, Id, Lookup);
    Out.UntracedWallS += secondsSince(T0);
  }

  if (!Hits.empty()) {
    serve::ServiceConfig SC;
    SC.DeployDir = DeployDir;
    serve::OptimizationService Service(gpusim::Gpu(), SC);
    for (const serve::OptimizeRequest *R : Hits) {
      Trace.setRequest(++Id);
      Tracer::Scope S(&Trace, "serve.inproc_hit");
      serve::Ticket Tk = Service.submit(*R);
      Tk.Response.get();
    }
    Service.shutdown();
  }
  Out.Spans = Trace.spans();
  return Out;
}

} // namespace perfbench
