//===- serve/OptimizationService.cpp -----------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "serve/OptimizationService.h"

#include "support/FileLock.h"
#include "support/Logging.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdio>
#include <exception>

using namespace cuasmrl;
using namespace cuasmrl::serve;

namespace {

/// Completion callbacks run on service-internal threads (or inside
/// admit() for lookup hits); an escaping exception would leak the
/// Outstanding count or terminate the process via the ThreadPool
/// contract, so it is contained and logged instead — the response
/// itself is already published through the future.
void invokeGuarded(const std::function<void(const OptimizeResponse &)> &Cb,
                   const OptimizeResponse &Resp) {
  try {
    Cb(Resp);
  } catch (const std::exception &E) {
    logWarn(std::string("OptimizationService: completion callback threw: ") +
            E.what());
  } catch (...) {
    logWarn("OptimizationService: completion callback threw");
  }
}

double elapsedMs(const support::Clock &C, support::Clock::TimePoint Since) {
  return std::chrono::duration<double, std::milli>(C.now() - Since).count();
}

/// Exact textual rendering of a double (hexfloat): two configs digest
/// equal iff the values are bit-comparable, with no decimal rounding.
void appendField(std::string &Out, double V) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%a,", V);
  Out += Buf;
}
void appendField(std::string &Out, uint64_t V) {
  Out += std::to_string(V);
  Out += ',';
}

void appendMeasure(std::string &Out, const gpusim::MeasureConfig &M) {
  appendField(Out, uint64_t(M.WarmupIters));
  appendField(Out, uint64_t(M.RepeatIters));
  appendField(Out, uint64_t(M.ClearL2BetweenReps));
  appendField(Out, M.NoiseStddev);
  appendField(Out, uint64_t(M.MaxBlocks));
  appendField(Out, M.Seed);
}

/// Digest of every result-relevant OptimizeConfig field. Wall-clock
/// knobs (RolloutWorkers, AutotuneWorkers) are deliberately excluded —
/// the determinism contract makes them irrelevant to the result —
/// as are the runtime-wiring fields the service always controls
/// (SharedCache, PrivateDevice). The stall table IS included (its
/// entries shape the action mask, hence the result): two requests
/// with different tables must never share a job or a deployed cubin.
///
/// TRIPWIRE: when OptimizeConfig (or its nested Ppo/Game/Measure
/// structs) grows a result-relevant field, it MUST be appended here —
/// an omitted field silently aliases distinct deployments to one
/// cache key (wrong cubin served, no error). OptimizeConfig's doc
/// comment points back here.
std::string configDigest(const core::OptimizeConfig &C) {
  std::string Raw;
  Raw.reserve(256);
  for (const auto &[Key, Cycles] : C.Game.Table.entries()) {
    Raw += Key;
    Raw += '=';
    appendField(Raw, uint64_t(Cycles));
  }
  appendField(Raw, C.Ppo.Lr);
  appendField(Raw, C.Ppo.Gamma);
  appendField(Raw, C.Ppo.GaeLambda);
  appendField(Raw, C.Ppo.ClipCoef);
  appendField(Raw, C.Ppo.EntCoef);
  appendField(Raw, C.Ppo.VfCoef);
  appendField(Raw, C.Ppo.MaxGradNorm);
  appendField(Raw, uint64_t(C.Ppo.RolloutLen));
  appendField(Raw, uint64_t(C.Ppo.MiniBatches));
  appendField(Raw, uint64_t(C.Ppo.Epochs));
  appendField(Raw, uint64_t(C.Ppo.TotalSteps));
  appendField(Raw, uint64_t(C.Ppo.NormAdvantage));
  appendField(Raw, uint64_t(C.Ppo.ClipVLoss));
  appendField(Raw, uint64_t(C.Ppo.AnnealLr));
  appendField(Raw, C.Ppo.Seed);
  appendField(Raw, uint64_t(C.Ppo.Channels));
  appendField(Raw, uint64_t(C.Ppo.Hidden));
  appendField(Raw, uint64_t(C.Game.EpisodeLength));
  appendMeasure(Raw, C.Game.Measure);
  appendField(Raw, uint64_t(C.Game.UseActionMasking));
  appendField(Raw, C.Game.InvalidPenalty);
  appendField(Raw, uint64_t(C.Game.CacheMeasurements));
  appendField(Raw, uint64_t(C.Game.RecordTrace));
  appendField(Raw, uint64_t(C.NumEnvs));
  appendField(Raw, uint64_t(C.ProbTestRounds));
  appendMeasure(Raw, C.AutotuneMeasure);
  appendField(Raw, C.AutotuneSeed);
  // The conditioned (generalist) observation format trains a different
  // agent on the same workload, hence a different deployed cubin.
  // (GameConfig::Context itself stays excluded: it is runtime wiring
  // the optimizer derives from the request's own kind/shape/GpuType,
  // all of which already key the deployment.)
  appendField(Raw, uint64_t(C.ConditionEmbedding));
  char Hex[24];
  std::snprintf(Hex, sizeof(Hex), "cfg%016llx",
                static_cast<unsigned long long>(fnv1a64(Raw)));
  return Hex;
}

std::shared_future<ResponsePtr> readyFuture(ResponsePtr Resp) {
  std::promise<ResponsePtr> P;
  P.set_value(std::move(Resp));
  return P.get_future().share();
}

/// Every rejection resolves the ticket's future with a ready
/// Status::Rejected response instead of leaving it invalid — a caller
/// that waits on any ticket's future gets a clean outcome, never a
/// block-forever (or UB) on a defaulted shared_future.
std::shared_future<ResponsePtr> rejectedFuture(std::string Key,
                                               std::string Why,
                                               double WallMs) {
  auto Resp = std::make_shared<OptimizeResponse>();
  Resp->St = OptimizeResponse::Status::Rejected;
  Resp->Key = std::move(Key);
  Resp->Error = std::move(Why);
  Resp->WallMs = WallMs;
  return readyFuture(std::move(Resp));
}

} // namespace

std::string
OptimizationService::requestKey(const OptimizeRequest &R,
                                const core::OptimizeConfig &Defaults) {
  const core::OptimizeConfig &C = R.Config ? *R.Config : Defaults;
  return triton::DeployCache::makeKey(
      R.GpuType, triton::Autotuner::requestKey(R.Kind, R.Shape),
      configDigest(C));
}

OptimizationService::OptimizationService(const gpusim::Gpu &Proto,
                                         ServiceConfig C)
    : Config(std::move(C)), Prototype(Proto),
      Workers(support::ThreadPool::resolveWorkerCount(Config.Workers)),
      Clk(Config.ClockSrc ? Config.ClockSrc : &support::Clock::real()),
      Queue(JobQueue::Options{Config.MaxQueued, Clk, Config.AgingInterval}) {
  if (!Config.DeployDir.empty()) {
    Deploy = std::make_unique<triton::DeployCache>(Config.DeployDir);
    Deploy->setFaultInjector(Config.Faults);
    // Seed the near-miss index from whatever the directory already
    // deploys (meta sidecars); no lock needed before construction ends.
    Index.loadFrom(*Deploy);
  }
  if (!Config.PolicyDir.empty())
    Policies = std::make_unique<PolicyStore>(Config.PolicyDir);
  if (claimsActive()) {
    ClaimToken = support::FileLock::makeToken();
    Heartbeat = std::thread([this] { heartbeatLoop(); });
  }
  Pool = std::make_unique<support::ThreadPool>(Workers);
  if (!Config.StartPaused)
    start();
}

OptimizationService::~OptimizationService() { shutdown(); }

void OptimizationService::start() {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Started || ShutDown)
    return;
  Started = true;
  // The workers are long-running pool tasks: each loops popping jobs
  // until the queue closes. The pool is sized exactly to them, so
  // nothing else may be submitted to it.
  for (unsigned W = 0; W < Workers; ++W)
    Pool->submit([this] { workerLoop(); });
}

void OptimizationService::workerLoop() {
  while (std::optional<JobQueue::Popped> P = Queue.pop()) {
    // Defense in depth: the task lambda already contains every
    // exception (runJob's try spans the whole job body), but a throw
    // escaping here would kill the process via the ThreadPool contract
    // — so the worker loop itself never lets one through.
    try {
      P->Fn(P->Fate);
    } catch (const std::exception &E) {
      logWarn(std::string("OptimizationService: job task escaped: ") +
              E.what());
    } catch (...) {
      logWarn("OptimizationService: job task escaped");
    }
  }
}

Ticket OptimizationService::submit(
    const OptimizeRequest &R,
    std::function<void(const OptimizeResponse &)> OnComplete) {
  return admit(R, std::move(OnComplete), /*Blocking=*/true);
}

Ticket OptimizationService::trySubmit(
    const OptimizeRequest &R,
    std::function<void(const OptimizeResponse &)> OnComplete) {
  return admit(R, std::move(OnComplete), /*Blocking=*/false);
}

template <typename Fn>
bool OptimizationService::withRetry(const std::string &Key,
                                    uint64_t ServiceStats::*Retries,
                                    Fn &&Try) {
  const bool Done = support::retryWithBackoff(
      Config.Retry, *Clk, Config.Seed, fnv1a64(Key), Try, [&](unsigned) {
        std::lock_guard<std::mutex> Lock(Mutex);
        ++(Counters.*Retries);
      });
  if (!Done) {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.RetryExhausted;
  }
  return Done;
}

std::optional<cubin::CubinFile>
OptimizationService::loadWithRetry(const std::string &Key) {
  std::optional<cubin::CubinFile> File;
  if (Deploy)
    withRetry(Key, &ServiceStats::LoadRetries, [&] {
      // Present but unloadable is a corrupt read (or the injector's
      // cache-load-corrupt site): back off and re-read. A genuine miss
      // has nothing to retry.
      File = Deploy->load(Key);
      return File.has_value() || !Deploy->contains(Key);
    });
  return File;
}

std::optional<OptimizationService::NearHit>
OptimizationService::loadNearest(const OptimizeRequest &R,
                                 const std::string &Key) {
  if (!Deploy)
    return std::nullopt;
  std::string NearKey;
  {
    std::lock_guard<std::mutex> IdxLock(IndexMutex);
    const DeployedEntry *E = Index.nearest(R.GpuType, R.Kind, R.Shape, Key);
    if (!E)
      return std::nullopt;
    NearKey = E->Key;
  }
  if (std::optional<cubin::CubinFile> File = Deploy->load(NearKey))
    return NearHit{std::move(NearKey), *std::move(File)};
  return std::nullopt;
}

Ticket OptimizationService::admit(const OptimizeRequest &R,
                                  Callback OnComplete, bool Blocking) {
  const support::Clock::TimePoint Admitted = Clk->now();
  const std::string Key = requestKey(R, Config.Defaults);
  Ticket Tk{Admission::Rejected, Key, {}};
  // File I/O first, never under the lock (a slow filesystem must not
  // stall admissions or job completion): exact key, else nearest sibling.
  std::optional<cubin::CubinFile> Deployed = loadWithRetry(Key);
  std::optional<NearHit> Near;
  if (!Deployed && R.AllowDegraded)
    Near = loadNearest(R, Key);
  std::unique_lock<std::mutex> Lock(Mutex);
  if (!Accepting) {
    ++Counters.Rejected;
    Lock.unlock();
    Tk.Response = rejectedFuture(Key, "service is draining or shut down",
                                 elapsedMs(*Clk, Admitted));
    return Tk;
  }
  ++Counters.Submitted;
  // 1. Lookup hit (§4.2: "a lookup process instead of training").
  if (Deployed) {
    ++Counters.LookupHits;
    ++Outstanding;
    Lock.unlock();
    serveNow(Tk, *std::move(Deployed), "", Admitted, OnComplete);
    return Tk;
  }
  // 2. Attach to the queued or running job for the same key. Attaching
  //    beats degrading: the exact answer is already on its way.
  if (auto It = InFlight.find(Key); It != InFlight.end()) {
    if (OnComplete)
      It->second->Callbacks.push_back(std::move(OnComplete));
    ++Counters.Merged;
    Tk.How = Admission::Attached;
    Tk.Response = It->second->Future;
    return Tk;
  }
  // A new job: a degraded answer's upgrade, or the submitter's own.
  const bool OwnCallback = OnComplete && !Near;
  JobPtr Job = registerJob(R, Key, Admitted, Near.has_value(),
                           OwnCallback ? OnComplete : Callback());
  Lock.unlock();
  const bool Pushed = enqueue(Job, Blocking);
  const char *Why =
      Blocking ? "service shut down during admission" : "queue full";
  if (!Pushed)
    abandonUnqueued(Job, OwnCallback, Why);
  // 3. Degrade: the nearest sibling answers now (a failed push loses
  //    only the background upgrade).
  if (Near) {
    serveNow(Tk, std::move(Near->second), std::move(Near->first), Admitted,
             OnComplete);
    return Tk;
  }
  // 4. Enqueue: the submitter waits on the job.
  Tk.How = Pushed ? Admission::Enqueued : Admission::Rejected;
  Tk.Response = Pushed ? Job->Future
                       : rejectedFuture(Key, Why, elapsedMs(*Clk, Admitted));
  return Tk;
}

void OptimizationService::serveNow(Ticket &Tk, cubin::CubinFile File,
                                   std::string DegradedFrom,
                                   support::Clock::TimePoint Admitted,
                                   const Callback &OnComplete) {
  auto Resp = std::make_shared<OptimizeResponse>();
  const bool Exact = DegradedFrom.empty();
  Resp->St = Exact ? OptimizeResponse::Status::LookupHit
                   : OptimizeResponse::Status::Degraded;
  Resp->Key = Tk.Key;
  Resp->Binary = std::move(File);
  // A hit came from the cache, so it is in it; a degraded answer's
  // exact key is not deployed (yet).
  Resp->Persisted = Exact;
  Resp->DegradedFrom = std::move(DegradedFrom);
  Resp->WallMs = elapsedMs(*Clk, Admitted);
  if (OnComplete)
    invokeGuarded(OnComplete, *Resp);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    --Outstanding;
    Quiesced.notify_all();
  }
  Tk.How = Exact ? Admission::LookupHit : Admission::NearMiss;
  Tk.Response = readyFuture(std::move(Resp));
}

OptimizationService::JobPtr OptimizationService::registerJob(
    const OptimizeRequest &R, const std::string &Key,
    support::Clock::TimePoint Admitted, bool Background,
    Callback OwnCallback) {
  auto Job = std::make_shared<JobState>();
  Job->Request = R;
  Job->Key = Key;
  Job->Admitted = Admitted;
  Job->Background = Background;
  // A background upgrade carries no deadline: its submitter already
  // holds the degraded answer, so the upgrade should land no matter how
  // long it takes. (A negative timeout yields a deadline already in the
  // past; the queue sheds it on the first pop.)
  if (!Background && R.Timeout.count() != 0) {
    Job->Deadline = Admitted + R.Timeout;
    Job->Cancel.setDeadline(*Clk, *Job->Deadline);
  }
  Job->Future = Job->Promise.get_future().share();
  if (OwnCallback)
    Job->Callbacks.push_back(std::move(OwnCallback));
  InFlight.emplace(Key, Job);
  ++Outstanding;
  ++Counters.Enqueued;
  ++Counters.QueuedNow;
  if (Background) {
    ++Counters.DegradedHits;
    ++Outstanding; // Once more, for the degraded answer's window.
  }
  return Job;
}

bool OptimizationService::enqueue(const JobPtr &Job, bool Blocking) {
  // The push happens outside the service lock: a blocking push parks
  // this thread until a worker pops (backpressure), and holding the
  // lock there would deadlock the workers' finishJob().
  JobQueue::Task Task = [this, Job](TaskFate Fate) {
    if (Fate == TaskFate::Run)
      return runJob(Job);
    // Shed from the queue or cancelled by shutdown: resolve unrun.
    const bool Shed = Fate == TaskFate::Expired;
    OptimizeResponse Resp;
    Resp.St = Shed ? OptimizeResponse::Status::DeadlineExceeded
                   : OptimizeResponse::Status::Cancelled;
    Resp.Key = Job->Key;
    Resp.Error = Shed ? "deadline expired before the job started"
                      : "service shut down before the job ran";
    Resp.WallMs = elapsedMs(*Clk, Job->Admitted);
    finishJob(Job, std::move(Resp));
  };
  const int Priority = Job->Request.Priority;
  return Blocking ? Queue.push(std::move(Task), Priority, Job->Deadline)
                  : Queue.tryPush(std::move(Task), Priority, Job->Deadline);
}

void OptimizationService::abandonUnqueued(const JobPtr &Job,
                                          bool OwnCallback,
                                          const std::string &Why) {
  // The job was visible for attaching for a moment, so its future
  // resolves as Cancelled for any attacher — but not for its submitter:
  // a foreground submitter learns the outcome from the Rejected ticket
  // (a rejected admission never fires its own callback, whose copy went
  // in first), and a background job's submitter holds its degraded
  // answer, which still counts as admitted.
  OptimizeResponse Resp;
  Resp.St = OptimizeResponse::Status::Cancelled;
  Resp.Key = Job->Key;
  Resp.Error = Why;
  Resp.WallMs = elapsedMs(*Clk, Job->Admitted);
  std::vector<Callback> Cbs;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    InFlight.erase(Job->Key);
    Cbs = std::move(Job->Callbacks);
    if (OwnCallback)
      Cbs.erase(Cbs.begin());
    --Counters.QueuedNow;
    --Counters.Enqueued;
    if (!Job->Background) {
      --Counters.Submitted;
      ++Counters.Rejected;
    }
  }
  publish(Job, std::make_shared<const OptimizeResponse>(std::move(Resp)),
          std::move(Cbs));
}

void OptimizationService::runJob(const JobPtr &Job) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    --Counters.QueuedNow;
    ++Counters.RunningNow;
    Job->Running = true;
  }
  OptimizeResponse Resp;
  Resp.Key = Job->Key;
  bool Claimed = false;
  // The whole job body — optimizer construction included — runs under
  // the try: anything a job throws becomes a response on that key only,
  // never a dead worker (the ThreadPool submit() contract) and never a
  // stuck single-flight entry.
  try {
    // Cross-process single-flight first: claim the key, or adopt the
    // winner another process deployed while we waited on its claim —
    // an adopted job is a lookup, not an optimize run.
    if (claimsActive())
      Claimed = acquireClaimOrAdopt(Job, Resp);
    if (Claimed || !claimsActive())
      optimizeWithRetry(*Job, Resp);
  } catch (const support::CancelledError &) {
    Resp.St = OptimizeResponse::Status::DeadlineExceeded;
    Resp.Error = "deadline exceeded (cancelled at a checkpoint)";
  } catch (const std::exception &E) {
    Resp.St = OptimizeResponse::Status::Failed;
    Resp.Error = E.what();
  } catch (...) {
    Resp.St = OptimizeResponse::Status::Failed;
    Resp.Error = "unknown exception";
  }
  if (Resp.St == OptimizeResponse::Status::Optimized)
    persist(*Job, Resp);
  // The claim releases only after the persist attempt: a waiter that
  // sees it clear must find either the deployed cubin (adopt) or no
  // claim at all (re-claim and optimize itself).
  if (Claimed)
    releaseClaim(claimPathFor(Job->Key));
  Resp.WallMs = elapsedMs(*Clk, Job->Admitted);
  finishJob(Job, std::move(Resp));
}

std::optional<std::string>
OptimizationService::warmStart(const JobState &Job,
                               std::string &FromKey) const {
  // The stored policy for this exact key (e.g. the cubin store failed
  // last time, or the key was trained under PersistPolicies on another
  // instance), else the nearest trained shape of the same (GpuType,
  // kind).
  if (!Policies)
    return std::nullopt;
  if (std::optional<std::string> Blob = Policies->load(Job.Key)) {
    FromKey = Job.Key;
    return Blob;
  }
  return Policies->nearest(Job.Request.GpuType, Job.Request.Kind,
                           Job.Request.Shape, Job.Key, &FromKey);
}

void OptimizationService::optimizeWithRetry(const JobState &Job,
                                            OptimizeResponse &Resp) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.OptimizeRuns;
  }
  // Only a TransientError retries; any other throw ends the job.
  std::string Transient;
  if (!withRetry(Job.Key, &ServiceStats::JobRetries, [&] {
        try {
          optimize(Job, Resp);
          return true;
        } catch (const support::TransientError &E) {
          Transient = E.what();
          return false;
        }
      }))
    throw std::runtime_error("transient failure, retries exhausted: " +
                             Transient);
}

void OptimizationService::optimize(const JobState &Job,
                                   OptimizeResponse &Resp) {
  const std::string &Key = Job.Key;
  support::FaultInjector *Faults = Config.Faults;
  // Injected slowness first: a planned delay models a job that outlives
  // its deadline — which the checkpoint right after then trips, at any
  // worker count, because the job's own sleep is what moves the (fake)
  // clock past its deadline.
  if (Faults)
    if (uint64_t Delay = Faults->delayMs("job-slow:" + Key))
      Clk->sleepFor(std::chrono::milliseconds(Delay));
  Job.Cancel.checkpoint();
  if (Faults && Faults->shouldFail("job-transient:" + Key))
    throw support::TransientError("injected transient job fault");
  if (Faults && Faults->shouldFail("job-throw:" + Key))
    throw std::runtime_error("injected job fault");

  // The determinism contract: a private pristine device per job and a
  // data stream derived purely from (service seed, request key) — the
  // response never depends on which worker ran the job, what ran before
  // it, or how many workers exist. Warm starts add the policy-store
  // contents at job start to that function (see ServiceConfig::PolicyDir).
  const core::Optimizer Opt(Job.Request.Config ? *Job.Request.Config
                                               : Config.Defaults);
  gpusim::Gpu Local(Prototype);
  Rng DataRng(mixSeed(Config.Seed, fnv1a64(Key)));
  std::string WarmKey;
  std::optional<std::string> WarmBlob = warmStart(Job, WarmKey);
  Resp.Result = Opt.optimize(Local, Job.Request.Kind, Job.Request.Shape,
                             DataRng, &Job.Cancel,
                             WarmBlob ? &*WarmBlob : nullptr,
                             Job.Request.GpuType);
  Resp.St = OptimizeResponse::Status::Optimized;
  Resp.Binary = Resp.Result.Kernel.Binary;
  if (Resp.Result.WarmStartTensors > 0)
    Resp.WarmStartedFrom = std::move(WarmKey);
}

void OptimizationService::persist(const JobState &Job,
                                  OptimizeResponse &Resp) {
  const core::OptimizeResult &Result = Resp.Result;
  const DeployedEntry Entry{Job.Request.GpuType, Job.Request.Kind,
                            Job.Request.Shape, Job.Key};
  // §4.2 write-back: only a verified winner is deployable. Store
  // failures retry under the service policy; a final failure is
  // surfaced (Persisted stays false, stats count it) — never silently
  // dropped.
  if (Deploy && Result.AutotuneValid && Result.Verified) {
    Resp.Persisted = withRetry(Job.Key, &ServiceStats::StoreRetries, [&] {
      return Deploy->store(Job.Key, Resp.Binary);
    });
    if (Resp.Persisted) {
      // Publish the shape sidecar so this key can serve future
      // near-miss lookups (and survive a service restart).
      Deploy->storeMeta(Job.Key, encodeDeployMeta(Entry));
      std::lock_guard<std::mutex> IdxLock(IndexMutex);
      Index.add(Entry);
    } else {
      logWarn("OptimizationService: failed to persist winner for key '" +
              Job.Key + "'");
    }
  }
  // Policy write-back: every successfully trained policy is a future
  // warm-start source — even when the schedule failed verification
  // (the policy's quality is independent of one schedule's
  // probabilistic test).
  if (Policies && Config.PersistPolicies && Result.AutotuneValid &&
      !Result.PolicyBlob.empty()) {
    const bool Stored = Policies->store(Job.Key, Result.PolicyBlob, Entry);
    if (!Stored)
      logWarn("OptimizationService: failed to persist policy for key '" +
              Job.Key + "'");
    std::lock_guard<std::mutex> Lock(Mutex);
    ++(Stored ? Counters.PolicyStores : Counters.PolicyStoreFailures);
  }
}

std::string
OptimizationService::claimPathFor(const std::string &Key) const {
  return Config.DeployDir + "/.claims/" + Key + ".lock";
}

bool OptimizationService::acquireClaimOrAdopt(const JobPtr &Job,
                                              OptimizeResponse &Resp) {
  const std::string Path = claimPathFor(Job->Key);
  bool WaitCounted = false;
  while (true) {
    // The winner may have deployed the key between this job's
    // admission-time lookup and now (or while we polled its claim):
    // adopt its cubin instead of re-optimizing.
    if (Deploy->contains(Job->Key)) {
      if (std::optional<cubin::CubinFile> File = loadWithRetry(Job->Key)) {
        Resp.St = OptimizeResponse::Status::LookupHit;
        Resp.Binary = *std::move(File);
        Resp.Persisted = true;
        std::lock_guard<std::mutex> Lock(Mutex);
        ++Counters.ClaimHits;
        return false;
      }
    }
    if (support::FileLock::tryClaim(Path, ClaimToken)) {
      std::lock_guard<std::mutex> Lock(ClaimMutex);
      HeldClaims.push_back(Path);
      return true;
    }
    // Somebody else owns the claim. Break it when its heartbeat went
    // stale (crashed owner), otherwise wait our turn.
    if (support::FileLock::breakStale(Path, Config.ClaimStaleAfter)) {
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.ClaimBreaks;
      continue;
    }
    if (!WaitCounted) {
      WaitCounted = true;
      std::lock_guard<std::mutex> Lock(Mutex);
      ++Counters.ClaimWaits;
    }
    // Deadline expiry while parked on another process's claim surfaces
    // here as CancelledError — runJob's catch turns it into a
    // DeadlineExceeded response exactly like a mid-job expiry.
    Job->Cancel.checkpoint();
    Clk->sleepFor(Config.ClaimPollInterval);
  }
}

void OptimizationService::releaseClaim(const std::string &Path) {
  {
    std::lock_guard<std::mutex> Lock(ClaimMutex);
    HeldClaims.erase(std::remove(HeldClaims.begin(), HeldClaims.end(), Path),
                     HeldClaims.end());
  }
  support::FileLock::release(Path, ClaimToken);
}

void OptimizationService::heartbeatLoop() {
  const std::chrono::milliseconds Interval =
      std::max(Config.ClaimStaleAfter / 4, std::chrono::milliseconds(1));
  std::unique_lock<std::mutex> Lock(ClaimMutex);
  while (!StopHeartbeat) {
    ClaimCv.wait_for(Lock, Interval, [this] { return StopHeartbeat; });
    if (StopHeartbeat)
      return;
    std::vector<std::string> Held = HeldClaims;
    Lock.unlock();
    for (const std::string &Path : Held)
      support::FileLock::refresh(Path, ClaimToken);
    Lock.lock();
  }
}

void OptimizationService::publish(const JobPtr &Job, ResponsePtr Resp,
                                  std::vector<Callback> Cbs) {
  // Future first (waiters see the result before callbacks run), then
  // the callbacks — both outside the lock so neither can deadlock the
  // service. Only then does the job stop being Outstanding: drain()
  // and shutdown() must never return while a callback is in flight.
  Job->Promise.set_value(Resp);
  for (Callback &Cb : Cbs)
    invokeGuarded(Cb, *Resp);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    --Outstanding;
    Quiesced.notify_all();
  }
}

void OptimizationService::finishJob(const JobPtr &Job, OptimizeResponse R) {
  auto Resp = std::make_shared<const OptimizeResponse>(std::move(R));
  std::vector<Callback> Cbs;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    InFlight.erase(Job->Key);
    Cbs = std::move(Job->Callbacks);
    if (Job->Running)
      --Counters.RunningNow;
    else
      --Counters.QueuedNow;
    Counters.TotalJobWallMs += Resp->WallMs;
    switch (Resp->St) {
    case OptimizeResponse::Status::Optimized:
      ++Counters.Completed;
      Counters.TrainingUpdates += Resp->Result.Training.size();
      Counters.Counters += Resp->Result.RolloutCounters;
      if (Resp->Result.WarmStartTensors > 0) {
        ++Counters.WarmStarts;
        Counters.WarmStartTensors += Resp->Result.WarmStartTensors;
      }
      if (Resp->Persisted) {
        ++Counters.PersistStores;
        if (Job->Background)
          ++Counters.NearMissUpgrades; // The degraded key is now exact.
      } else if (Deploy && Resp->Result.AutotuneValid &&
                 Resp->Result.Verified) {
        ++Counters.PersistFailures; // Attempted and dropped.
      }
      break;
    case OptimizeResponse::Status::Failed:
      ++Counters.Failed;
      break;
    case OptimizeResponse::Status::Cancelled:
      ++Counters.Cancelled;
      break;
    case OptimizeResponse::Status::DeadlineExceeded:
      ++Counters.DeadlineExceeded;
      // Job->Running distinguishes shed-in-queue from cancelled-at-a-
      // checkpoint; their SUM is worker-count invariant (which side of
      // the split a given expiry lands on depends on pop timing).
      if (Job->Running)
        ++Counters.ExpiredMidJob;
      else
        ++Counters.ExpiredInQueue;
      break;
    case OptimizeResponse::Status::LookupHit:
      // Reached only via cross-process claim adoption (accounted in
      // ClaimHits); front-door hits resolve inside admit().
      break;
    case OptimizeResponse::Status::Degraded:
      break; // Immediate admissions never reach finishJob.
    case OptimizeResponse::Status::Rejected:
      break; // Rejections resolve inside admit(); never a job.
    }
  }
  publish(Job, std::move(Resp), std::move(Cbs));
}

void OptimizationService::drain() {
  start(); // A paused service would never quiesce.
  std::unique_lock<std::mutex> Lock(Mutex);
  if (ShutDown)
    return;
  Accepting = false;
  Quiesced.wait(Lock,
                [this] { return InFlight.empty() && Outstanding == 0; });
  if (!ShutDown) // A shutdown() racing the wait wins: stay closed.
    Accepting = true;
}

void OptimizationService::shutdown() {
  // Serialized: a second concurrent shutdown() (or the destructor
  // after an explicit one) blocks until the first completes, then
  // runs through the already-quiesced state as a no-op.
  std::lock_guard<std::mutex> ShutdownLock(ShutdownMutex);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Accepting = false;
    ShutDown = true;
  }
  // Close the queue: workers wake, drain nothing further, and exit;
  // never-started jobs come back for explicit cancellation so every
  // outstanding future resolves.
  std::vector<JobQueue::Task> Unstarted = Queue.close();
  for (JobQueue::Task &Task : Unstarted)
    Task(TaskFate::Cancelled);
  {
    std::unique_lock<std::mutex> Lock(Mutex);
    Quiesced.wait(Lock,
                  [this] { return InFlight.empty() && Outstanding == 0; });
  }
  Pool.reset(); // Joins the (now exiting) worker loops.
  if (Heartbeat.joinable()) {
    // After the pool joined no job holds a claim; stop the heartbeat.
    {
      std::lock_guard<std::mutex> Lock(ClaimMutex);
      StopHeartbeat = true;
    }
    ClaimCv.notify_all();
    Heartbeat.join();
  }
}

bool OptimizationService::accepting() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Accepting;
}

ServiceStats OptimizationService::stats() const {
  // The directory enumeration happens before taking the service lock:
  // a slow filesystem must not stall admissions or job completion.
  uint64_t Deployed = Deploy ? Deploy->keys().size() : 0;
  uint64_t Fired = Config.Faults ? Config.Faults->totalFired() : 0;
  std::lock_guard<std::mutex> Lock(Mutex);
  ServiceStats Snapshot = Counters;
  Snapshot.DeployedKeys = Deployed;
  Snapshot.FaultsInjected = Fired;
  return Snapshot;
}
