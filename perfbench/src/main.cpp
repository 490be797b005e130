//===- perfbench/src/main.cpp - End-to-end serve_daemon benchmark ---------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// One run of one workload against examples/serve_daemon:
//
//   perfbench --workload cold-zoo|warm-lookup|mixed-churn --seed N
//             --seconds S --trace 0|1 --daemon PATH --work-dir DIR
//             [--spans PATH]
//
//   1. generate the workload's requests from the seed;
//   2. deploy its pre-deployed keys (untimed, in-process);
//   3. spawn the daemon several times over that deploy dir and take
//      the median time to its first accepted connection (setup_s);
//   4. drive the last daemon over TCP with net::Client, wait until it
//      is idle, sample /proc, stop it and read its final stats line;
//   5. check every served binary and measure its honest speedup;
//   6. with --trace 1, replay the requests in-process under spans.
//
// The last line of stdout is one JSON object: correct, attempted,
// failed and the metrics (end-to-end with --trace 0, per-layer with
// --trace 1). A human summary goes to stderr. See perfbench/METRICS.md.
//
//===----------------------------------------------------------------------===//

#include "Checker.h"
#include "Daemon.h"
#include "LoadGen.h"
#include "Stats.h"
#include "Tally.h"
#include "Trace.h"
#include "TracedRun.h"
#include "Workloads.h"

#include "stats/Json.h"
#include "support/Rng.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <thread>

using namespace cuasmrl;
using namespace perfbench;

namespace {

/// Daemon spawns per run; setup_s is their median.
constexpr unsigned kSetupSpawns = 15;
/// Hit connections of the timed closed loops, and the saturation
/// phase's pipelining depth per connection.
constexpr unsigned kHitConns = 2;
constexpr unsigned kSaturationDepth = 16;
/// A run is invalid when the generator fell behind its schedule: the
/// median open-loop hit left more than 1 ms late, or the median miss
/// more than 500 ms late (a miss connection waits for each job it
/// sent). Medians, because host stalls make single sends late.
constexpr double kHitLatenessBoundUs = 1000.0;
constexpr double kMissLatenessBoundUs = 500000.0;
/// Hit-latency statistics are medians over windows of this length, so
/// one host stall moves one window only.
constexpr double kWindowUs = 250000.0;
/// Hit throughput is the mean over 250 ms slices without the lowest and
/// highest tenth: host stalls drop out, and slices with and without a
/// running job keep their true mix (a median would flip between them).
constexpr double kTrim = 0.1;
/// Threads for the in-process deploy and the output check.
constexpr unsigned kHelperThreads = 3;

struct Args {
  Workload W = Workload::ColdZoo;
  uint64_t Seed = 1;
  unsigned Seconds = 40;
  bool Trace = false;
  std::string DaemonPath;
  std::string WorkDir;
  std::string SpansPath;
};

int usage() {
  std::cerr << "usage: perfbench --workload cold-zoo|warm-lookup|mixed-churn"
               " --seed N --seconds S --trace 0|1 --daemon PATH"
               " --work-dir DIR [--spans PATH]\n";
  return 2;
}

std::optional<Args> parseArgs(int argc, char **argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      return std::nullopt;
    std::string V = argv[++I];
    if (Arg == "--workload") {
      std::optional<Workload> W = parseWorkload(V);
      if (!W)
        return std::nullopt;
      A.W = *W;
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      A.Seed = std::strtoull(V.c_str(), nullptr, 10);
    } else if (Arg == "--seconds") {
      A.Seconds = static_cast<unsigned>(std::max(1, std::atoi(V.c_str())));
    } else if (Arg == "--trace") {
      A.Trace = V == "1";
    } else if (Arg == "--daemon") {
      A.DaemonPath = V;
    } else if (Arg == "--work-dir") {
      A.WorkDir = V;
    } else if (Arg == "--spans") {
      A.SpansPath = V;
    } else {
      return std::nullopt;
    }
  }
  if (!HaveWorkload || A.DaemonPath.empty() || A.WorkDir.empty())
    return std::nullopt;
  return A;
}

/// Metric name -> (value, unit), in insertion order.
class Metrics {
public:
  void add(const std::string &Name, double Value, const std::string &Unit) {
    Entries.emplace_back(Name, std::make_pair(Value, Unit));
  }
  stats::JsonValue json() const {
    stats::JsonValue Obj = stats::JsonValue::object();
    for (const auto &[Name, VU] : Entries) {
      stats::JsonValue M = stats::JsonValue::object();
      M.set("value", VU.first);
      M.set("unit", VU.second);
      Obj.set(Name, std::move(M));
    }
    return Obj;
  }
  void print(std::ostream &OS) const {
    for (const auto &[Name, VU] : Entries)
      OS << "  " << Name << " = " << VU.first << " " << VU.second << "\n";
  }

private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      Entries;
};

/// Deploys \p Keys through an in-process service over \p DeployDir and
/// returns each key's reported (Triton, optimized) times.
Expected<std::map<std::string, std::pair<double, double>>>
deployKeys(const std::vector<serve::OptimizeRequest> &Keys,
           const std::string &DeployDir) {
  serve::ServiceConfig SC;
  SC.DeployDir = DeployDir;
  SC.Workers = kHelperThreads;
  gpusim::Gpu Device;
  serve::OptimizationService Service(Device, SC);
  std::vector<serve::Ticket> Tickets;
  for (const serve::OptimizeRequest &R : Keys)
    Tickets.push_back(Service.submit(R));
  std::map<std::string, std::pair<double, double>> Reported;
  for (serve::Ticket &T : Tickets) {
    serve::ResponsePtr R = T.Response.get();
    if (R->St != serve::OptimizeResponse::Status::Optimized || !R->Persisted)
      return Error("could not deploy " + T.Key + ": " + R->Error);
    Reported[R->Key] = {R->Result.TritonUs, R->Result.OptimizedUs};
  }
  Service.shutdown();
  return Reported;
}

/// Little's law over the stats log: the time integral of the queue
/// length divided by the jobs that entered the queue.
double queueWaitMs(const std::vector<DaemonStats> &Log) {
  double AreaJobMs = 0.0;
  for (size_t I = 1; I < Log.size(); ++I)
    AreaJobMs += static_cast<double>(Log[I - 1].Service.QueuedNow) *
                 (Log[I].ElapsedMs - Log[I - 1].ElapsedMs);
  const uint64_t Enqueued = Log.empty() ? 0 : Log.back().Service.Enqueued;
  return Enqueued ? AreaJobMs / static_cast<double>(Enqueued) : 0.0;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

/// Per-layer metrics from the traced replay; spans without a metric
/// still contribute to the unattributed remainder.
void addTracedMetrics(Metrics &M, const TracedResult &T) {
  std::map<std::string, SpanTotals> Totals = aggregate(T.Spans);
  auto SelfMean = [&](const char *Span, double Scale) {
    auto It = Totals.find(Span);
    return It == Totals.end() || It->second.Count == 0
               ? 0.0
               : It->second.SelfUs / Scale /
                     static_cast<double>(It->second.Count);
  };
  auto Count = [&](const char *Span) {
    auto It = Totals.find(Span);
    return It == Totals.end() ? 0.0 : static_cast<double>(It->second.Count);
  };
  struct Row {
    const char *Span;
    const char *Metric;
    const char *Unit;
    double Scale; ///< Microseconds per unit.
  };
  static const Row Rows[] = {
      {"net.encode_request", "net.client_encode_us", "us", 1.0},
      {"net.decode_request", "net.server_decode_us", "us", 1.0},
      {"net.encode_response", "net.server_encode_us", "us", 1.0},
      {"net.decode_response", "net.client_decode_us", "us", 1.0},
      {"triton.deploy_load", "triton.deploy_load_us", "us", 1.0},
      {"triton.deploy_miss", "triton.deploy_miss_us", "us", 1.0},
      {"triton.autotune", "triton.autotune_ms", "ms", 1e3},
      {"triton.compile", "triton.compile_ms", "ms", 1e3},
      {"triton.probtest", "triton.probtest_ms", "ms", 1e3},
      {"triton.substitute", "triton.substitute_ms", "ms", 1e3},
      {"triton.deploy_store", "triton.deploy_store_ms", "ms", 1e3},
      {"env.game_init", "env.game_init_ms", "ms", 1e3},
      {"env.reset", "env.reset_us", "us", 1.0},
      {"env.begin_step", "env.begin_step_us", "us", 1.0},
      {"env.finish_step", "env.finish_step_us", "us", 1.0},
      {"gpusim.measure_batch", "gpusim.measure_us_per_step", "us", 1.0},
      {"rl.collect", "rl.collect_self_ms", "ms", 1e3},
      {"rl.update", "rl.update_ms", "ms", 1e3},
      {"rl.greedy_replay", "rl.greedy_replay_self_ms", "ms", 1e3},
      {"request", "core.unattributed_ms", "ms", 1e3},
  };
  for (const Row &R : Rows) {
    M.add(R.Metric, SelfMean(R.Span, R.Scale), R.Unit);
    M.add(std::string(R.Span) + ".count", Count(R.Span), "count");
  }
  M.add("rl.updates", Count("rl.update"), "count");

  auto Total = [&](const char *Span) {
    auto It = Totals.find(Span);
    return It == Totals.end() ? 0.0 : It->second.TotalUs;
  };
  const double StepUs = Total("env.begin_step") +
                        Total("gpusim.measure_batch") +
                        Total("env.finish_step");
  M.add("env.steps_per_s",
        ratio(static_cast<double>(T.EnvSteps), StepUs / 1e6), "1/s");
  M.add("gpusim.sims", static_cast<double>(T.Sims), "count");
  M.add("gpusim.traced_cache_hit_ratio",
        ratio(static_cast<double>(T.SimCacheHits),
              static_cast<double>(T.SimCacheHits + T.Sims)),
        "ratio");
  M.add("gpusim.us_per_sim",
        ratio(Total("gpusim.measure_batch"), static_cast<double>(T.Sims)),
        "us");

  std::vector<double> InprocHitUs;
  for (const Span &S : T.Spans)
    if (S.Name == "serve.inproc_hit")
      InprocHitUs.push_back(S.durationUs());
  M.add("serve.inproc_hit_us_p50", median(InprocHitUs), "us");
  M.add("serve.inproc_hit.count", static_cast<double>(InprocHitUs.size()),
        "count");

  M.add("core.optimize_s", mean(T.OptimizeS), "s");
  M.add("core.trace_overhead_ratio", ratio(T.TracedWallS, T.UntracedWallS),
        "ratio");
  M.add("core.replay_match_ratio",
        ratio(T.ReplayMatches, static_cast<double>(T.ReplayCompared)),
        "ratio");
}

/// Disjoint CPU sets for the daemon and the load generator, so neither
/// steals the other's cores: the daemon gets one CPU per busy thread
/// (its optimizer workers plus the poll thread), the generator the
/// rest. Empty sets (no pinning) on machines with fewer than 4 CPUs.
std::pair<CpuSet, CpuSet> cpuSplit(const Plan &P) {
  const int Cpus = static_cast<int>(std::thread::hardware_concurrency());
  if (Cpus < 4)
    return {};
  const int DaemonCpus = P.W == Workload::ColdZoo ? 3 : 2;
  CpuSet Daemon, Client;
  for (int C = 0; C < 4; ++C)
    (C >= 4 - DaemonCpus ? Daemon : Client).push_back(C);
  return {Daemon, Client};
}

int fail(const std::string &Why) {
  std::cerr << "perfbench: " << Why << "\n";
  return 1;
}

int run(const Args &A) {
  namespace fs = std::filesystem;
  const Plan P = makePlan(A.W, A.Seed, A.Seconds);
  const fs::path Work = fs::path(A.WorkDir);
  fs::remove_all(Work);
  fs::create_directories(Work);
  const std::string DeployDir = (Work / "deploy").string();
  const auto [DaemonCpus, ClientCpus] = cpuSplit(P);

  // Every key the run can serve, mapped to the request that produced it.
  std::map<std::string, serve::OptimizeRequest> Specs;
  for (const serve::OptimizeRequest &R : P.Deployed)
    Specs.emplace(keyOf(R), R);
  for (const PlannedRequest &Q : P.Requests)
    Specs.emplace(keyOf(Q.Req), Q.Req);

  std::map<std::string, std::pair<double, double>> Reported;
  if (!P.Deployed.empty()) {
    auto Deployed = deployKeys(P.Deployed, DeployDir);
    if (!Deployed)
      return fail(Deployed.error().message());
    Reported = *Deployed;
  }

  // Set-up: spawn, first accepted connection, stop — the last spawn
  // stays up for the measured phase.
  DaemonOptions DO;
  DO.Binary = A.DaemonPath;
  DO.DeployDir = DeployDir;
  DO.Workers = P.DaemonWorkers;
  DO.Cpus = DaemonCpus;
  DO.OutputLog = (Work / "daemon.log").string();
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  for (unsigned I = 0; I < kSetupSpawns; ++I) {
    DO.StatsLog = (Work / ("stats-" + std::to_string(I) + ".jsonl")).string();
    D = std::make_unique<Daemon>(DO);
    Expected<double> S = D->start();
    if (!S)
      return fail(S.error().message());
    SetupS.push_back(*S);
    if (I + 1 < kSetupSpawns)
      if (Expected<DaemonStats> Stopped = D->stop(std::chrono::seconds(30));
          !Stopped)
        return fail(Stopped.error().message());
  }

  // The measured phases.
  PhaseResult List;
  TimedResult Seq, Sat;
  auto HitRounds = [&] {
    for (unsigned C = 0; C < P.Cycles; ++C) {
      Seq.append(runTimedLoop(D->port(), P.Hits, kHitConns, 1, P.SequentialS,
                              ClientCpus));
      Sat.append(runTimedLoop(D->port(), P.Hits, kHitConns, kSaturationDepth,
                              P.SaturationS, ClientCpus));
    }
  };
  switch (P.W) {
  case Workload::ColdZoo:
    List = runClosedLoop(D->port(), P.Requests, P.ListConnections,
                         ClientCpus);
    break;
  case Workload::WarmLookup:
    List = runOpenLoop(D->port(), P.Requests, P.ListConnections, ClientCpus);
    HitRounds();
    break;
  case Workload::MixedChurn: {
    // The miss schedule runs beside the hit rounds.
    std::thread Misses([&] {
      List = runOpenLoop(D->port(), P.Requests, P.ListConnections,
                         ClientCpus);
    });
    HitRounds();
    Misses.join();
    break;
  }
  }
  if (Expected<bool> Idle = D->waitIdle(std::chrono::seconds(60)); !Idle)
    return fail(Idle.error().message());
  Expected<ProcSample> Proc = D->sample();
  if (!Proc)
    return fail(Proc.error().message());
  Expected<DaemonStats> Final = D->stop(std::chrono::seconds(60));
  if (!Final)
    return fail(Final.error().message());
  Expected<std::vector<DaemonStats>> Log = readAllStats(DO.StatsLog);
  if (!Log)
    return fail(Log.error().message());

  // Output check and honest speedup, with a seed the daemon never saw.
  // A key whose binary differed between responses is bad as a whole.
  BinaryMap Binaries = std::move(List.Binaries);
  std::set<std::string> BadKeys = std::move(List.Mismatched);
  for (TimedResult *T : {&Seq, &Sat}) {
    BadKeys.insert(T->Mismatched.begin(), T->Mismatched.end());
    mergeBinaries(Binaries, std::move(T->Binaries), BadKeys);
  }
  for (const std::string &Key : BadKeys)
    std::cerr << "perfbench: responses for " << Key
              << " carried different binaries\n";
  const uint64_t HeldOutSeed = mixSeed(A.Seed, 0x68656c646f7574ull);
  std::vector<KeyCheck> Checks =
      checkBinaries(Binaries, Specs, HeldOutSeed, kHelperThreads);
  std::vector<double> Measured;
  for (const KeyCheck &C : Checks) {
    if (C.Ok && !BadKeys.count(C.Key)) {
      Measured.push_back(C.speedup());
      continue;
    }
    if (!C.Ok)
      std::cerr << "perfbench: check failed for " << C.Key << ": " << C.Why
                << "\n";
    BadKeys.insert(C.Key);
  }

  // Request outcomes, failures counted per class.
  const Tally Count = tallyRequests(P.Requests, List.Outcomes, {&Seq, &Sat},
                                    BadKeys);
  for (size_t C = 0; C < kFailClasses; ++C)
    if (Count.FailedBy[C])
      std::cerr << "perfbench: " << Count.FailedBy[C] << " "
                << failClassName(static_cast<FailClass>(C))
                << " requests failed\n";
  uint64_t ListOk = 0;
  bool FirstFailure = true;
  // Send lateness of the open loops' hits and scheduled misses.
  std::vector<double> HitLatenessUs, MissLatenessUs;
  std::vector<double> OverheadUs = Seq.OverheadUs;
  // (due us, ms) of the listed hits and cold requests.
  std::vector<std::pair<double, double>> HitLatencyMs, ColdLatencyMs;
  std::map<net::WireStatus, std::vector<double>> WallByStatus;
  WallByStatus[net::WireStatus::LookupHit] = Seq.WallMs;
  std::set<std::string> MissKeys;
  for (size_t I = 0; I < P.Requests.size(); ++I) {
    const PlannedRequest &Q = P.Requests[I];
    const Outcome &O = List.Outcomes[I];
    if (Q.Class == ReqClass::Cold || Q.Class == ReqClass::NearMiss)
      MissKeys.insert(keyOf(Q.Req));
    if (!Count.ListedOk[I]) {
      if (FirstFailure)
        std::cerr << "perfbench: first failed request: "
                  << (!O.Done            ? O.Transport
                      : O.BinaryMismatch ? std::string("binary differs")
                                         : net::statusName(O.St))
                  << " (" << failClassName(classOf(Q.Class)) << ")\n";
      FirstFailure = false;
      continue;
    }
    ++ListOk;
    (Q.Class == ReqClass::Hit ? HitLatenessUs : MissLatenessUs)
        .push_back(O.SentUs - O.DueUs);
    OverheadUs.push_back(O.DoneUs - O.SentUs - O.WallMs * 1e3);
    WallByStatus[O.St].push_back(O.WallMs);
    if (Q.Class == ReqClass::Cold || Q.Class == ReqClass::Hit)
      (Q.Class == ReqClass::Hit ? HitLatencyMs : ColdLatencyMs)
          .emplace_back(O.DueUs, (O.DoneUs - O.DueUs) / 1e3);
  }
  // Over every listed send: warm-lookup's hits, mixed-churn's misses.
  std::vector<double> LatenessUs = HitLatenessUs;
  LatenessUs.insert(LatenessUs.end(), MissLatenessUs.begin(),
                    MissLatenessUs.end());
  const double LatenessP99 = percentile(std::move(LatenessUs), 990);
  const bool GeneratorOk =
      median(HitLatenessUs) <= kHitLatenessBoundUs &&
      median(MissLatenessUs) <= kMissLatenessBoundUs;
  if (!GeneratorOk)
    std::cerr << "perfbench: the open loop fell behind its schedule\n";
  RunChecks RC;
  RC.CheckedKeys = Checks.size();
  RC.BadKeys = BadKeys.size();
  RC.GeneratorOk = GeneratorOk;

  // The headline latency: cold requests on cold-zoo (one window), the
  // waiting callers' hits elsewhere (medians over 250 ms windows).
  const bool Cold = P.W == Workload::ColdZoo;
  const std::vector<std::pair<double, double>> &Headline =
      Cold ? ColdLatencyMs : Seq.LatencyMs;
  const double SpanUs = (Cold ? List.WallS : Seq.WallS) * 1e6;
  const unsigned Windows =
      Cold ? 1 : std::max(1u, static_cast<unsigned>(SpanUs / kWindowUs));
  const unsigned TailP =
      tailPermille(smallestWindow(Headline, SpanUs, Windows));
  const double Throughput =
      Cold ? ratio(static_cast<double>(ListOk), List.WallS)
           : trimmedMean(Sat.SliceRps, kTrim);

  Metrics E2E;
  E2E.add("setup_s", median(SetupS), "s");
  E2E.add("latency_p50_ms", windowedPercentile(Headline, SpanUs, Windows, 500),
          "ms");
  E2E.add("throughput_rps", Throughput, "1/s");
  E2E.add("speedup_geomean", geomean(Measured), "x");
  E2E.add("success_ratio",
          1.0 - ratio(static_cast<double>(Count.Failed),
                      static_cast<double>(Count.Attempted)),
          "ratio");
  E2E.add("peak_rss_mb", Proc->VmHwmMb, "MB");
  E2E.add("cpu_ms_per_request",
          ratio(Proc->CpuMs, static_cast<double>(Count.Completed)), "ms");

  // Reported speedups: the wire's for keys optimized in this run, the
  // deploy step's for pre-deployed keys.
  for (const Outcome &O : List.Outcomes)
    if (O.Done && O.St == net::WireStatus::Optimized && O.OptimizedUs > 0)
      Reported.emplace(O.ServedKey,
                       std::make_pair(O.TritonUs, O.OptimizedUs));
  std::vector<double> ReportedRatios, MeasuredOfReported;
  for (const KeyCheck &C : Checks) {
    auto It = Reported.find(C.Key);
    if (C.Ok && It != Reported.end() && It->second.second > 0) {
      ReportedRatios.push_back(It->second.first / It->second.second);
      MeasuredOfReported.push_back(C.speedup());
    }
  }

  const serve::ServiceStats &S = Final->Service;
  const net::NetStats &N = Final->Net;
  auto WallP50 = [&](net::WireStatus St) {
    auto It = WallByStatus.find(St);
    return It == WallByStatus.end() ? 0.0 : median(It->second);
  };
  std::vector<double> OpenMs;
  for (const auto &[Due, Ms] : HitLatencyMs)
    OpenMs.push_back(Ms);
  // The tail is a per-layer figure: on a shared VM host stalls move it
  // by more than any bound could absorb (see perfbench/METRICS.md).
  const double TailMs = windowedPercentile(Headline, SpanUs, Windows, TailP);
  Metrics Layers;
  Layers.add("latency_tail_ms", TailMs, "ms");
  Layers.add("net.overhead_us_p50", median(OverheadUs), "us");
  Layers.add("net.response_bytes_mean",
             ratio(static_cast<double>(N.BytesSent),
                   static_cast<double>(N.FramesSent)),
             "bytes");
  Layers.add("net.decode_errors", static_cast<double>(N.DecodeErrors),
             "count");
  Layers.add("net.quota_rejections", static_cast<double>(N.QuotaRejections),
             "count");
  Layers.add("net.rate_limited", static_cast<double>(N.RateLimited), "count");
  Layers.add("serve.wall_ms_p50.lookup_hit",
             WallP50(net::WireStatus::LookupHit), "ms");
  Layers.add("serve.wall_ms_p50.optimized",
             WallP50(net::WireStatus::Optimized), "ms");
  Layers.add("serve.wall_ms_p50.degraded", WallP50(net::WireStatus::Degraded),
             "ms");
  Layers.add("serve.job_ms_mean",
             ratio(S.TotalJobWallMs, static_cast<double>(S.OptimizeRuns)),
             "ms");
  Layers.add("serve.queue_wait_ms_mean", queueWaitMs(*Log), "ms");
  Layers.add("serve.hit_ratio",
             ratio(static_cast<double>(S.LookupHits),
                   static_cast<double>(S.Submitted)),
             "ratio");
  Layers.add("serve.merged", static_cast<double>(S.Merged), "count");
  Layers.add("serve.degraded_hits", static_cast<double>(S.DegradedHits),
             "count");
  Layers.add("serve.near_miss_upgrades",
             static_cast<double>(S.NearMissUpgrades), "count");
  Layers.add("serve.optimize_runs", static_cast<double>(S.OptimizeRuns),
             "count");
  Layers.add("serve.optimize_runs_per_miss_key",
             ratio(static_cast<double>(S.OptimizeRuns),
                   static_cast<double>(MissKeys.size())),
             "ratio");
  Layers.add("gpusim.cache_hit_ratio",
             ratio(static_cast<double>(S.Counters.MeasureCacheHits),
                   static_cast<double>(S.Counters.MeasureCacheHits +
                                       S.Counters.MeasureCacheMisses)),
             "ratio");
  Layers.add("core.speedup_inflation",
             ratio(geomean(ReportedRatios), geomean(MeasuredOfReported)),
             "ratio");
  Layers.add("open.latency_p50_ms", percentile(OpenMs, 500), "ms");
  Layers.add("open.latency_p99_ms", percentile(OpenMs, 990), "ms");
  Layers.add("gen.lateness_us_p99", LatenessP99, "us");
  Layers.add("gen.tail_permille", TailP, "permille");
  Layers.add("gen.latency_samples", static_cast<double>(Headline.size()),
             "count");
  Layers.add("gen.latency_windows", Windows, "count");
  Layers.add("check.keys", static_cast<double>(Checks.size()), "count");
  for (size_t C = 0; C < kFailClasses; ++C)
    Layers.add(std::string("fail.") +
                   failClassName(static_cast<FailClass>(C)),
               static_cast<double>(Count.FailedBy[C]), "count");

  if (A.Trace) {
    TracedResult T = runTraced(P, DeployDir, (Work / "traced").string());
    addTracedMetrics(Layers, T);
    // Per-layer figures describe the daemon's code only while the
    // replay reproduces Optimizer::optimize exactly.
    RC.ReplayOk = T.ReplayMatches == T.ReplayCompared;
    if (!RC.ReplayOk)
      std::cerr << "perfbench: " << T.ReplayCompared - T.ReplayMatches
                << " of " << T.ReplayCompared
                << " cold replays differ from Optimizer::optimize\n";
    if (!A.SpansPath.empty()) {
      std::ofstream Out(A.SpansPath);
      writeSpans(Out, T.Spans);
    }
  }

  std::cerr << "perfbench " << workloadName(P.W) << " seed " << A.Seed
            << ": " << Count.Attempted << " attempted, " << Count.Failed
            << " failed, "
            << Checks.size() << " keys checked\n";
  E2E.print(std::cerr);
  if (A.Trace)
    Layers.print(std::cerr);
  else
    std::cerr << "  latency_tail_ms = " << TailMs << " ms (p" << TailP / 10.0
              << ")\n";

  stats::JsonValue Result = stats::JsonValue::object();
  Result.set("correct", runCorrect(Count, RC));
  Result.set("attempted", Count.Attempted);
  Result.set("failed", Count.Failed);
  Result.set("metrics", A.Trace ? Layers.json() : E2E.json());
  std::cout << Result.dump() << std::endl;
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  std::optional<Args> A = parseArgs(argc, argv);
  if (!A)
    return usage();
  try {
    return run(*A);
  } catch (const std::exception &E) {
    std::cerr << "perfbench: " << E.what() << "\n";
    return 1;
  }
}
