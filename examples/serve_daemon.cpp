//===- examples/serve_daemon.cpp - the network front door as a daemon -----===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Runs an OptimizationService behind a net::Server: the §4.2 "offline
// search, online lookup" workflow as a standalone process that other
// processes talk to over TCP or a unix-domain socket (wire format in
// docs/SERVING.md). Pair it with examples/serve_client.
//
// Cross-process cache sharing is on by default: two daemons pointed at
// the same --deploy-dir claim each key before optimizing, so
// concurrent identical requests across processes run exactly one job.
// Queue-priority aging is on by default too (--aging-ms 0 disables) so
// a flood of high-priority traffic cannot starve old low-priority
// requests.
//
//   $ build/examples/serve_daemon --port 7447 --deploy-dir /tmp/cache
//       [--unix /tmp/cuasmrl.sock] [--workers N] [--duration-ms N]
//       [--max-in-flight N] [--rate R --burst B] [--aging-ms N]
//       [--stats-log stats.jsonl] [--no-claims] [--paper]
//
// With --duration-ms 0 (the default) the daemon serves until SIGINT /
// SIGTERM, then drains and prints final service + network counters.
//
//===----------------------------------------------------------------------===//

#include "net/Server.h"
#include "serve/OptimizationService.h"
#include "stats/BenchReport.h"
#include "stats/SnapshotLogger.h"
#include "support/StringUtils.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

using namespace cuasmrl;
using namespace cuasmrl::serve;

namespace {

std::atomic<bool> StopRequested{false};

void onSignal(int) { StopRequested.store(true); }

/// A light optimize configuration so demo requests finish in seconds;
/// --paper restores the full defaults.
core::OptimizeConfig demoConfig(bool Paper) {
  core::OptimizeConfig C;
  if (Paper)
    return C;
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
  return C;
}

void printCounters(const ServiceStats &S, const net::NetStats &N) {
  std::cout << "service: submitted=" << S.Submitted
            << " lookup-hits=" << S.LookupHits << " merged=" << S.Merged
            << " optimize-runs=" << S.OptimizeRuns
            << " rejected=" << S.Rejected
            << " claim-waits=" << S.ClaimWaits
            << " claim-hits=" << S.ClaimHits
            << " claim-breaks=" << S.ClaimBreaks << "\n"
            << "network: conns=" << N.ConnectionsAccepted << "/"
            << N.ConnectionsClosed << " frames=" << N.FramesReceived << "/"
            << N.FramesSent << " bytes=" << N.BytesReceived << "/"
            << N.BytesSent << " decode-errors=" << N.DecodeErrors
            << " quota-rejections=" << N.QuotaRejections
            << " rate-limited=" << N.RateLimited << "\n";
}

int usage(const char *Prog) {
  std::cerr
      << "usage: " << Prog
      << " [--port N] [--host ADDR] [--unix PATH] [--deploy-dir DIR]\n"
         "       [--workers N] [--duration-ms N] [--max-in-flight N]\n"
         "       [--rate R] [--burst B] [--aging-ms N] [--no-claims]\n"
         "       [--stats-log PATH] [--stats-interval-ms N] [--paper]\n";
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  uint16_t Port = 7447;
  std::string Host = "127.0.0.1";
  std::string UnixPath;
  std::string DeployDir = "cuasmrl-deploy";
  unsigned Workers = 0; // 0 = hardware concurrency.
  long DurationMs = 0;  // 0 = until SIGINT.
  unsigned MaxInFlight = 64;
  double Rate = 0.0, Burst = 16.0;
  long AgingMs = 250; // Priority aging default-on (0 disables).
  bool Claims = true;
  bool Paper = false;
  std::string StatsLog;
  long StatsIntervalMs = 1000;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--port" && (V = Next()))
      Port = static_cast<uint16_t>(std::atoi(V));
    else if (Arg == "--host" && (V = Next()))
      Host = V;
    else if (Arg == "--unix" && (V = Next()))
      UnixPath = V;
    else if (Arg == "--deploy-dir" && (V = Next()))
      DeployDir = V;
    else if (Arg == "--workers" && (V = Next()))
      Workers = static_cast<unsigned>(std::atoi(V));
    else if (Arg == "--duration-ms" && (V = Next()))
      DurationMs = std::atol(V);
    else if (Arg == "--max-in-flight" && (V = Next()))
      MaxInFlight = static_cast<unsigned>(std::atoi(V));
    else if (Arg == "--rate" && (V = Next()))
      Rate = std::atof(V);
    else if (Arg == "--burst" && (V = Next()))
      Burst = std::atof(V);
    else if (Arg == "--aging-ms" && (V = Next()))
      AgingMs = std::atol(V);
    else if (Arg == "--no-claims")
      Claims = false;
    else if (Arg == "--stats-log" && (V = Next()))
      StatsLog = V;
    else if (Arg == "--stats-interval-ms" && (V = Next()))
      StatsIntervalMs = std::atol(V);
    else if (Arg == "--paper")
      Paper = true;
    else
      return usage(argv[0]);
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  gpusim::Gpu Device;
  ServiceConfig SC;
  SC.Workers = Workers;
  SC.DeployDir = DeployDir;
  SC.Defaults = demoConfig(Paper);
  SC.CrossProcessClaims = Claims;
  SC.AgingInterval = std::chrono::milliseconds(AgingMs);
  OptimizationService Service(Device, SC);

  net::ServerConfig NC;
  NC.Host = Host;
  NC.Port = Port;
  NC.UnixPath = UnixPath;
  NC.MaxInFlightPerConn = MaxInFlight;
  NC.RatePerSec = Rate;
  NC.RateBurst = Burst;
  net::Server Server(Service, NC);
  Expected<uint16_t> Bound = Server.start();
  if (!Bound) {
    std::cerr << "serve_daemon: " << Bound.error().message() << "\n";
    return 1;
  }

  // One JSONL trajectory line per interval: service and network
  // counters side by side (see docs/OBSERVABILITY.md).
  stats::StatsSnapshotLogger Logger(
      [&] {
        stats::JsonValue Obj = stats::JsonValue::object();
        Obj.set("service", stats::serviceStatsToJson(Service.stats()));
        Obj.set("net", stats::netStatsToJson(Server.stats()));
        return Obj;
      },
      {std::chrono::milliseconds(StatsIntervalMs), StatsLog});
  if (!StatsLog.empty() && !Logger.start()) {
    std::cerr << "serve_daemon: cannot open stats log '" << StatsLog
              << "'\n";
    return 1;
  }

  std::cout << "serve_daemon: listening on " << Host << ":" << *Bound;
  if (!UnixPath.empty())
    std::cout << " and " << UnixPath;
  std::cout << " (deploy-dir " << DeployDir << ", workers "
            << Service.workerCount() << ", claims "
            << (Claims ? "on" : "off") << ", aging "
            << (AgingMs > 0 ? std::to_string(AgingMs) + "ms" : "off")
            << ")\n";
  if (DurationMs > 0)
    std::cout << "serving for " << DurationMs << " ms...\n";
  else
    std::cout << "serving until SIGINT...\n";

  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(DurationMs);
  while (!StopRequested.load()) {
    if (DurationMs > 0 && std::chrono::steady_clock::now() >= Deadline)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  std::cout << "serve_daemon: draining...\n";
  Server.stop(); // No new frames; in-flight jobs finish below.
  Service.drain();
  Logger.stop();
  printCounters(Service.stats(), Server.stats());
  Service.shutdown();
  return 0;
}
