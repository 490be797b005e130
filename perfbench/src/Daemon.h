//===- perfbench/src/Daemon.h - serve_daemon as an observed child ---------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs examples/serve_daemon as a child process on a loopback TCP port
/// with a JSONL stats log, and observes it from outside:
///
///   - set-up time: fork to the first accepted client connection;
///   - the service/network counters of its stats log (the final line is
///     written after the daemon drains on SIGTERM);
///   - peak RSS (VmHWM) and CPU time (utime + stime) from /proc.
///
/// The child is always reaped: stop() ends it with SIGTERM (SIGKILL
/// after a grace period) and the destructor kills and reaps a child
/// that is still running, so no failure path leaves it behind. The
/// child also dies with the benchmark (PR_SET_PDEATHSIG).
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_PERFBENCH_DAEMON_H
#define CUASMRL_PERFBENCH_DAEMON_H

#include "net/NetStats.h"
#include "serve/OptimizationService.h"
#include "support/Error.h"

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <sys/types.h>

namespace perfbench {

struct DaemonOptions {
  std::string Binary;
  std::string DeployDir;
  std::string StatsLog;
  std::string OutputLog; ///< The child's stdout and stderr.
  unsigned Workers = 1;
  std::vector<int> Cpus; ///< CPUs the daemon may run on; empty = any.
};

/// One /proc observation of the child.
struct ProcSample {
  double VmHwmMb = 0.0; ///< Peak resident set so far.
  double CpuMs = 0.0;   ///< utime + stime so far.
};

/// One stats-log line.
struct DaemonStats {
  double ElapsedMs = 0.0; ///< Since the logger started.
  cuasmrl::serve::ServiceStats Service;
  cuasmrl::net::NetStats Net;
};

class Daemon {
public:
  explicit Daemon(DaemonOptions Options);
  /// Kills and reaps a child that is still running.
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Spawns the daemon and waits until it accepts a connection.
  /// \returns the seconds from fork to that first accepted connection.
  cuasmrl::Expected<double> start();

  uint16_t port() const { return Port; }

  /// Polls the stats log until no job is queued or running.
  cuasmrl::Expected<bool> waitIdle(std::chrono::seconds Timeout);

  cuasmrl::Expected<ProcSample> sample() const;

  /// SIGTERM, then waits for the drain and exit (SIGKILL after
  /// \p Grace). \returns the final stats-log line.
  cuasmrl::Expected<DaemonStats> stop(std::chrono::seconds Grace);

private:
  void killAndReap();

  DaemonOptions Options;
  pid_t Pid = -1;
  uint16_t Port = 0;
};

/// The last complete line of a stats log, parsed.
cuasmrl::Expected<DaemonStats> readLastStats(const std::string &Path);

/// Every line of a stats log, parsed.
cuasmrl::Expected<std::vector<DaemonStats>>
readAllStats(const std::string &Path);

} // namespace perfbench

#endif // CUASMRL_PERFBENCH_DAEMON_H
