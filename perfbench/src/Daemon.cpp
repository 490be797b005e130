//===- perfbench/src/Daemon.cpp -------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"

#include "net/Client.h"
#include "stats/BenchReport.h"
#include "stats/Json.h"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace cuasmrl;

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

/// A loopback port that was free a moment ago (bind to 0, read it back).
Expected<uint16_t> freePort() {
  int Fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return Error(std::string("socket: ") + std::strerror(errno));
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(Addr);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0 ||
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) != 0) {
    int E = errno;
    ::close(Fd);
    return Error(std::string("bind: ") + std::strerror(E));
  }
  ::close(Fd);
  return static_cast<uint16_t>(ntohs(Addr.sin_port));
}

bool tryConnect(uint16_t Port) {
  net::ClientConfig CC;
  CC.Port = Port;
  CC.ConnectTimeout = std::chrono::milliseconds(200);
  CC.Retry.MaxAttempts = 1;
  net::Client C(CC);
  return static_cast<bool>(C.connect());
}

/// The last \p MaxBytes of a file, or empty when unreadable.
std::string readTail(const std::string &Path, std::streamoff MaxBytes) {
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  if (!In)
    return {};
  std::streamoff Size = In.tellg();
  std::streamoff From = Size > MaxBytes ? Size - MaxBytes : 0;
  In.seekg(From);
  std::string Text(static_cast<size_t>(Size - From), '\0');
  In.read(Text.data(), static_cast<std::streamsize>(Text.size()));
  return Text;
}

/// Complete lines of a stats log so far.
size_t countLines(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  size_t N = 0;
  for (std::string Line; std::getline(In, Line);)
    ++N;
  return N;
}

} // namespace

Daemon::Daemon(DaemonOptions O) : Options(std::move(O)) {}

Daemon::~Daemon() { killAndReap(); }

void Daemon::killAndReap() {
  if (Pid <= 0)
    return;
  ::kill(Pid, SIGKILL);
  int Status = 0;
  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  Pid = -1;
}

Expected<double> Daemon::start() {
  std::string LastError = "no attempt made";
  // A port free a moment ago can be taken before the daemon binds it;
  // a daemon that exits during start-up is retried on a fresh port.
  for (unsigned Attempt = 0; Attempt < 3; ++Attempt) {
    Expected<uint16_t> P = freePort();
    if (!P)
      return P.takeError();
    Port = *P;
    // The daemon's default stats interval (1 s): sampling it faster
    // measurably slows the serve path it observes.
    std::vector<std::string> Args = {
        Options.Binary,  "--port",          std::to_string(Port),
        "--deploy-dir",  Options.DeployDir, "--workers",
        std::to_string(Options.Workers),    "--stats-log",
        Options.StatsLog};
    std::vector<char *> Argv;
    for (std::string &A : Args)
      Argv.push_back(A.data());
    Argv.push_back(nullptr);
    cpu_set_t Cpus;
    CPU_ZERO(&Cpus);
    for (int Cpu : Options.Cpus)
      CPU_SET(Cpu, &Cpus);
    int LogFd = ::open(Options.OutputLog.c_str(),
                       O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    if (LogFd < 0)
      return Error("cannot open " + Options.OutputLog);

    const SteadyClock::time_point Spawned = SteadyClock::now();
    pid_t Child = ::fork();
    if (Child < 0) {
      ::close(LogFd);
      return Error(std::string("fork: ") + std::strerror(errno));
    }
    if (Child == 0) {
      // Async-signal-safe calls only between fork and exec.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (!Options.Cpus.empty())
        ::sched_setaffinity(0, sizeof(Cpus), &Cpus);
      ::dup2(LogFd, STDOUT_FILENO);
      ::dup2(LogFd, STDERR_FILENO);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    ::close(LogFd);
    Pid = Child;

    const SteadyClock::time_point Deadline =
        Spawned + std::chrono::seconds(30);
    while (SteadyClock::now() < Deadline) {
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        LastError = "serve_daemon exited during start-up (see " +
                    Options.OutputLog + ")";
        break;
      }
      if (tryConnect(Port))
        return std::chrono::duration<double>(SteadyClock::now() - Spawned)
            .count();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    if (Pid > 0) {
      killAndReap();
      return Error("serve_daemon accepted no connection within 30 s");
    }
  }
  return Error(LastError);
}

Expected<bool> Daemon::waitIdle(std::chrono::seconds Timeout) {
  // Only lines written after this call count: an older sample can
  // predate the last admission.
  const size_t Seen = countLines(Options.StatsLog);
  const SteadyClock::time_point Deadline = SteadyClock::now() + Timeout;
  while (SteadyClock::now() < Deadline) {
    if (countLines(Options.StatsLog) > Seen) {
      Expected<DaemonStats> S = readLastStats(Options.StatsLog);
      if (S && S->Service.QueuedNow == 0 && S->Service.RunningNow == 0)
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return Error("serve_daemon still busy after the idle timeout");
}

Expected<ProcSample> Daemon::sample() const {
  if (Pid <= 0)
    return Error("serve_daemon is not running");
  const std::string Dir = "/proc/" + std::to_string(Pid);
  ProcSample S;
  std::ifstream Status(Dir + "/status");
  bool HaveHwm = false;
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind("VmHWM:", 0) == 0) {
      S.VmHwmMb = std::stod(Line.substr(6)) / 1024.0;
      HaveHwm = true;
    }
  std::ifstream Stat(Dir + "/stat");
  std::string Text((std::istreambuf_iterator<char>(Stat)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name start at field 3
  // (state); utime and stime are fields 14 and 15.
  size_t Close = Text.rfind(')');
  if (!HaveHwm || Close == std::string::npos)
    return Error("cannot read " + Dir);
  std::istringstream Fields(Text.substr(Close + 1));
  std::vector<std::string> F;
  for (std::string Tok; Fields >> Tok;)
    F.push_back(Tok);
  if (F.size() < 13)
    return Error("short " + Dir + "/stat");
  const double Ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  S.CpuMs = (std::stod(F[11]) + std::stod(F[12])) * 1000.0 / Ticks;
  return S;
}

Expected<DaemonStats> Daemon::stop(std::chrono::seconds Grace) {
  if (Pid <= 0)
    return Error("serve_daemon is not running");
  ::kill(Pid, SIGTERM);
  const SteadyClock::time_point Deadline = SteadyClock::now() + Grace;
  int Status = 0;
  bool Exited = false;
  while (SteadyClock::now() < Deadline) {
    pid_t R = ::waitpid(Pid, &Status, WNOHANG);
    if (R == Pid) {
      Exited = true;
      break;
    }
    if (R < 0 && errno != EINTR)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!Exited) {
    killAndReap();
    return Error("serve_daemon did not drain within the grace period");
  }
  Pid = -1;
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0)
    return Error("serve_daemon exited abnormally (see " + Options.OutputLog +
                 ")");
  return readLastStats(Options.StatsLog);
}

namespace {

Expected<DaemonStats> parseStatsLine(std::string_view Line,
                                     const std::string &Path) {
  Expected<stats::JsonValue> Doc = stats::JsonValue::parse(Line);
  if (!Doc)
    return Error("bad stats line in " + Path + ": " + Doc.error().message());
  const stats::JsonValue *Elapsed = Doc->find("elapsed_ms");
  const stats::JsonValue *Stats = Doc->find("stats");
  const stats::JsonValue *Svc = Stats ? Stats->find("service") : nullptr;
  const stats::JsonValue *Net = Stats ? Stats->find("net") : nullptr;
  if (!Elapsed || !Svc || !Net)
    return Error("stats line without elapsed_ms/service/net in " + Path);
  DaemonStats S;
  S.ElapsedMs = Elapsed->number();
  S.Service = stats::serviceStatsFromJson(*Svc);
  S.Net = stats::netStatsFromJson(*Net);
  return S;
}

} // namespace

Expected<DaemonStats> readLastStats(const std::string &Path) {
  std::string Text = readTail(Path, 1 << 16);
  // The last complete line: the text before the final newline, after
  // the newline before it.
  size_t End = Text.rfind('\n');
  if (End == std::string::npos)
    return Error("no complete line in " + Path);
  size_t Begin = End == 0 ? std::string::npos : Text.rfind('\n', End - 1);
  Begin = Begin == std::string::npos ? 0 : Begin + 1;
  return parseStatsLine(std::string_view(Text).substr(Begin, End - Begin),
                        Path);
}

Expected<std::vector<DaemonStats>> readAllStats(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Error("cannot read " + Path);
  std::vector<DaemonStats> Out;
  for (std::string Line; std::getline(In, Line);) {
    if (In.eof())
      break; // An unterminated last line may still be being written.
    Expected<DaemonStats> S = parseStatsLine(Line, Path);
    if (!S)
      return S.takeError();
    Out.push_back(*S);
  }
  return Out;
}

} // namespace perfbench
