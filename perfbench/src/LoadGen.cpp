//===- perfbench/src/LoadGen.cpp ------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"

#include "net/Client.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <unordered_map>

#include <sched.h>
#include <sys/prctl.h>

using namespace cuasmrl;

namespace perfbench {

namespace {

using SteadyClock = std::chrono::steady_clock;

double usSince(SteadyClock::time_point Epoch) {
  return std::chrono::duration<double, std::micro>(SteadyClock::now() -
                                                   Epoch)
      .count();
}

net::ClientConfig clientConfig(uint16_t Port) {
  net::ClientConfig CC;
  CC.Port = Port;
  return CC;
}

/// Pins the calling thread, and makes its sleeps end on time (the
/// default timer slack is 50 us).
void prepareThread(const CpuSet &Cpus) {
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  if (Cpus.empty())
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int Cpu : Cpus)
    CPU_SET(Cpu, &Set);
  ::sched_setaffinity(0, sizeof(Set), &Set);
}

/// The key a response served (DegradedFrom for a Degraded one); keeps
/// the first binary of every served key and sets \p Mismatch when a
/// later one differs from it.
std::string keepBinary(net::WireResponse &W, BinaryMap &Binaries,
                       bool &Mismatch) {
  Mismatch = false;
  if (!W.HasBinary)
    return {};
  std::string Key = W.St == net::WireStatus::Degraded ? W.DegradedFrom : W.Key;
  auto It = Binaries.find(Key);
  if (It == Binaries.end())
    Binaries.emplace(Key, std::move(W.Binary));
  else
    Mismatch = !sameBinary(It->second, W.Binary);
  return Key;
}

void record(Outcome &O, net::WireResponse &&W, double DoneUs,
            BinaryMap &Binaries) {
  O.Done = true;
  O.DoneUs = DoneUs;
  O.St = W.St;
  O.WallMs = W.WallMs;
  O.TritonUs = W.TritonUs;
  O.OptimizedUs = W.OptimizedUs;
  O.ServedKey = keepBinary(W, Binaries, O.BinaryMismatch);
}

void mergeAll(BinaryMap &Into, std::vector<BinaryMap> &PerThread,
              std::set<std::string> &Mismatched) {
  for (BinaryMap &M : PerThread)
    mergeBinaries(Into, std::move(M), Mismatched);
}

} // namespace

bool sameBinary(const cubin::CubinFile &A, const cubin::CubinFile &B) {
  // Every field serialize() writes, without building the byte strings.
  const cubin::KernelInfo &I = A.info(), &J = B.info();
  if (I.Name != J.Name || I.GridX != J.GridX || I.GridY != J.GridY ||
      I.GridZ != J.GridZ || I.WarpsPerBlock != J.WarpsPerBlock ||
      I.SharedBytes != J.SharedBytes ||
      A.sections().size() != B.sections().size())
    return false;
  for (size_t S = 0; S < A.sections().size(); ++S)
    if (A.sections()[S].Name != B.sections()[S].Name ||
        A.sections()[S].Data != B.sections()[S].Data)
      return false;
  return true;
}

void mergeBinaries(BinaryMap &Into, BinaryMap &&From,
                   std::set<std::string> &Mismatched) {
  for (auto &[Key, Bin] : From) {
    auto It = Into.find(Key);
    if (It == Into.end())
      Into.emplace(Key, std::move(Bin));
    else if (!sameBinary(It->second, Bin))
      Mismatched.insert(Key);
  }
}

bool isFailure(const Outcome &O) {
  if (!O.Done || O.BinaryMismatch)
    return true;
  switch (O.St) {
  case net::WireStatus::Optimized:
  case net::WireStatus::LookupHit:
  case net::WireStatus::Degraded:
    return false;
  default:
    return true;
  }
}

PhaseResult runClosedLoop(uint16_t Port,
                          const std::vector<PlannedRequest> &Requests,
                          unsigned Connections, const CpuSet &Cpus) {
  PhaseResult Out;
  Out.Outcomes.resize(Requests.size());
  std::vector<BinaryMap> Binaries(Connections);
  std::atomic<size_t> Next{0};
  const SteadyClock::time_point Epoch = SteadyClock::now();
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back([&, C] {
      prepareThread(Cpus);
      net::Client Client(clientConfig(Port));
      for (size_t I; (I = Next.fetch_add(1)) < Requests.size();) {
        Outcome &O = Out.Outcomes[I];
        O.DueUs = O.SentUs = usSince(Epoch);
        Expected<net::WireResponse> W = Client.call(Requests[I].Req);
        if (W)
          record(O, W.takeValue(), usSince(Epoch), Binaries[C]);
        else
          O.Transport = W.error().message();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Out.WallS = usSince(Epoch) / 1e6;
  mergeAll(Out.Binaries, Binaries, Out.Mismatched);
  return Out;
}

TimedResult runTimedLoop(uint16_t Port,
                         const std::vector<serve::OptimizeRequest> &Sequence,
                         unsigned Connections, unsigned Depth,
                         double Seconds, const CpuSet &Cpus) {
  constexpr double SliceS = 0.25;
  const size_t Slices = static_cast<size_t>(Seconds / SliceS);
  std::vector<TimedResult> PerConn(Connections);
  std::vector<std::vector<uint64_t>> SliceCounts(
      Connections, std::vector<uint64_t>(Slices + 1, 0));
  const SteadyClock::time_point Epoch = SteadyClock::now();
  const SteadyClock::time_point End =
      Epoch + std::chrono::duration_cast<SteadyClock::duration>(
                  std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back([&, C] {
      prepareThread(Cpus);
      TimedResult &R = PerConn[C];
      net::Client Client(clientConfig(Port));
      size_t Pos = C; // Connections walk the sequence interleaved.
      std::unordered_map<uint64_t, double> SentUs;
      while (true) {
        while (SentUs.size() < Depth && SteadyClock::now() < End) {
          const double Now = usSince(Epoch);
          Expected<uint64_t> Id = Client.send(Sequence[Pos % Sequence.size()]);
          Pos += Connections;
          if (!Id) {
            ++R.Failed;
            break;
          }
          SentUs.emplace(*Id, Now);
        }
        if (SentUs.empty())
          break;
        Expected<std::pair<uint64_t, net::WireResponse>> Resp =
            Client.receive();
        if (!Resp) {
          R.Failed += SentUs.size();
          SentUs.clear();
          continue;
        }
        const double DoneUs = usSince(Epoch);
        auto Sent = SentUs.find(Resp->first);
        if (Sent == SentUs.end())
          continue; // Not ours: cannot happen on a private connection.
        const double StartUs = Sent->second;
        SentUs.erase(Sent);
        net::WireResponse &W = Resp->second;
        if (W.St != net::WireStatus::LookupHit) {
          ++R.Failed;
          continue;
        }
        bool Mismatch = false;
        const std::string Key = keepBinary(W, R.Binaries, Mismatch);
        if (Mismatch) {
          ++R.Failed;
          continue;
        }
        ++R.Completed;
        R.LatencyMs.emplace_back(StartUs, (DoneUs - StartUs) / 1e3);
        R.OverheadUs.push_back(DoneUs - StartUs - W.WallMs * 1e3);
        R.WallMs.push_back(W.WallMs);
        ++R.Served[Key];
        size_t Slice = static_cast<size_t>(DoneUs / 1e6 / SliceS);
        ++SliceCounts[C][std::min(Slice, Slices)];
      }
    });
  for (std::thread &T : Threads)
    T.join();
  TimedResult Total;
  Total.WallS = usSince(Epoch) / 1e6;
  std::vector<BinaryMap> Binaries;
  for (TimedResult &R : PerConn) {
    Total.Completed += R.Completed;
    Total.Failed += R.Failed;
    Total.LatencyMs.insert(Total.LatencyMs.end(), R.LatencyMs.begin(),
                           R.LatencyMs.end());
    Total.OverheadUs.insert(Total.OverheadUs.end(), R.OverheadUs.begin(),
                            R.OverheadUs.end());
    Total.WallMs.insert(Total.WallMs.end(), R.WallMs.begin(), R.WallMs.end());
    for (const auto &[Key, N] : R.Served)
      Total.Served[Key] += N;
    Binaries.push_back(std::move(R.Binaries));
  }
  mergeAll(Total.Binaries, Binaries, Total.Mismatched);
  // The last slot collects the drain after the deadline; it is not a
  // full slice.
  for (size_t I = 0; I < Slices; ++I) {
    uint64_t N = 0;
    for (const std::vector<uint64_t> &Counts : SliceCounts)
      N += Counts[I];
    Total.SliceRps.push_back(static_cast<double>(N) / SliceS);
  }
  return Total;
}

void TimedResult::append(TimedResult &&Next) {
  const double OffsetUs = WallS * 1e6;
  Completed += Next.Completed;
  Failed += Next.Failed;
  WallS += Next.WallS;
  SliceRps.insert(SliceRps.end(), Next.SliceRps.begin(), Next.SliceRps.end());
  for (const auto &[T, Ms] : Next.LatencyMs)
    LatencyMs.emplace_back(OffsetUs + T, Ms);
  OverheadUs.insert(OverheadUs.end(), Next.OverheadUs.begin(),
                    Next.OverheadUs.end());
  WallMs.insert(WallMs.end(), Next.WallMs.begin(), Next.WallMs.end());
  for (const auto &[Key, N] : Next.Served)
    Served[Key] += N;
  Mismatched.insert(Next.Mismatched.begin(), Next.Mismatched.end());
  mergeBinaries(Binaries, std::move(Next.Binaries), Mismatched);
}

PhaseResult runOpenLoop(uint16_t Port,
                        const std::vector<PlannedRequest> &Requests,
                        unsigned Connections, const CpuSet &Cpus) {
  PhaseResult Out;
  Out.Outcomes.resize(Requests.size());
  std::vector<BinaryMap> Binaries(Connections);
  // Start a little in the future so every thread is connected and
  // waiting when the first request falls due.
  const SteadyClock::time_point Epoch =
      SteadyClock::now() + std::chrono::milliseconds(50);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Connections; ++C)
    Threads.emplace_back([&, C] {
      prepareThread(Cpus);
      std::vector<size_t> Mine;
      for (size_t I = 0; I < Requests.size(); ++I)
        if (Requests[I].Conn == C)
          Mine.push_back(I);
      net::Client Client(clientConfig(Port));
      (void)Client.connect();
      std::unordered_map<uint64_t, size_t> InFlight;
      auto FailInFlight = [&](const std::string &Why) {
        for (auto &[Id, I] : InFlight)
          Out.Outcomes[I].Transport = Why;
        InFlight.clear();
      };
      size_t Pos = 0;
      while (Pos < Mine.size() || !InFlight.empty()) {
        // Send everything that is due.
        while (Pos < Mine.size() &&
               usSince(Epoch) >= Requests[Mine[Pos]].DueS * 1e6) {
          const size_t I = Mine[Pos++];
          Outcome &O = Out.Outcomes[I];
          O.DueUs = Requests[I].DueS * 1e6;
          O.SentUs = usSince(Epoch);
          Expected<uint64_t> Id = Client.send(Requests[I].Req);
          if (Id) {
            InFlight.emplace(*Id, I);
          } else {
            O.Transport = Id.error().message();
            FailInFlight("connection lost");
          }
        }
        if (!InFlight.empty()) {
          Expected<std::pair<uint64_t, net::WireResponse>> R =
              Client.receive();
          if (!R) {
            FailInFlight(R.error().message());
            continue;
          }
          auto It = InFlight.find(R->first);
          if (It == InFlight.end())
            continue; // Not ours: cannot happen on a private connection.
          record(Out.Outcomes[It->second], std::move(R->second),
                 usSince(Epoch), Binaries[C]);
          InFlight.erase(It);
        } else if (Pos < Mine.size()) {
          std::this_thread::sleep_until(
              Epoch + std::chrono::duration_cast<SteadyClock::duration>(
                          std::chrono::duration<double>(
                              Requests[Mine[Pos]].DueS)));
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Out.WallS = usSince(Epoch) / 1e6;
  mergeAll(Out.Binaries, Binaries, Out.Mismatched);
  return Out;
}

} // namespace perfbench
