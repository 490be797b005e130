//===- serve/JobQueue.cpp ----------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "serve/JobQueue.h"

#include <algorithm>
#include <limits>

using namespace cuasmrl;
using namespace cuasmrl::serve;

JobQueue::JobQueue(size_t B)
    : JobQueue(Options{B, nullptr, std::chrono::milliseconds(0)}) {}

JobQueue::JobQueue(Options O)
    : Opts(O), Clk(O.ClockSrc ? O.ClockSrc : &support::Clock::real()) {}

bool JobQueue::push(Task T, int Priority,
                    std::optional<support::Clock::TimePoint> Deadline) {
  std::unique_lock<std::mutex> Lock(Mutex);
  NotFull.wait(Lock, [&] {
    return Closed || Opts.Bound == 0 || Entries.size() < Opts.Bound;
  });
  if (Closed)
    return false;
  Entries.push_back(
      Entry{Priority, NextSeq++, Clk->now(), Deadline, std::move(T)});
  NotEmpty.notify_one();
  return true;
}

bool JobQueue::tryPush(Task T, int Priority,
                       std::optional<support::Clock::TimePoint> Deadline) {
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Closed || (Opts.Bound != 0 && Entries.size() >= Opts.Bound))
    return false;
  Entries.push_back(
      Entry{Priority, NextSeq++, Clk->now(), Deadline, std::move(T)});
  NotEmpty.notify_one();
  return true;
}

size_t JobQueue::nextIndex(support::Clock::TimePoint Now,
                           TaskFate &Fate) const {
  constexpr size_t Npos = std::numeric_limits<size_t>::max();
  if (Entries.empty())
    return Npos;

  // 1. Shed: the expired entry with the earliest deadline (Seq breaks
  //    ties) pops before any live work, so stale requests leave the
  //    queue at pop speed instead of occupying workers.
  size_t Shed = Npos;
  for (size_t I = 0; I < Entries.size(); ++I) {
    const Entry &E = Entries[I];
    if (!E.Deadline || Now < *E.Deadline)
      continue;
    if (Shed == Npos || *E.Deadline < *Entries[Shed].Deadline ||
        (*E.Deadline == *Entries[Shed].Deadline && E.Seq < Entries[Shed].Seq))
      Shed = I;
  }
  if (Shed != Npos) {
    Fate = TaskFate::Expired;
    return Shed;
  }

  // 2. Max effective priority (base + aging boost), FIFO within.
  auto Effective = [&](const Entry &E) -> int64_t {
    if (Opts.AgingInterval.count() <= 0)
      return E.Priority;
    auto Waited = std::chrono::duration_cast<std::chrono::milliseconds>(
        Now - E.Enqueued);
    return static_cast<int64_t>(E.Priority) +
           Waited.count() / Opts.AgingInterval.count();
  };
  size_t Best = 0;
  int64_t BestPrio = Effective(Entries[0]);
  for (size_t I = 1; I < Entries.size(); ++I) {
    int64_t Prio = Effective(Entries[I]);
    if (Prio > BestPrio ||
        (Prio == BestPrio && Entries[I].Seq < Entries[Best].Seq)) {
      Best = I;
      BestPrio = Prio;
    }
  }
  Fate = TaskFate::Run;
  return Best;
}

std::optional<JobQueue::Popped> JobQueue::pop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  NotEmpty.wait(Lock, [&] { return Closed || !Entries.empty(); });
  if (Entries.empty())
    return std::nullopt; // Closed and drained.
  TaskFate Fate = TaskFate::Run;
  size_t I = nextIndex(Clk->now(), Fate);
  Popped P{std::move(Entries[I].Fn), Fate};
  Entries.erase(Entries.begin() + static_cast<ptrdiff_t>(I));
  NotFull.notify_one();
  return P;
}

std::vector<JobQueue::Task> JobQueue::close() {
  std::vector<Task> Remaining;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Closed = true;
    Remaining.reserve(Entries.size());
    support::Clock::TimePoint Now = Clk->now();
    while (!Entries.empty()) {
      TaskFate Fate = TaskFate::Run;
      size_t I = nextIndex(Now, Fate);
      Remaining.push_back(std::move(Entries[I].Fn));
      Entries.erase(Entries.begin() + static_cast<ptrdiff_t>(I));
    }
  }
  NotFull.notify_all();
  NotEmpty.notify_all();
  return Remaining;
}

size_t JobQueue::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

bool JobQueue::closed() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Closed;
}
