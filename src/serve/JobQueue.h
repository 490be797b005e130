//===- serve/JobQueue.h - Bounded priority job queue -------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The admission queue of the optimization service: a bounded,
/// closable priority queue of tasks with deadlines and priority aging.
/// Higher priority pops first; within one priority the queue is FIFO
/// (a monotonic sequence number breaks ties), so equal-priority
/// requests are served in admission order. Two robustness features sit
/// on top of the plain ordering:
///
///  - Expired-entry shedding: an entry whose deadline passed pops
///    before everything else (earliest deadline first), tagged
///    TaskFate::Expired, so a worker resolves it immediately as
///    DeadlineExceeded instead of burning minutes of optimization on a
///    request nobody is waiting for.
///  - Priority aging: with Options::AgingInterval set, an entry's
///    effective priority grows by one per interval spent queued,
///    so a steady stream of high-priority work cannot starve
///    low-priority requests forever (the ROADMAP's aging item).
///
/// Both features read Options::ClockSrc, so tests drive them with a
/// FakeClock. Entries are kept in a flat vector and pop() scans it:
/// aging makes priorities drift over time, which rules out a static
/// heap, and service queues are short (bounded by admission
/// backpressure) so the O(n) scan is noise next to a single optimize
/// job.
///
/// Thread-safety contract: every member may be called concurrently
/// from any number of producer and consumer threads. push() provides
/// the service's backpressure — it blocks while the queue is at its
/// bound and fails (returns false) only once the queue is closed.
/// close() is idempotent; it wakes every blocked producer and
/// consumer and hands the never-started tasks back to the caller so
/// their requesters can be failed explicitly (the queue never drops a
/// task silently).
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_SERVE_JOBQUEUE_H
#define CUASMRL_SERVE_JOBQUEUE_H

#include "support/Clock.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <vector>

namespace cuasmrl {
namespace serve {

/// Why a task is being invoked.
enum class TaskFate {
  Run,       ///< Popped normally: execute the job.
  Cancelled, ///< Queue closed before the job started (shutdown).
  Expired,   ///< Deadline passed while queued: shed, don't run.
};

/// Bounded priority queue of service jobs.
class JobQueue {
public:
  /// A queued unit of work. Consumers invoke a popped task with the
  /// fate pop() returned; tasks returned by close() are invoked (by
  /// the closer) with TaskFate::Cancelled — either way every task's
  /// requesters resolve exactly once.
  using Task = std::function<void(TaskFate)>;

  /// What pop() hands a consumer.
  struct Popped {
    Task Fn;
    TaskFate Fate = TaskFate::Run;
  };

  struct Options {
    /// Caps queued (not yet popped) tasks; 0 = unbounded.
    size_t Bound = 0;
    /// Deadline/aging time source; null = support::Clock::real().
    support::Clock *ClockSrc = nullptr;
    /// Aging cadence (one priority level per interval queued); 0
    /// disables aging.
    std::chrono::milliseconds AgingInterval{0};
  };

  /// \p Bound caps queued (not yet popped) tasks; 0 = unbounded.
  explicit JobQueue(size_t Bound = 0);
  explicit JobQueue(Options O);

  /// Enqueues \p T, blocking while the queue is full. \returns false
  /// (without enqueueing) once the queue is closed. A \p Deadline in
  /// the past is accepted — it pops first, as Expired.
  bool push(Task T, int Priority,
            std::optional<support::Clock::TimePoint> Deadline =
                std::nullopt);

  /// Non-blocking push. \returns false when the queue is full or
  /// closed.
  bool tryPush(Task T, int Priority,
               std::optional<support::Clock::TimePoint> Deadline =
                   std::nullopt);

  /// Pops the next task, blocking while the queue is empty: any
  /// expired entry first (earliest deadline, then FIFO), tagged
  /// Expired; otherwise the highest effective priority (base priority
  /// plus aging boost), FIFO within equals, tagged Run. \returns
  /// std::nullopt once the queue is closed and drained (the consumer's
  /// signal to exit).
  std::optional<Popped> pop();

  /// Closes the queue: subsequent pushes fail, blocked producers and
  /// consumers wake, and every task that was never popped is returned
  /// in pop order for explicit cancellation. Idempotent (later calls
  /// return an empty vector).
  std::vector<Task> close();

  /// Queued (not yet popped) task count.
  size_t size() const;

  bool closed() const;

private:
  struct Entry {
    int Priority;
    uint64_t Seq;
    support::Clock::TimePoint Enqueued;
    std::optional<support::Clock::TimePoint> Deadline;
    Task Fn;
  };

  /// Index of the entry pop() would take at \p Now, or npos when
  /// empty. Caller holds the mutex.
  size_t nextIndex(support::Clock::TimePoint Now, TaskFate &Fate) const;

  mutable std::mutex Mutex;
  std::condition_variable NotFull;  ///< Signals blocked producers.
  std::condition_variable NotEmpty; ///< Signals blocked consumers.
  std::vector<Entry> Entries;
  Options Opts;
  support::Clock *Clk; ///< Resolved ClockSrc (never null).
  uint64_t NextSeq = 0;
  bool Closed = false;
};

} // namespace serve
} // namespace cuasmrl

#endif // CUASMRL_SERVE_JOBQUEUE_H
