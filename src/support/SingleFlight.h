//===- support/SingleFlight.h - One computation per key ---------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One computation per key: when several threads want the value of one
/// key, exactly one computes it while the others wait for the published
/// result. gpusim::MeasurementCache and triton::Autotuner sit on it.
///
/// A key is absent, in flight (claimed, not yet published) or
/// published. acquire() and tryAcquire() claim an absent key; the owner
/// then publish()es the value or abandon()s the key, which makes it
/// absent again and wakes the waiters so one of them re-claims it — a
/// failed computation never poisons its key. Published entries never
/// change and are never erased, so returned pointers stay valid for the
/// SingleFlight's lifetime.
///
/// Thread-safety: every member may be called concurrently. One mutex
/// guards the map; a hit takes it once and allocates nothing. The owner
/// computes outside the lock, so distinct keys compute in parallel.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_SUPPORT_SINGLEFLIGHT_H
#define CUASMRL_SUPPORT_SINGLEFLIGHT_H

#include <cassert>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace cuasmrl {
namespace support {

template <typename K, typename V> class SingleFlight {
public:
  /// Outcome of a claim attempt: the published value, ownership of the
  /// key (the caller must publish() or abandon() it), or — only from
  /// tryAcquire() — neither, meaning another thread owns it right now.
  struct Claim {
    const V *Value = nullptr;
    bool Owned = false;
  };

  /// Returns the published value, or claims the key when it is absent;
  /// blocks while another thread owns it.
  Claim acquire(const K &Key) {
    std::unique_lock<std::mutex> Lock(Mutex);
    Claim C;
    Changed.wait(Lock, [&] {
      C = claimLocked(Key);
      return C.Value || C.Owned;
    });
    return C;
  }

  /// As acquire(), but returns {nullptr, false} instead of blocking
  /// when another thread owns the key.
  Claim tryAcquire(const K &Key) {
    std::lock_guard<std::mutex> Lock(Mutex);
    return claimLocked(Key);
  }

  /// Stores the owner's result for \p Key and wakes its waiters.
  void publish(const K &Key, V Value) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      auto It = Map.find(Key);
      assert(It != Map.end() && !It->second && "publish without a claim");
      It->second.emplace(std::move(Value));
      ++Published;
    }
    Changed.notify_all();
  }

  /// Releases the owner's claim on \p Key without publishing: the key
  /// becomes absent again and a waiter re-claims it.
  void abandon(const K &Key) {
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      Map.erase(Key);
    }
    Changed.notify_all();
  }

  /// The published value for \p Key, or null (absent or in flight).
  const V *find(const K &Key) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Map.find(Key);
    return It != Map.end() && It->second ? &*It->second : nullptr;
  }

  /// Published entries.
  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Published;
  }

private:
  /// Claims \p Key if absent. Caller holds Mutex.
  Claim claimLocked(const K &Key) {
    auto [It, Inserted] = Map.try_emplace(Key);
    if (Inserted)
      return {nullptr, true};
    return {It->second ? &*It->second : nullptr, false};
  }

  mutable std::mutex Mutex;
  std::condition_variable Changed; ///< Signals publish() and abandon().
  /// nullopt = in flight. Node-based, so published values never move.
  std::unordered_map<K, std::optional<V>> Map;
  size_t Published = 0;
};

} // namespace support
} // namespace cuasmrl

#endif // CUASMRL_SUPPORT_SINGLEFLIGHT_H
