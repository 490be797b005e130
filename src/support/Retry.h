//===- support/Retry.h - Seeded-jittered exponential backoff --------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retry policy the serving layer applies to transient failures:
/// capped exponential backoff with deterministic jitter, and the one
/// try / back off / retry loop (retryWithBackoff) every retrying call
/// site runs. The jitter factor is a pure function of (Seed, key hash,
/// attempt) via the same mixSeed derivation every other seeded
/// subsystem uses, so a retry schedule is bit-reproducible — two runs
/// of the same fault schedule sleep the same milliseconds — while
/// distinct keys still de-correlate (no thundering herd on a shared
/// deploy directory).
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_SUPPORT_RETRY_H
#define CUASMRL_SUPPORT_RETRY_H

#include "support/Clock.h"
#include "support/Rng.h"

#include <algorithm>
#include <chrono>
#include <cstdint>

namespace cuasmrl {
namespace support {

/// Attempt cap + backoff shape. MaxAttempts counts total tries, so
/// MaxAttempts = 3 means one initial try and up to two retries.
struct RetryPolicy {
  unsigned MaxAttempts = 3;
  std::chrono::milliseconds BaseDelay{10};
  double Multiplier = 2.0;
  /// Jitter half-width as a fraction of the exponential delay: the
  /// sleep is delay * [1 - Jitter, 1 + Jitter]. 0 disables jitter.
  double Jitter = 0.5;
  std::chrono::milliseconds MaxDelay{2000};
};

/// Backoff before retry number \p Attempt (1 = first retry).
/// Deterministic in (Policy, Attempt, Seed, KeyHash); clamped to
/// [0, Policy.MaxDelay].
inline std::chrono::milliseconds backoffDelay(const RetryPolicy &Policy,
                                              unsigned Attempt,
                                              uint64_t Seed,
                                              uint64_t KeyHash) {
  double Delay = static_cast<double>(Policy.BaseDelay.count());
  for (unsigned I = 1; I < Attempt; ++I)
    Delay *= Policy.Multiplier;
  if (Policy.Jitter > 0.0) {
    Rng JitterRng(mixSeed(mixSeed(Seed, KeyHash), Attempt));
    Delay *= 1.0 + Policy.Jitter * (2.0 * JitterRng.uniformReal() - 1.0);
  }
  double Cap = static_cast<double>(Policy.MaxDelay.count());
  Delay = std::clamp(Delay, 0.0, Cap);
  return std::chrono::milliseconds(static_cast<int64_t>(Delay));
}

/// Calls \p Try until it returns true, at most Policy.MaxAttempts
/// times. Before retry number N (1 = first retry) it calls
/// \p OnRetry(N), then sleeps backoffDelay(Policy, N, Seed, KeyHash) on
/// \p Clk. \returns false when every attempt failed; there is no sleep
/// after the last one.
template <typename TryFn, typename RetryFn>
bool retryWithBackoff(const RetryPolicy &Policy, Clock &Clk, uint64_t Seed,
                      uint64_t KeyHash, TryFn &&Try, RetryFn &&OnRetry) {
  for (unsigned Attempt = 1;; ++Attempt) {
    if (Try())
      return true;
    if (Attempt >= Policy.MaxAttempts)
      return false;
    OnRetry(Attempt);
    Clk.sleepFor(backoffDelay(Policy, Attempt, Seed, KeyHash));
  }
}

} // namespace support
} // namespace cuasmrl

#endif // CUASMRL_SUPPORT_RETRY_H
