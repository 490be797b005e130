//===- net/Wire.h - Length-prefixed binary RPC framing --------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving stack's wire format: length-prefixed binary frames
/// carrying OptimizeRequests to a net::Server and response summaries
/// back (full spec in docs/SERVING.md). Every frame is
///
///   [ magic u32 | version u16 | type u16 | request-id u64 | len u32 ]
///   [ len payload bytes ]
///
/// little-endian throughout, with the payload capped (kMaxPayload by
/// default) so a hostile or corrupt length prefix can never drive an
/// allocation. Decoding is strict: unknown magic, unknown version,
/// unknown frame type, oversized length, truncated payload fields and
/// trailing garbage are all Expected errors — the server rejects the
/// frame (or the connection) instead of guessing.
///
/// Determinism contract: encoding is a pure function of the value —
/// field order is fixed, integers are fixed-width little-endian, and
/// doubles travel as their IEEE-754 bit pattern — so
/// decode(encode(x)) == x exactly (bit-identical doubles included),
/// and two processes encoding the same response produce the same
/// bytes. The request payload carries every result-relevant
/// OptimizeConfig field (the configDigest() list in
/// serve/OptimizationService.cpp); wall-clock-only knobs
/// (RolloutWorkers, AutotuneWorkers) deliberately stay server-side.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_NET_WIRE_H
#define CUASMRL_NET_WIRE_H

#include "serve/OptimizationService.h"
#include "support/Error.h"

#include <cstdint>
#include <vector>

namespace cuasmrl {
namespace net {

constexpr uint32_t kMagic = 0x43505243; // "CRPC" little-endian.
constexpr uint16_t kVersion = 1;
constexpr size_t kHeaderSize = 20;
/// Default payload cap; generous against real cubins (a few KiB), hard
/// against hostile length prefixes.
constexpr uint32_t kMaxPayload = 16u << 20;
/// Caps on the request config fields that size a job's memory: every
/// env is an AssemblyGame with a private device copy, and the policy's
/// weights grow with Channels^2 and Channels x Hidden. A request above
/// a cap is refused at decode, since serving it would exhaust the
/// daemon's memory rather than fail one job. Each cap is far above the
/// largest value any caller uses (NumEnvs 4, Channels 16, Hidden 64).
constexpr uint32_t kMaxNumEnvs = 64;
constexpr uint64_t kMaxPpoChannels = 1024;
constexpr uint64_t kMaxPpoHidden = 4096;
/// Cap on WarmupIters and RepeatIters of both measure configs: a job
/// draws one jitter value per rep and counts both per measurement, so
/// a value near 2^32 ties up a worker and wraps the execution count.
/// The largest value any caller uses is 100 (the full-mode benches).
constexpr uint32_t kMaxMeasureIters = 1000;
/// Caps on Ppo.RolloutLen and Ppo.Epochs: every env stores RolloutLen
/// transitions (observations included) per update, and every epoch
/// re-packs all of them, so a value near 2^32 exhausts the daemon's
/// memory or ties up a worker for good. The largest values any caller
/// uses are 64 and 4.
constexpr uint32_t kMaxRolloutLen = 1024;
constexpr uint32_t kMaxPpoEpochs = 64;

enum class FrameType : uint16_t {
  Request = 1,
  Response = 2,
};

struct FrameHeader {
  uint16_t Version = kVersion;
  FrameType Type = FrameType::Request;
  /// Client-chosen correlation id, echoed verbatim on the response —
  /// the pipelining primitive (responses may complete out of order).
  uint64_t RequestId = 0;
  uint32_t PayloadLen = 0;
};

/// Appends the 20-byte header for \p H to \p Out.
void encodeHeader(std::vector<uint8_t> &Out, const FrameHeader &H);

/// Decodes a header from \p Data (which must hold >= kHeaderSize
/// bytes). Rejects bad magic, unknown version, unknown frame type, and
/// PayloadLen > \p MaxPayload.
Expected<FrameHeader> decodeHeader(const uint8_t *Data, size_t Size,
                                   uint32_t MaxPayload = kMaxPayload);

/// Response status on the wire: every serve-side outcome plus the
/// statuses only the network front door produces.
enum class WireStatus : uint32_t {
  Optimized = 0,
  LookupHit = 1,
  Degraded = 2,
  Cancelled = 3,
  DeadlineExceeded = 4,
  Failed = 5,
  Rejected = 6,          ///< Service draining or shut down.
  ResourceExhausted = 7, ///< Per-connection quota or rate limit hit.
  InvalidRequest = 8,    ///< Frame decoded, payload did not.
};

const char *statusName(WireStatus St);
WireStatus toWireStatus(serve::OptimizeResponse::Status St);

/// What a response frame carries: the full resolution surface of an
/// OptimizeResponse minus the server-side-only bulk (training series,
/// program listing, policy blob) — plus the result summary scalars a
/// client dashboards on. Binary is the exact serialized cubin.
struct WireResponse {
  WireStatus St = WireStatus::Failed;
  std::string Key;
  /// The winner binary (empty Data when the response carries none —
  /// rejections, deadline expiries, failures).
  bool HasBinary = false;
  cubin::CubinFile Binary;
  bool Persisted = false;
  std::string DegradedFrom;
  std::string WarmStartedFrom;
  std::string Error;
  double WallMs = 0.0;
  // Result summary (Optimized responses; defaults otherwise).
  bool AutotuneValid = false;
  bool Verified = false;
  double TritonUs = 0.0;
  double OptimizedUs = 0.0;
  uint64_t TrainingUpdates = 0;
  uint64_t WarmStartTensors = 0;
};

/// Flattens a service response into its wire summary.
WireResponse summarizeResponse(const serve::OptimizeResponse &R);

/// Encodes a complete frame (header + payload).
std::vector<uint8_t> encodeRequestFrame(const serve::OptimizeRequest &R,
                                        uint64_t RequestId);
std::vector<uint8_t> encodeResponseFrame(const WireResponse &R,
                                         uint64_t RequestId);

/// Decodes a payload previously framed by the encoder above. Strict:
/// any truncation, embedded-cubin decode failure, out-of-range enum
/// value or trailing byte is an error. A request config whose
/// Ppo.MiniBatches, Game.Measure.RepeatIters or
/// AutotuneMeasure.RepeatIters is zero is an error too: a job divides
/// by each of them. So is a config above one of the caps above.
Expected<serve::OptimizeRequest> decodeRequestPayload(const uint8_t *Data,
                                                      size_t Size);
Expected<WireResponse> decodeResponsePayload(const uint8_t *Data,
                                             size_t Size);

} // namespace net
} // namespace cuasmrl

#endif // CUASMRL_NET_WIRE_H
