//===- net/Wire.cpp -------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "net/Wire.h"

#include "kernels/Workload.h"

#include <cstring>

using namespace cuasmrl;
using namespace cuasmrl::net;

namespace {

//===----------------------------------------------------------------------===//
// Little-endian primitives
//===----------------------------------------------------------------------===//

void putU8(std::vector<uint8_t> &Out, uint8_t V) { Out.push_back(V); }

void putU16(std::vector<uint8_t> &Out, uint16_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
}

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int Shift = 0; Shift < 32; Shift += 8)
    Out.push_back(static_cast<uint8_t>(V >> Shift));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int Shift = 0; Shift < 64; Shift += 8)
    Out.push_back(static_cast<uint8_t>(V >> Shift));
}

/// Doubles travel as their IEEE-754 bit pattern: exact round-trip, no
/// decimal formatting anywhere near the determinism contract.
void putDouble(std::vector<uint8_t> &Out, double V) {
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(V), "double is not 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  putU64(Out, Bits);
}

void putBool(std::vector<uint8_t> &Out, bool V) {
  putU8(Out, V ? 1 : 0);
}

void putString(std::vector<uint8_t> &Out, const std::string &S) {
  putU32(Out, static_cast<uint32_t>(S.size()));
  Out.insert(Out.end(), S.begin(), S.end());
}

void putBytes(std::vector<uint8_t> &Out, const std::vector<uint8_t> &B) {
  putU32(Out, static_cast<uint32_t>(B.size()));
  Out.insert(Out.end(), B.begin(), B.end());
}

/// Strict sequential reader over one payload. The first failed read
/// latches an error; every later read returns a harmless default so
/// decoders can run straight-line and check once. atEnd() makes
/// trailing garbage an error too.
class Cursor {
public:
  Cursor(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  uint8_t u8() {
    uint8_t V = 0;
    take(&V, 1, "u8");
    return V;
  }
  uint16_t u16() {
    uint8_t B[2] = {0, 0};
    take(B, 2, "u16");
    return static_cast<uint16_t>(B[0] | (B[1] << 8));
  }
  uint32_t u32() {
    uint8_t B[4] = {0, 0, 0, 0};
    take(B, 4, "u32");
    uint32_t V = 0;
    for (int I = 3; I >= 0; --I)
      V = (V << 8) | B[I];
    return V;
  }
  uint64_t u64() {
    uint8_t B[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    take(B, 8, "u64");
    uint64_t V = 0;
    for (int I = 7; I >= 0; --I)
      V = (V << 8) | B[I];
    return V;
  }
  double f64() {
    uint64_t Bits = u64();
    double V = 0.0;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }
  bool boolean() {
    uint8_t V = u8();
    if (V > 1)
      fail("boolean byte out of range");
    return V == 1;
  }
  std::string str() {
    uint32_t Len = u32();
    if (!ok())
      return std::string();
    if (Len > Size - Pos) {
      fail("string length exceeds payload");
      return std::string();
    }
    std::string S(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return S;
  }
  std::vector<uint8_t> bytes() {
    uint32_t Len = u32();
    if (!ok())
      return {};
    if (Len > Size - Pos) {
      fail("byte-array length exceeds payload");
      return {};
    }
    std::vector<uint8_t> B(Data + Pos, Data + Pos + Len);
    Pos += Len;
    return B;
  }

  void fail(const std::string &Why) {
    if (Err.empty())
      Err = Why;
  }

  /// Every decoded payload must consume exactly its frame's bytes.
  void atEnd() {
    if (ok() && Pos != Size)
      fail("trailing bytes after payload");
  }

private:
  void take(uint8_t *Out, size_t N, const char *What) {
    if (!ok())
      return;
    if (N > Size - Pos) {
      fail(std::string("truncated ") + What);
      return;
    }
    std::memcpy(Out, Data + Pos, N);
    Pos += N;
  }

  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  std::string Err;
};

//===----------------------------------------------------------------------===//
// Config block: exactly the result-relevant field list of
// configDigest() (serve/OptimizationService.cpp) — the wire-carried
// config must decode to the same request key the client computed.
//===----------------------------------------------------------------------===//

void putMeasure(std::vector<uint8_t> &Out, const gpusim::MeasureConfig &M) {
  putU32(Out, M.WarmupIters);
  putU32(Out, M.RepeatIters);
  putBool(Out, M.ClearL2BetweenReps);
  putDouble(Out, M.NoiseStddev);
  putU32(Out, M.MaxBlocks);
  putU64(Out, M.Seed);
}

void takeMeasure(Cursor &C, gpusim::MeasureConfig &M) {
  M.WarmupIters = C.u32();
  M.RepeatIters = C.u32();
  M.ClearL2BetweenReps = C.boolean();
  M.NoiseStddev = C.f64();
  M.MaxBlocks = C.u32();
  M.Seed = C.u64();
}

void putConfig(std::vector<uint8_t> &Out, const core::OptimizeConfig &C) {
  const auto &Entries = C.Game.Table.entries();
  putU32(Out, static_cast<uint32_t>(Entries.size()));
  for (const auto &[Key, Cycles] : Entries) {
    putString(Out, Key);
    putU32(Out, Cycles);
  }
  putDouble(Out, C.Ppo.Lr);
  putDouble(Out, C.Ppo.Gamma);
  putDouble(Out, C.Ppo.GaeLambda);
  putDouble(Out, C.Ppo.ClipCoef);
  putDouble(Out, C.Ppo.EntCoef);
  putDouble(Out, C.Ppo.VfCoef);
  putDouble(Out, C.Ppo.MaxGradNorm);
  putU32(Out, C.Ppo.RolloutLen);
  putU32(Out, C.Ppo.MiniBatches);
  putU32(Out, C.Ppo.Epochs);
  putU32(Out, C.Ppo.TotalSteps);
  putBool(Out, C.Ppo.NormAdvantage);
  putBool(Out, C.Ppo.ClipVLoss);
  putBool(Out, C.Ppo.AnnealLr);
  putU64(Out, C.Ppo.Seed);
  putU64(Out, C.Ppo.Channels);
  putU64(Out, C.Ppo.Hidden);
  putU32(Out, C.Game.EpisodeLength);
  putMeasure(Out, C.Game.Measure);
  putBool(Out, C.Game.UseActionMasking);
  putDouble(Out, C.Game.InvalidPenalty);
  putBool(Out, C.Game.CacheMeasurements);
  putBool(Out, C.Game.RecordTrace);
  putU32(Out, C.NumEnvs);
  putU32(Out, C.ProbTestRounds);
  putMeasure(Out, C.AutotuneMeasure);
  putU64(Out, C.AutotuneSeed);
  putBool(Out, C.ConditionEmbedding);
}

core::OptimizeConfig takeConfig(Cursor &C) {
  // Wall-clock-only knobs (RolloutWorkers, AutotuneWorkers) and
  // runtime wiring (SharedCache, PrivateDevice, Context) keep their
  // server-side defaults: the client has no say over how the server
  // spends its threads.
  core::OptimizeConfig Cfg;
  uint32_t TableCount = C.u32();
  Cfg.Game.Table = analysis::StallTable::empty();
  for (uint32_t I = 0; I < TableCount && C.ok(); ++I) {
    std::string Key = C.str();
    uint32_t Cycles = C.u32();
    Cfg.Game.Table.record(Key, Cycles);
  }
  Cfg.Ppo.Lr = C.f64();
  Cfg.Ppo.Gamma = C.f64();
  Cfg.Ppo.GaeLambda = C.f64();
  Cfg.Ppo.ClipCoef = C.f64();
  Cfg.Ppo.EntCoef = C.f64();
  Cfg.Ppo.VfCoef = C.f64();
  Cfg.Ppo.MaxGradNorm = C.f64();
  Cfg.Ppo.RolloutLen = C.u32();
  Cfg.Ppo.MiniBatches = C.u32();
  Cfg.Ppo.Epochs = C.u32();
  Cfg.Ppo.TotalSteps = C.u32();
  Cfg.Ppo.NormAdvantage = C.boolean();
  Cfg.Ppo.ClipVLoss = C.boolean();
  Cfg.Ppo.AnnealLr = C.boolean();
  Cfg.Ppo.Seed = C.u64();
  Cfg.Ppo.Channels = static_cast<size_t>(C.u64());
  Cfg.Ppo.Hidden = static_cast<size_t>(C.u64());
  Cfg.Game.EpisodeLength = C.u32();
  takeMeasure(C, Cfg.Game.Measure);
  Cfg.Game.UseActionMasking = C.boolean();
  Cfg.Game.InvalidPenalty = C.f64();
  Cfg.Game.CacheMeasurements = C.boolean();
  Cfg.Game.RecordTrace = C.boolean();
  Cfg.NumEnvs = C.u32();
  Cfg.ProbTestRounds = C.u32();
  takeMeasure(C, Cfg.AutotuneMeasure);
  Cfg.AutotuneSeed = C.u64();
  Cfg.ConditionEmbedding = C.boolean();
  return Cfg;
}

/// Why \p Cfg would take down the serving process rather than fail
/// one job, or empty: a zero divisor is an integer division by zero,
/// and an env pool or net above its cap exhausts the process's memory.
std::string unservableConfig(const core::OptimizeConfig &Cfg) {
  auto Zero = [](const char *Field) {
    return std::string("config field ") + Field + " must be nonzero";
  };
  auto Above = [](const char *Field, uint64_t Cap) {
    return std::string("config field ") + Field + " exceeds " +
           std::to_string(Cap);
  };
  if (Cfg.Ppo.MiniBatches == 0)
    return Zero("Ppo.MiniBatches");
  if (Cfg.Game.Measure.RepeatIters == 0)
    return Zero("Game.Measure.RepeatIters");
  if (Cfg.AutotuneMeasure.RepeatIters == 0)
    return Zero("AutotuneMeasure.RepeatIters");
  if (Cfg.NumEnvs > kMaxNumEnvs)
    return Above("NumEnvs", kMaxNumEnvs);
  if (Cfg.Ppo.Channels > kMaxPpoChannels)
    return Above("Ppo.Channels", kMaxPpoChannels);
  if (Cfg.Ppo.Hidden > kMaxPpoHidden)
    return Above("Ppo.Hidden", kMaxPpoHidden);
  if (Cfg.Ppo.RolloutLen > kMaxRolloutLen)
    return Above("Ppo.RolloutLen", kMaxRolloutLen);
  if (Cfg.Ppo.Epochs > kMaxPpoEpochs)
    return Above("Ppo.Epochs", kMaxPpoEpochs);
  if (Cfg.Game.Measure.WarmupIters > kMaxMeasureIters)
    return Above("Game.Measure.WarmupIters", kMaxMeasureIters);
  if (Cfg.Game.Measure.RepeatIters > kMaxMeasureIters)
    return Above("Game.Measure.RepeatIters", kMaxMeasureIters);
  if (Cfg.AutotuneMeasure.WarmupIters > kMaxMeasureIters)
    return Above("AutotuneMeasure.WarmupIters", kMaxMeasureIters);
  if (Cfg.AutotuneMeasure.RepeatIters > kMaxMeasureIters)
    return Above("AutotuneMeasure.RepeatIters", kMaxMeasureIters);
  return {};
}

} // namespace

//===----------------------------------------------------------------------===//
// Frame header
//===----------------------------------------------------------------------===//

void net::encodeHeader(std::vector<uint8_t> &Out, const FrameHeader &H) {
  putU32(Out, kMagic);
  putU16(Out, H.Version);
  putU16(Out, static_cast<uint16_t>(H.Type));
  putU64(Out, H.RequestId);
  putU32(Out, H.PayloadLen);
}

Expected<FrameHeader> net::decodeHeader(const uint8_t *Data, size_t Size,
                                        uint32_t MaxPayload) {
  Cursor C(Data, Size);
  if (Size < kHeaderSize)
    return Error("short frame header");
  if (C.u32() != kMagic)
    return Error("bad frame magic");
  FrameHeader H;
  H.Version = C.u16();
  if (H.Version != kVersion)
    return Error("unsupported wire version " + std::to_string(H.Version));
  uint16_t Type = C.u16();
  if (Type != static_cast<uint16_t>(FrameType::Request) &&
      Type != static_cast<uint16_t>(FrameType::Response))
    return Error("unknown frame type " + std::to_string(Type));
  H.Type = static_cast<FrameType>(Type);
  H.RequestId = C.u64();
  H.PayloadLen = C.u32();
  if (H.PayloadLen > MaxPayload)
    return Error("frame payload of " + std::to_string(H.PayloadLen) +
                 " bytes exceeds the " + std::to_string(MaxPayload) +
                 "-byte cap");
  return H;
}

//===----------------------------------------------------------------------===//
// Request
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
net::encodeRequestFrame(const serve::OptimizeRequest &R,
                        uint64_t RequestId) {
  std::vector<uint8_t> Payload;
  putU32(Payload, static_cast<uint32_t>(R.Kind));
  putU32(Payload, R.Shape.B);
  putU32(Payload, R.Shape.M);
  putU32(Payload, R.Shape.N);
  putU32(Payload, R.Shape.K);
  putU32(Payload, R.Shape.NHead);
  putU32(Payload, R.Shape.SeqLen);
  putU32(Payload, R.Shape.DHead);
  putU32(Payload, R.Shape.Rows);
  putU32(Payload, R.Shape.Cols);
  putString(Payload, R.GpuType);
  putU32(Payload, static_cast<uint32_t>(R.Priority));
  putU64(Payload, static_cast<uint64_t>(R.Timeout.count()));
  putBool(Payload, R.AllowDegraded);
  putBool(Payload, R.Config.has_value());
  if (R.Config)
    putConfig(Payload, *R.Config);

  std::vector<uint8_t> Frame;
  Frame.reserve(kHeaderSize + Payload.size());
  FrameHeader H;
  H.Type = FrameType::Request;
  H.RequestId = RequestId;
  H.PayloadLen = static_cast<uint32_t>(Payload.size());
  encodeHeader(Frame, H);
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return Frame;
}

Expected<serve::OptimizeRequest>
net::decodeRequestPayload(const uint8_t *Data, size_t Size) {
  Cursor C(Data, Size);
  serve::OptimizeRequest R;
  uint32_t Kind = C.u32();
  if (C.ok() && Kind >= kernels::allWorkloads().size())
    return Error("workload kind " + std::to_string(Kind) + " out of range");
  R.Kind = static_cast<kernels::WorkloadKind>(Kind);
  R.Shape.B = C.u32();
  R.Shape.M = C.u32();
  R.Shape.N = C.u32();
  R.Shape.K = C.u32();
  R.Shape.NHead = C.u32();
  R.Shape.SeqLen = C.u32();
  R.Shape.DHead = C.u32();
  R.Shape.Rows = C.u32();
  R.Shape.Cols = C.u32();
  R.GpuType = C.str();
  R.Priority = static_cast<int32_t>(C.u32());
  R.Timeout = std::chrono::milliseconds(static_cast<int64_t>(C.u64()));
  R.AllowDegraded = C.boolean();
  if (C.boolean())
    R.Config = takeConfig(C);
  C.atEnd();
  if (!C.ok())
    return Error("malformed request payload: " + C.error());
  if (R.Config)
    if (std::string Why = unservableConfig(*R.Config); !Why.empty())
      return Error(Why);
  return R;
}

//===----------------------------------------------------------------------===//
// Response
//===----------------------------------------------------------------------===//

const char *net::statusName(WireStatus St) {
  switch (St) {
  case WireStatus::Optimized:
    return "optimized";
  case WireStatus::LookupHit:
    return "lookup-hit";
  case WireStatus::Degraded:
    return "degraded";
  case WireStatus::Cancelled:
    return "cancelled";
  case WireStatus::DeadlineExceeded:
    return "deadline-exceeded";
  case WireStatus::Failed:
    return "failed";
  case WireStatus::Rejected:
    return "rejected";
  case WireStatus::ResourceExhausted:
    return "resource-exhausted";
  case WireStatus::InvalidRequest:
    return "invalid-request";
  }
  return "unknown";
}

WireStatus net::toWireStatus(serve::OptimizeResponse::Status St) {
  switch (St) {
  case serve::OptimizeResponse::Status::Optimized:
    return WireStatus::Optimized;
  case serve::OptimizeResponse::Status::LookupHit:
    return WireStatus::LookupHit;
  case serve::OptimizeResponse::Status::Degraded:
    return WireStatus::Degraded;
  case serve::OptimizeResponse::Status::Cancelled:
    return WireStatus::Cancelled;
  case serve::OptimizeResponse::Status::DeadlineExceeded:
    return WireStatus::DeadlineExceeded;
  case serve::OptimizeResponse::Status::Failed:
    return WireStatus::Failed;
  case serve::OptimizeResponse::Status::Rejected:
    return WireStatus::Rejected;
  }
  return WireStatus::Failed;
}

WireResponse net::summarizeResponse(const serve::OptimizeResponse &R) {
  WireResponse W;
  W.St = toWireStatus(R.St);
  W.Key = R.Key;
  W.HasBinary = W.St == WireStatus::Optimized ||
                W.St == WireStatus::LookupHit ||
                W.St == WireStatus::Degraded;
  if (W.HasBinary)
    W.Binary = R.Binary;
  W.Persisted = R.Persisted;
  W.DegradedFrom = R.DegradedFrom;
  W.WarmStartedFrom = R.WarmStartedFrom;
  W.Error = R.Error;
  W.WallMs = R.WallMs;
  if (R.St == serve::OptimizeResponse::Status::Optimized) {
    W.AutotuneValid = R.Result.AutotuneValid;
    W.Verified = R.Result.Verified;
    W.TritonUs = R.Result.TritonUs;
    W.OptimizedUs = R.Result.OptimizedUs;
    W.TrainingUpdates = R.Result.Training.size();
    W.WarmStartTensors = R.Result.WarmStartTensors;
  }
  return W;
}

std::vector<uint8_t> net::encodeResponseFrame(const WireResponse &R,
                                              uint64_t RequestId) {
  std::vector<uint8_t> Payload;
  putU32(Payload, static_cast<uint32_t>(R.St));
  putString(Payload, R.Key);
  putBool(Payload, R.HasBinary);
  if (R.HasBinary)
    putBytes(Payload, R.Binary.serialize());
  putBool(Payload, R.Persisted);
  putString(Payload, R.DegradedFrom);
  putString(Payload, R.WarmStartedFrom);
  putString(Payload, R.Error);
  putDouble(Payload, R.WallMs);
  putBool(Payload, R.AutotuneValid);
  putBool(Payload, R.Verified);
  putDouble(Payload, R.TritonUs);
  putDouble(Payload, R.OptimizedUs);
  putU64(Payload, R.TrainingUpdates);
  putU64(Payload, R.WarmStartTensors);

  std::vector<uint8_t> Frame;
  Frame.reserve(kHeaderSize + Payload.size());
  FrameHeader H;
  H.Type = FrameType::Response;
  H.RequestId = RequestId;
  H.PayloadLen = static_cast<uint32_t>(Payload.size());
  encodeHeader(Frame, H);
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  return Frame;
}

Expected<WireResponse> net::decodeResponsePayload(const uint8_t *Data,
                                                  size_t Size) {
  Cursor C(Data, Size);
  WireResponse R;
  uint32_t St = C.u32();
  if (C.ok() && St > static_cast<uint32_t>(WireStatus::InvalidRequest))
    return Error("response status " + std::to_string(St) + " out of range");
  R.St = static_cast<WireStatus>(St);
  R.Key = C.str();
  R.HasBinary = C.boolean();
  if (R.HasBinary) {
    std::vector<uint8_t> Bytes = C.bytes();
    if (C.ok()) {
      Expected<cubin::CubinFile> File = cubin::CubinFile::deserialize(Bytes);
      if (!File)
        return Error("embedded cubin: " + File.error().message());
      R.Binary = File.takeValue();
    }
  }
  R.Persisted = C.boolean();
  R.DegradedFrom = C.str();
  R.WarmStartedFrom = C.str();
  R.Error = C.str();
  R.WallMs = C.f64();
  R.AutotuneValid = C.boolean();
  R.Verified = C.boolean();
  R.TritonUs = C.f64();
  R.OptimizedUs = C.f64();
  R.TrainingUpdates = C.u64();
  R.WarmStartTensors = C.u64();
  C.atEnd();
  if (!C.ok())
    return Error("malformed response payload: " + C.error());
  return R;
}
