//===- rl/ConvKernels.h - Register-blocked conv1d kernels --------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three passes of rl::conv1d (forward, weight and bias gradient,
/// input gradient) as register-blocked kernels. One source is compiled
/// once per SIMD width: an 8-lane instance for hosts with AVX2 and a
/// 4-lane instance for baseline x86-64 (and every other target). Each
/// keeps every element's summation order (docs/TRAINING.md, "Conv
/// kernel summation order"), so all instances give the same bits.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_CONVKERNELS_H
#define CUASMRL_RL_CONVKERNELS_H

#include <cstddef>
#include <vector>

namespace cuasmrl {
namespace rl {
namespace conv {

/// One conv1d call: X [Cin, Total], W [Cout, Cin, K], B [Cout] and an
/// output [Cout, Total], with Samples samples packed along Total
/// (sample b spans columns [Offsets[b], Offsets[b + 1])). K is odd.
struct Geometry {
  size_t Cin, Cout, K, Total;
  const size_t *Offsets; ///< Samples + 1 entries.
  size_t Samples;
};

/// One compiled instance of the three passes.
struct Kernels {
  const char *Name;
  /// Whether the host CPU can run this instance.
  bool Runnable;
  /// Out = conv(X, W) + B, same-padded per sample.
  void (*Forward)(const Geometry &G, const float *X, const float *W,
                  const float *B, float *Out);
  /// Adds the weight and bias gradients of upstream gradient \p Up to
  /// \p DW and \p DB.
  void (*WeightGrad)(const Geometry &G, const float *X, const float *Up,
                     float *DW, float *DB);
  /// Adds the input gradient of upstream gradient \p Up to \p DX.
  void (*InputGrad)(const Geometry &G, const float *W, const float *Up,
                    float *DX);
};

/// Every instance compiled into this build, widest first.
const std::vector<Kernels> &instances();
/// The widest runnable instance: the one conv1d calls.
const Kernels &selected();

} // namespace conv
} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_CONVKERNELS_H
