//===- rl/Adam.h - Adam optimizer + gradient clipping -------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adam with the PPO-conventional epsilon (1e-5) and global-norm
/// gradient clipping, per the implementation-details study [11].
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_ADAM_H
#define CUASMRL_RL_ADAM_H

#include "rl/Tensor.h"

namespace cuasmrl {
namespace rl {

/// Adam over a fixed parameter list.
class Adam {
public:
  explicit Adam(std::vector<Tensor> Params, double Lr = 2.5e-4,
                double Beta1 = 0.9, double Beta2 = 0.999,
                double Eps = 1e-5);

  /// Applies one update from the accumulated gradients.
  void step();
  /// Clears gradients of every parameter.
  void zeroGrad();

  void setLr(double NewLr) { Lr = NewLr; }
  double lr() const { return Lr; }

  /// First and second moment estimates, one vector per parameter.
  const std::vector<std::vector<float>> &firstMoments() const { return M; }
  const std::vector<std::vector<float>> &secondMoments() const { return V; }

private:
  std::vector<Tensor> Params;
  std::vector<std::vector<float>> M, V;
  double Lr, Beta1, Beta2, Eps;
  long T = 0;
};

/// Scales gradients so their global L2 norm is at most \p MaxNorm.
/// \returns the pre-clip norm.
double clipGradNorm(const std::vector<Tensor> &Params, double MaxNorm);

} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_ADAM_H
