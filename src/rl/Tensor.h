//===- rl/Tensor.h - Minimal reverse-mode autograd tensors -------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compact dynamic-graph autograd engine sized for the paper's agent:
/// 1-D/2-D/3-D float tensors, the op set PPO needs (conv1d, linear,
/// activations, masked log-softmax, reductions, elementwise arithmetic)
/// and reverse-mode differentiation over the recorded tape. A PPO
/// minibatch is one graph: the network ops take a batch of samples
/// (rows for linear and the row-wise ops, packed ragged segments for
/// the convolutions and pools), and every op computes each sample's
/// elements with exactly the arithmetic of a batch of one.
///
//===----------------------------------------------------------------------===//

#ifndef CUASMRL_RL_TENSOR_H
#define CUASMRL_RL_TENSOR_H

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace cuasmrl {
namespace rl {

/// Graph node: storage, gradient and the backward closure.
struct TensorNode {
  std::vector<float> Data;
  std::vector<float> Grad;
  std::vector<size_t> Shape;
  bool RequiresGrad = false;
  /// Propagates this->Grad into the parents' Grad buffers.
  std::function<void()> Backward;
  std::vector<std::shared_ptr<TensorNode>> Parents;
  /// Traversal bookkeeping for topological sort.
  int Visited = 0;

  size_t size() const { return Data.size(); }
};

/// Value-semantics handle over a graph node.
class Tensor {
public:
  Tensor() = default;
  explicit Tensor(std::shared_ptr<TensorNode> N) : N(std::move(N)) {}

  /// \name Construction
  /// @{
  static Tensor zeros(std::vector<size_t> Shape, bool RequiresGrad = false);
  static Tensor fromVector(std::vector<float> Data,
                           std::vector<size_t> Shape,
                           bool RequiresGrad = false);
  static Tensor scalar(float Value, bool RequiresGrad = false);
  /// @}

  bool valid() const { return N != nullptr; }
  const std::vector<size_t> &shape() const { return N->Shape; }
  size_t size() const { return N->size(); }
  std::vector<float> &data() { return N->Data; }
  const std::vector<float> &data() const { return N->Data; }
  std::vector<float> &grad() { return N->Grad; }
  const std::vector<float> &grad() const { return N->Grad; }
  bool requiresGrad() const { return N->RequiresGrad; }
  float item() const { return N->Data.at(0); }

  std::shared_ptr<TensorNode> node() const { return N; }

  /// Runs reverse-mode differentiation from this (scalar) tensor.
  void backward();

  /// Zeroes the gradient buffer.
  void zeroGrad();

private:
  std::shared_ptr<TensorNode> N;
};

/// \name Elementwise ops (same-shape operands)
/// @{
Tensor add(const Tensor &A, const Tensor &B);
Tensor sub(const Tensor &A, const Tensor &B);
Tensor mul(const Tensor &A, const Tensor &B);
Tensor minElem(const Tensor &A, const Tensor &B);
Tensor neg(const Tensor &A);
Tensor expT(const Tensor &A);
Tensor relu(const Tensor &A);
Tensor tanhT(const Tensor &A);
Tensor clampRange(const Tensor &A, float Lo, float Hi);
Tensor scalarMul(const Tensor &A, float S);
Tensor scalarAdd(const Tensor &A, float S);
/// @}

/// \name Reductions / shape ops
/// @{
Tensor sumT(const Tensor &A);                 ///< -> scalar
Tensor meanT(const Tensor &A);                ///< -> scalar
/// Sum over the last axis: [N, K] -> [N] (a 1-D tensor is one row).
Tensor sumRows(const Tensor &A);
/// Row by row concatenation: [R, M] and [R, N] -> [R, M + N].
Tensor concat(const Tensor &A, const Tensor &B);
/// 1-D pick -> [1].
Tensor gather(const Tensor &A, size_t Index);
/// One pick per row: [R, K] and R indices -> [R].
Tensor gather(const Tensor &A, const std::vector<size_t> &Indices);
/// @}

/// \name Neural-network ops
///
/// Packed segments: the convolutions and pools take \p Lengths, the
/// row counts of the samples packed one after another along a [C, L]
/// tensor's length axis (sample b spans the Lengths[b] columns after
/// those of samples 0..b-1). Each sample is convolved and pooled on
/// its own, with same-padding at its own edges; an empty \p Lengths
/// means one sample spanning the whole axis.
/// @{
/// y = W x + b row by row: W [Out, In], x [R, In] (or [In], one row),
/// b [Out] -> [R, Out].
Tensor linear(const Tensor &W, const Tensor &X, const Tensor &B);
/// Same-padded 1-D convolution: X [Cin, L], W [Cout, Cin, K], B [Cout]
/// -> [Cout, L]. K must be odd.
Tensor conv1d(const Tensor &X, const Tensor &W, const Tensor &B,
              const std::vector<size_t> &Lengths = {});
/// Mean over each sample's length: [C, L] -> [Samples, C].
Tensor meanPool(const Tensor &X, const std::vector<size_t> &Lengths = {});
/// Max over each sample's length: [C, L] -> [Samples, C].
Tensor maxPool(const Tensor &X, const std::vector<size_t> &Lengths = {});
/// Sets masked-out entries (Mask[i] == 0) to -1e9; gradient flows only
/// through kept entries. A [A]-shaped op for invalid-action masking.
Tensor maskedFill(const Tensor &A, const std::vector<uint8_t> &Mask);
/// Numerically stable log-softmax over the last axis (each row of a
/// [R, K] tensor; a 1-D tensor is one row).
Tensor logSoftmax(const Tensor &A);
/// @}

} // namespace rl
} // namespace cuasmrl

#endif // CUASMRL_RL_TENSOR_H
