//===- rl/Tensor.cpp -----------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/Tensor.h"

#include "rl/ConvKernels.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>

using namespace cuasmrl;
using namespace cuasmrl::rl;

Tensor Tensor::zeros(std::vector<size_t> Shape, bool RequiresGrad) {
  auto N = std::make_shared<TensorNode>();
  size_t Total = 1;
  for (size_t D : Shape)
    Total *= D;
  N->Data.assign(Total, 0.0f);
  N->Grad.assign(Total, 0.0f);
  N->Shape = std::move(Shape);
  N->RequiresGrad = RequiresGrad;
  return Tensor(N);
}

Tensor Tensor::fromVector(std::vector<float> Data, std::vector<size_t> Shape,
                          bool RequiresGrad) {
  auto N = std::make_shared<TensorNode>();
  size_t Total = 1;
  for (size_t D : Shape)
    Total *= D;
  assert(Total == Data.size() && "shape does not match data size");
  N->Grad.assign(Data.size(), 0.0f);
  N->Data = std::move(Data);
  N->Shape = std::move(Shape);
  N->RequiresGrad = RequiresGrad;
  return Tensor(N);
}

Tensor Tensor::scalar(float Value, bool RequiresGrad) {
  return fromVector({Value}, {1}, RequiresGrad);
}

void Tensor::zeroGrad() { std::fill(N->Grad.begin(), N->Grad.end(), 0.0f); }

void Tensor::backward() {
  assert(N->size() == 1 && "backward() expects a scalar loss");
  // Topological order by iterative DFS.
  std::vector<TensorNode *> Order;
  std::vector<TensorNode *> Stack = {N.get()};
  while (!Stack.empty()) {
    TensorNode *Cur = Stack.back();
    if (Cur->Visited == 2) {
      Stack.pop_back();
      continue;
    }
    if (Cur->Visited == 1) {
      Cur->Visited = 2;
      // An op's gradient buffer is made here, by the first backward
      // that reaches it, so inference forwards never allocate one.
      if (Cur->Grad.size() != Cur->size())
        Cur->Grad.assign(Cur->size(), 0.0f);
      Order.push_back(Cur);
      Stack.pop_back();
      continue;
    }
    Cur->Visited = 1;
    for (const auto &P : Cur->Parents)
      if (P->Visited == 0)
        Stack.push_back(P.get());
  }
  N->Grad[0] = 1.0f;
  for (auto It = Order.rbegin(); It != Order.rend(); ++It) {
    if ((*It)->Backward)
      (*It)->Backward();
    (*It)->Visited = 0;
  }
}

namespace {

std::shared_ptr<TensorNode> makeNode(std::vector<size_t> Shape,
                                     std::vector<std::shared_ptr<TensorNode>>
                                         Parents) {
  auto N = std::make_shared<TensorNode>();
  size_t Total = 1;
  for (size_t D : Shape)
    Total *= D;
  N->Data.assign(Total, 0.0f);
  N->Shape = std::move(Shape);
  for (const auto &P : Parents)
    N->RequiresGrad = N->RequiresGrad || P->RequiresGrad;
  N->Parents = std::move(Parents);
  return N;
}

} // namespace

Tensor rl::add(const Tensor &A, const Tensor &B) {
  assert(A.size() == B.size());
  auto N = makeNode(A.shape(), {A.node(), B.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] + B.data()[I];
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I) {
      An->Grad[I] += S->Grad[I];
      Bn->Grad[I] += S->Grad[I];
    }
  };
  return Tensor(N);
}

Tensor rl::sub(const Tensor &A, const Tensor &B) {
  assert(A.size() == B.size());
  auto N = makeNode(A.shape(), {A.node(), B.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] - B.data()[I];
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I) {
      An->Grad[I] += S->Grad[I];
      Bn->Grad[I] -= S->Grad[I];
    }
  };
  return Tensor(N);
}

Tensor rl::mul(const Tensor &A, const Tensor &B) {
  assert(A.size() == B.size());
  auto N = makeNode(A.shape(), {A.node(), B.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] * B.data()[I];
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I) {
      An->Grad[I] += S->Grad[I] * Bn->Data[I];
      Bn->Grad[I] += S->Grad[I] * An->Data[I];
    }
  };
  return Tensor(N);
}

Tensor rl::minElem(const Tensor &A, const Tensor &B) {
  assert(A.size() == B.size());
  auto N = makeNode(A.shape(), {A.node(), B.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::min(A.data()[I], B.data()[I]);
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I) {
      if (An->Data[I] <= Bn->Data[I])
        An->Grad[I] += S->Grad[I];
      else
        Bn->Grad[I] += S->Grad[I];
    }
  };
  return Tensor(N);
}

Tensor rl::neg(const Tensor &A) { return scalarMul(A, -1.0f); }

Tensor rl::expT(const Tensor &A) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::exp(A.data()[I]);
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I] * S->Data[I];
  };
  return Tensor(N);
}

Tensor rl::relu(const Tensor &A) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::max(0.0f, A.data()[I]);
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    // A select, not a branch (the sign of an activation is a coin
    // flip): a blocked term adds +0, which leaves a gradient unchanged
    // since none is ever -0.
    const float *In = An->Data.data(), *Up = S->Grad.data();
    float *Down = An->Grad.data();
    for (size_t I = 0, E = S->size(); I < E; ++I) {
      const float G = Up[I];
      Down[I] += In[I] > 0.0f ? G : 0.0f;
    }
  };
  return Tensor(N);
}

Tensor rl::tanhT(const Tensor &A) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::tanh(A.data()[I]);
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I] * (1.0f - S->Data[I] * S->Data[I]);
  };
  return Tensor(N);
}

Tensor rl::clampRange(const Tensor &A, float Lo, float Hi) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = std::clamp(A.data()[I], Lo, Hi);
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Lo, Hi] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      if (An->Data[I] > Lo && An->Data[I] < Hi)
        An->Grad[I] += S->Grad[I];
  };
  return Tensor(N);
}

Tensor rl::scalarMul(const Tensor &A, float Sc) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] * Sc;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Sc] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I] * Sc;
  };
  return Tensor(N);
}

Tensor rl::scalarAdd(const Tensor &A, float Sc) {
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = A.data()[I] + Sc;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      An->Grad[I] += S->Grad[I];
  };
  return Tensor(N);
}

Tensor rl::sumT(const Tensor &A) {
  auto N = makeNode({1}, {A.node()});
  float Total = 0.0f;
  for (float V : A.data())
    Total += V;
  N->Data[0] = Total;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self] {
    auto S = Self.lock();
    for (size_t I = 0; I < An->size(); ++I)
      An->Grad[I] += S->Grad[0];
  };
  return Tensor(N);
}

Tensor rl::meanT(const Tensor &A) {
  return scalarMul(sumT(A), 1.0f / static_cast<float>(A.size()));
}

Tensor rl::sumRows(const Tensor &A) {
  size_t K = A.shape().back();
  size_t Rows = A.size() / K;
  auto N = makeNode({Rows}, {A.node()});
  for (size_t R = 0; R < Rows; ++R) {
    float Total = 0.0f;
    for (size_t I = 0; I < K; ++I)
      Total += A.data()[R * K + I];
    N->Data[R] = Total;
  }
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, K] {
    auto S = Self.lock();
    for (size_t I = 0; I < An->size(); ++I)
      An->Grad[I] += S->Grad[I / K];
  };
  return Tensor(N);
}

Tensor rl::concat(const Tensor &A, const Tensor &B) {
  assert(A.shape().size() == 2 && B.shape().size() == 2 &&
         A.shape()[0] == B.shape()[0] && "concat takes [R, M] and [R, N]");
  size_t Rows = A.shape()[0], M = A.shape()[1], Nb = B.shape()[1];
  auto N = makeNode({Rows, M + Nb}, {A.node(), B.node()});
  for (size_t R = 0; R < Rows; ++R) {
    float *Dst = N->Data.data() + R * (M + Nb);
    std::copy_n(A.data().data() + R * M, M, Dst);
    std::copy_n(B.data().data() + R * Nb, Nb, Dst + M);
  }
  auto An = A.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Bn, Self, Rows, M, Nb] {
    auto S = Self.lock();
    for (size_t R = 0; R < Rows; ++R) {
      const float *G = S->Grad.data() + R * (M + Nb);
      for (size_t I = 0; I < M; ++I)
        An->Grad[R * M + I] += G[I];
      for (size_t I = 0; I < Nb; ++I)
        Bn->Grad[R * Nb + I] += G[M + I];
    }
  };
  return Tensor(N);
}

Tensor rl::gather(const Tensor &A, size_t Index) {
  return gather(A, std::vector<size_t>{Index});
}

Tensor rl::gather(const Tensor &A, const std::vector<size_t> &Indices) {
  size_t Rows = Indices.size();
  assert(Rows > 0 && A.size() % Rows == 0);
  size_t K = A.size() / Rows;
  auto N = makeNode({Rows}, {A.node()});
  auto Picks = std::make_shared<std::vector<size_t>>(Rows);
  for (size_t R = 0; R < Rows; ++R) {
    assert(Indices[R] < K);
    (*Picks)[R] = R * K + Indices[R];
    N->Data[R] = A.data()[(*Picks)[R]];
  }
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Picks] {
    auto S = Self.lock();
    for (size_t R = 0; R < Picks->size(); ++R)
      An->Grad[(*Picks)[R]] += S->Grad[R];
  };
  return Tensor(N);
}

Tensor rl::linear(const Tensor &W, const Tensor &X, const Tensor &B) {
  assert(W.shape().size() == 2 && "weight must be [Out, In]");
  size_t Out = W.shape()[0], In = W.shape()[1];
  assert(X.size() % In == 0 && B.size() == Out);
  size_t Rows = X.size() / In;
  auto N = makeNode({Rows, Out}, {W.node(), X.node(), B.node()});
  for (size_t R = 0; R < Rows; ++R) {
    const float *XRow = X.data().data() + R * In;
    for (size_t O = 0; O < Out; ++O) {
      float Acc = B.data()[O];
      const float *Row = W.data().data() + O * In;
      for (size_t I = 0; I < In; ++I)
        Acc += Row[I] * XRow[I];
      N->Data[R * Out + O] = Acc;
    }
  }
  auto Wn = W.node(), Xn = X.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  // Rows in order: each weight and bias gradient element receives row
  // 0's term, then row 1's, as a graph per row would give them.
  N->Backward = [Wn, Xn, Bn, Self, Out, In, Rows] {
    auto S = Self.lock();
    for (size_t R = 0; R < Rows; ++R) {
      const float *XData = Xn->Data.data() + R * In;
      float *XGrad = Xn->Grad.data() + R * In;
      for (size_t O = 0; O < Out; ++O) {
        float G = S->Grad[R * Out + O];
        if (G == 0.0f)
          continue;
        Bn->Grad[O] += G;
        float *WRow = Wn->Grad.data() + O * In;
        const float *WData = Wn->Data.data() + O * In;
        for (size_t I = 0; I < In; ++I) {
          WRow[I] += G * XData[I];
          XGrad[I] += G * WData[I];
        }
      }
    }
  };
  return Tensor(N);
}

namespace {

/// Column offsets of the samples packed along a length axis of \p Total
/// columns: sample b spans [Off[b], Off[b + 1]). An empty \p Lengths
/// is one sample spanning the axis.
std::shared_ptr<const std::vector<size_t>>
segmentOffsets(const std::vector<size_t> &Lengths, size_t Total) {
  auto Off = std::make_shared<std::vector<size_t>>(1, 0);
  if (Lengths.empty()) {
    Off->push_back(Total);
    return Off;
  }
  for (size_t L : Lengths) {
    assert(L > 0 && "a packed sample needs at least one row");
    Off->push_back(Off->back() + L);
  }
  assert(Off->back() == Total && "segment lengths must cover the axis");
  return Off;
}

} // namespace

// Summation order is part of conv1d's contract (docs/TRAINING.md): every
// output element receives its bias, then its (C, T) terms in ascending
// order; every weight and bias gradient element receives its terms in
// ascending (sample, P); every input gradient element receives its
// terms in ascending (O, P). The register-blocked kernels in
// rl/ConvKernels.cpp keep it at every SIMD width.
Tensor rl::conv1d(const Tensor &X, const Tensor &W, const Tensor &B,
                  const std::vector<size_t> &Lengths) {
  assert(X.shape().size() == 2 && W.shape().size() == 3);
  size_t Cin = X.shape()[0], Total = X.shape()[1];
  size_t Cout = W.shape()[0], K = W.shape()[2];
  assert(W.shape()[1] == Cin && B.size() == Cout && K % 2 == 1);
  auto Off = segmentOffsets(Lengths, Total);
  const conv::Geometry G{Cin, Cout, K, Total, Off->data(), Off->size() - 1};
  const conv::Kernels *Kern = &conv::selected();

  auto N = makeNode({Cout, Total}, {X.node(), W.node(), B.node()});
  Kern->Forward(G, X.data().data(), W.data().data(), B.data().data(),
                N->Data.data());
  auto Xn = X.node(), Wn = W.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  // Off keeps G.Offsets alive for the closure.
  N->Backward = [Xn, Wn, Bn, Self, Off, G, Kern] {
    auto S = Self.lock();
    Kern->WeightGrad(G, Xn->Data.data(), S->Grad.data(), Wn->Grad.data(),
                     Bn->Grad.data());
    // Skipped for inputs that take no gradient, such as the observation.
    if (Xn->RequiresGrad)
      Kern->InputGrad(G, Wn->Data.data(), S->Grad.data(), Xn->Grad.data());
  };
  return Tensor(N);
}

Tensor rl::meanPool(const Tensor &X, const std::vector<size_t> &Lengths) {
  assert(X.shape().size() == 2);
  size_t C = X.shape()[0], Total = X.shape()[1];
  auto Off = segmentOffsets(Lengths, Total);
  size_t Samples = Off->size() - 1;
  auto N = makeNode({Samples, C}, {X.node()});
  for (size_t Sm = 0; Sm < Samples; ++Sm) {
    size_t Base = (*Off)[Sm], L = (*Off)[Sm + 1] - Base;
    for (size_t Ch = 0; Ch < C; ++Ch) {
      const float *Row = X.data().data() + Ch * Total + Base;
      float Acc = 0.0f;
      for (size_t P = 0; P < L; ++P)
        Acc += Row[P];
      N->Data[Sm * C + Ch] = Acc / static_cast<float>(L);
    }
  }
  auto Xn = X.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Self, Off, Samples, C, Total] {
    auto S = Self.lock();
    for (size_t Sm = 0; Sm < Samples; ++Sm) {
      size_t Base = (*Off)[Sm], L = (*Off)[Sm + 1] - Base;
      for (size_t Ch = 0; Ch < C; ++Ch) {
        float G = S->Grad[Sm * C + Ch] / static_cast<float>(L);
        float *Row = Xn->Grad.data() + Ch * Total + Base;
        for (size_t P = 0; P < L; ++P)
          Row[P] += G;
      }
    }
  };
  return Tensor(N);
}

Tensor rl::maxPool(const Tensor &X, const std::vector<size_t> &Lengths) {
  assert(X.shape().size() == 2);
  size_t C = X.shape()[0], Total = X.shape()[1];
  auto Off = segmentOffsets(Lengths, Total);
  size_t Samples = Off->size() - 1;
  auto N = makeNode({Samples, C}, {X.node()});
  // The first maximum of each sample's row, as a flat index into X.
  auto ArgMax = std::make_shared<std::vector<size_t>>(Samples * C);
  for (size_t Sm = 0; Sm < Samples; ++Sm) {
    size_t Base = (*Off)[Sm], L = (*Off)[Sm + 1] - Base;
    for (size_t Ch = 0; Ch < C; ++Ch) {
      const float *Row = X.data().data() + Ch * Total + Base;
      size_t Best = 0;
      for (size_t P = 1; P < L; ++P)
        if (Row[P] > Row[Best])
          Best = P;
      (*ArgMax)[Sm * C + Ch] = Ch * Total + Base + Best;
      N->Data[Sm * C + Ch] = Row[Best];
    }
  }
  auto Xn = X.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Self, ArgMax] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      Xn->Grad[(*ArgMax)[I]] += S->Grad[I];
  };
  return Tensor(N);
}

Tensor rl::maskedFill(const Tensor &A, const std::vector<uint8_t> &Mask) {
  assert(A.size() == Mask.size());
  auto N = makeNode(A.shape(), {A.node()});
  auto MaskCopy = std::make_shared<std::vector<uint8_t>>(Mask);
  for (size_t I = 0; I < N->size(); ++I)
    N->Data[I] = Mask[I] ? A.data()[I] : -1e9f;
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, MaskCopy] {
    auto S = Self.lock();
    for (size_t I = 0; I < S->size(); ++I)
      if ((*MaskCopy)[I])
        An->Grad[I] += S->Grad[I];
  };
  return Tensor(N);
}

Tensor rl::logSoftmax(const Tensor &A) {
  size_t K = A.shape().back();
  size_t Rows = A.size() / K;
  auto N = makeNode(A.shape(), {A.node()});
  for (size_t R = 0; R < Rows; ++R) {
    const float *In = A.data().data() + R * K;
    float Max = -1e30f;
    for (size_t I = 0; I < K; ++I)
      Max = std::max(Max, In[I]);
    float Sum = 0.0f;
    for (size_t I = 0; I < K; ++I)
      Sum += std::exp(In[I] - Max);
    float LogZ = Max + std::log(Sum);
    for (size_t I = 0; I < K; ++I)
      N->Data[R * K + I] = In[I] - LogZ;
  }
  auto An = A.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [An, Self, Rows, K] {
    auto S = Self.lock();
    for (size_t R = 0; R < Rows; ++R) {
      const float *G = S->Grad.data() + R * K;
      const float *Y = S->Data.data() + R * K;
      float GradSum = 0.0f;
      for (size_t I = 0; I < K; ++I)
        GradSum += G[I];
      for (size_t I = 0; I < K; ++I)
        An->Grad[R * K + I] += G[I] - std::exp(Y[I]) * GradSum;
    }
  };
  return Tensor(N);
}
