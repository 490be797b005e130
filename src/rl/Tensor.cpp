//===- rl/Tensor.cpp -----------------------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/Tensor.h"

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
  N->Grad.assign(Total, 0.0f);
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
    for (size_t I = 0; I < S->size(); ++I)
      if (An->Data[I] > 0.0f)
        An->Grad[I] += S->Grad[I];
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

/// Output positions [Lo, Hi) whose tap \p T reads an in-bounds input
/// (input position P + T - Pad in [0, L)). Empty (Lo >= Hi) when the tap
/// misses every position, e.g. an outer tap of a program shorter than
/// the kernel's half-width.
struct TapSpan {
  size_t Lo, Hi;
};

TapSpan tapSpan(size_t T, size_t Pad, size_t L) {
  size_t Lo = T < Pad ? Pad - T : 0;
  size_t Shift = T > Pad ? T - Pad : 0;
  size_t Hi = Shift < L ? L - Shift : 0;
  return {Lo, Hi};
}

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
// terms in ascending (O, P). The loops are arranged so each innermost
// loop runs over a clamped range without a bounds branch, never by
// reordering the sum of any one element.
Tensor rl::conv1d(const Tensor &X, const Tensor &W, const Tensor &B,
                  const std::vector<size_t> &Lengths) {
  assert(X.shape().size() == 2 && W.shape().size() == 3);
  size_t Cin = X.shape()[0], Total = X.shape()[1];
  size_t Cout = W.shape()[0], K = W.shape()[2];
  assert(W.shape()[1] == Cin && B.size() == Cout && K % 2 == 1);
  size_t Pad = K / 2;
  auto Off = segmentOffsets(Lengths, Total);
  size_t Samples = Off->size() - 1;

  auto N = makeNode({Cout, Total}, {X.node(), W.node(), B.node()});
  for (size_t O = 0; O < Cout; ++O) {
    float *Out = N->Data.data() + O * Total;
    std::fill(Out, Out + Total, B.data()[O]);
    for (size_t C = 0; C < Cin; ++C) {
      const float *XRow = X.data().data() + C * Total;
      const float *WRow = W.data().data() + (O * Cin + C) * K;
      for (size_t T = 0; T < K; ++T) {
        float Wt = WRow[T];
        for (size_t Sm = 0; Sm < Samples; ++Sm) {
          size_t Base = (*Off)[Sm], L = (*Off)[Sm + 1] - Base;
          TapSpan Span = tapSpan(T, Pad, L);
          if (Span.Lo >= Span.Hi)
            continue;
          float *Dst = Out + Base + Span.Lo;
          const float *Src = XRow + Base + (Span.Lo + T - Pad);
          for (size_t I = 0, E = Span.Hi - Span.Lo; I < E; ++I)
            Dst[I] += Wt * Src[I];
        }
      }
    }
  }
  auto Xn = X.node(), Wn = W.node(), Bn = B.node();
  std::weak_ptr<TensorNode> Self = N;
  N->Backward = [Xn, Wn, Bn, Self, Off, Samples, Cin, Cout, Total, K, Pad] {
    auto S = Self.lock();
    // Weight and bias gradients: samples in order and P ascending within
    // each, outside T and C, with the valid taps of each P clamped once.
    // The weight gradient is summed in a [O, T, C] copy that starts from
    // its current values, against a [L, C] copy of the input, so the
    // innermost loop runs over contiguous channels; each element still
    // gets its terms in (sample, P) order.
    std::vector<float> XT(Total * Cin), WG(Cout * K * Cin);
    for (size_t C = 0; C < Cin; ++C)
      for (size_t Q = 0; Q < Total; ++Q)
        XT[Q * Cin + C] = Xn->Data[C * Total + Q];
    for (size_t O = 0; O < Cout; ++O)
      for (size_t C = 0; C < Cin; ++C)
        for (size_t T = 0; T < K; ++T)
          WG[(O * K + T) * Cin + C] = Wn->Grad[(O * Cin + C) * K + T];
    for (size_t O = 0; O < Cout; ++O) {
      for (size_t Sm = 0; Sm < Samples; ++Sm) {
        size_t Base = (*Off)[Sm], L = (*Off)[Sm + 1] - Base;
        for (size_t P = 0; P < L; ++P) {
          float G = S->Grad[O * Total + Base + P];
          if (G == 0.0f)
            continue;
          Bn->Grad[O] += G;
          size_t TLo = P < Pad ? Pad - P : 0;
          size_t THi = std::min(K, L - P + Pad);
          for (size_t T = TLo; T < THi; ++T) {
            float *Dst = WG.data() + (O * K + T) * Cin;
            const float *Src = XT.data() + (Base + P + T - Pad) * Cin;
            for (size_t C = 0; C < Cin; ++C)
              Dst[C] += G * Src[C];
          }
        }
      }
    }
    for (size_t O = 0; O < Cout; ++O)
      for (size_t C = 0; C < Cin; ++C)
        for (size_t T = 0; T < K; ++T)
          Wn->Grad[(O * Cin + C) * K + T] = WG[(O * K + T) * Cin + C];
    // Input gradient (skipped for inputs that take none, such as the
    // observation): T descending outside P, so each input position still
    // receives its terms in ascending P. Zero-gradient terms are added
    // rather than skipped: with finite weights that adds +-0, and
    // x + (+-0) == x for every gradient, since a sum of floats started
    // at +0 is never -0.
    if (!Xn->RequiresGrad)
      return;
    for (size_t O = 0; O < Cout; ++O) {
      const float *GRow = S->Grad.data() + O * Total;
      for (size_t C = 0; C < Cin; ++C) {
        float *XGrad = Xn->Grad.data() + C * Total;
        const float *WRow = Wn->Data.data() + (O * Cin + C) * K;
        for (size_t T = K; T-- > 0;) {
          float Wt = WRow[T];
          for (size_t Sm = 0; Sm < Samples; ++Sm) {
            size_t Base = (*Off)[Sm], L = (*Off)[Sm + 1] - Base;
            TapSpan Span = tapSpan(T, Pad, L);
            if (Span.Lo >= Span.Hi)
              continue;
            float *Dst = XGrad + Base + (Span.Lo + T - Pad);
            const float *Src = GRow + Base + Span.Lo;
            for (size_t I = 0, E = Span.Hi - Span.Lo; I < E; ++I)
              Dst[I] += Src[I] * Wt;
          }
        }
      }
    }
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
