//===- tests/rl_test.cpp - autograd + PPO tests --------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "rl/ActorCritic.h"
#include "rl/Adam.h"
#include "rl/Ppo.h"
#include "rl/RolloutRunner.h"
#include "rl/Tensor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <sstream>

using namespace cuasmrl;
using namespace cuasmrl::rl;

//===----------------------------------------------------------------------===//
// Autograd: analytic gradients vs finite differences
//===----------------------------------------------------------------------===//

namespace {

/// Numerically checks d(loss)/d(param[idx]) for a scalar-loss builder.
template <typename BuilderT>
void checkGradient(Tensor &Param, size_t Idx, BuilderT Build,
                   float Tol = 2e-2) {
  Tensor Loss = Build();
  Param.zeroGrad();
  // Clear all grads by rebuilding; backward accumulates into Param.
  Loss.backward();
  float Analytic = Param.grad()[Idx];

  float Eps = 1e-3f;
  float Orig = Param.data()[Idx];
  Param.data()[Idx] = Orig + Eps;
  float Up = Build().item();
  Param.data()[Idx] = Orig - Eps;
  float Down = Build().item();
  Param.data()[Idx] = Orig;
  float Numeric = (Up - Down) / (2 * Eps);
  EXPECT_NEAR(Analytic, Numeric, Tol * std::max(1.0f, std::fabs(Numeric)))
      << "index " << Idx;
}

} // namespace

TEST(Autograd, AddSubMul) {
  Tensor A = Tensor::fromVector({1, 2, 3}, {3}, true);
  Tensor B = Tensor::fromVector({4, -5, 6}, {3}, true);
  Tensor L = sumT(mul(add(A, B), sub(A, B)));
  L.backward();
  // d/dA sum(A^2 - B^2) = 2A; d/dB = -2B.
  for (int I = 0; I < 3; ++I) {
    EXPECT_FLOAT_EQ(A.grad()[I], 2 * A.data()[I]);
    EXPECT_FLOAT_EQ(B.grad()[I], -2 * B.data()[I]);
  }
}

TEST(Autograd, ExpLogSoftmaxFiniteDiff) {
  Tensor X = Tensor::fromVector({0.3f, -1.2f, 2.0f, 0.0f}, {4}, true);
  for (size_t I = 0; I < 4; ++I)
    checkGradient(X, I, [&] { return gather(logSoftmax(X), 2); });
}

TEST(Autograd, ReluTanhClamp) {
  Tensor X = Tensor::fromVector({-1.0f, 0.5f, 2.0f}, {3}, true);
  for (size_t I = 0; I < 3; ++I) {
    checkGradient(X, I, [&] { return sumT(relu(X)); });
    checkGradient(X, I, [&] { return sumT(tanhT(X)); });
    checkGradient(X, I, [&] { return sumT(clampRange(X, -0.7f, 1.5f)); });
    checkGradient(X, I, [&] { return sumT(expT(X)); });
  }
}

TEST(Autograd, MinElemPicksBranch) {
  Tensor A = Tensor::fromVector({1.0f, 5.0f}, {2}, true);
  Tensor B = Tensor::fromVector({3.0f, 2.0f}, {2}, true);
  Tensor L = sumT(minElem(A, B));
  L.backward();
  EXPECT_FLOAT_EQ(A.grad()[0], 1.0f);
  EXPECT_FLOAT_EQ(A.grad()[1], 0.0f);
  EXPECT_FLOAT_EQ(B.grad()[0], 0.0f);
  EXPECT_FLOAT_EQ(B.grad()[1], 1.0f);
}

TEST(Autograd, LinearFiniteDiff) {
  Rng R(3);
  Tensor W = Tensor::fromVector({0.1f, -0.2f, 0.3f, 0.4f, 0.5f, -0.6f},
                                {2, 3}, true);
  Tensor X = Tensor::fromVector({1.0f, -1.0f, 0.5f}, {3}, true);
  Tensor B = Tensor::fromVector({0.1f, 0.2f}, {2}, true);
  auto Build = [&] { return sumT(tanhT(linear(W, X, B))); };
  for (size_t I = 0; I < W.size(); ++I)
    checkGradient(W, I, Build);
  for (size_t I = 0; I < X.size(); ++I)
    checkGradient(X, I, Build);
  for (size_t I = 0; I < B.size(); ++I)
    checkGradient(B, I, Build);
}

TEST(Autograd, Conv1dFiniteDiff) {
  Tensor X = Tensor::fromVector(
      {0.5f, -0.3f, 0.8f, 0.1f, -0.7f, 0.2f, 0.4f, -0.1f}, {2, 4}, true);
  Tensor W = Tensor::fromVector(
      {0.2f, -0.1f, 0.3f, 0.4f, 0.1f, -0.2f}, {1, 2, 3}, true);
  Tensor B = Tensor::fromVector({0.05f}, {1}, true);
  auto Build = [&] { return sumT(relu(conv1d(X, W, B))); };
  for (size_t I = 0; I < W.size(); ++I)
    checkGradient(W, I, Build);
  for (size_t I = 0; I < X.size(); ++I)
    checkGradient(X, I, Build);
}

namespace {

/// Forward output and W/B/X gradients of one conv1d call.
struct ConvResult {
  std::vector<float> Out, WGrad, BGrad, XGrad;
};

/// The scalar same-padded conv1d the library kernel must match bit for
/// bit: a bounds branch per tap, one element's whole sum at a time.
/// \p G is the upstream gradient of the [Cout, L] output; the W/B/X
/// gradients accumulate onto those of \p Start.
ConvResult scalarConv1d(const std::vector<float> &X,
                        const std::vector<float> &W,
                        const std::vector<float> &B,
                        const std::vector<float> &G, const ConvResult &Start,
                        size_t Cin, size_t Cout, size_t K, size_t L) {
  ConvResult R = Start;
  R.Out.assign(Cout * L, 0.0f);
  long Pad = static_cast<long>(K / 2);
  for (size_t O = 0; O < Cout; ++O) {
    for (size_t P = 0; P < L; ++P) {
      float Acc = B[O];
      for (size_t C = 0; C < Cin; ++C) {
        const float *XRow = X.data() + C * L;
        const float *WRow = W.data() + (O * Cin + C) * K;
        for (size_t T = 0; T < K; ++T) {
          long Pos = static_cast<long>(P) + static_cast<long>(T) - Pad;
          if (Pos >= 0 && Pos < static_cast<long>(L))
            Acc += WRow[T] * XRow[Pos];
        }
      }
      R.Out[O * L + P] = Acc;
    }
  }
  for (size_t O = 0; O < Cout; ++O) {
    for (size_t P = 0; P < L; ++P) {
      float Gv = G[O * L + P];
      if (Gv == 0.0f)
        continue;
      R.BGrad[O] += Gv;
      for (size_t C = 0; C < Cin; ++C) {
        float *XGrad = R.XGrad.data() + C * L;
        const float *XRow = X.data() + C * L;
        float *WGrad = R.WGrad.data() + (O * Cin + C) * K;
        const float *WRow = W.data() + (O * Cin + C) * K;
        for (size_t T = 0; T < K; ++T) {
          long Pos = static_cast<long>(P) + static_cast<long>(T) - Pad;
          if (Pos >= 0 && Pos < static_cast<long>(L)) {
            WGrad[T] += Gv * XRow[Pos];
            XGrad[Pos] += Gv * WRow[T];
          }
        }
      }
    }
  }
  return R;
}

std::vector<float> uniformFloats(Rng &R, size_t N) {
  std::vector<float> V(N);
  for (float &F : V)
    F = static_cast<float>(R.uniformReal(-1.0, 1.0));
  return V;
}

bool sameBits(const std::vector<float> &A, const std::vector<float> &B) {
  return A.size() == B.size() &&
         std::memcmp(A.data(), B.data(), A.size() * sizeof(float)) == 0;
}

/// Runs the library conv1d on fresh tensors whose gradients hold those
/// of \p Start (as after earlier samples of a minibatch), and
/// backpropagates a loss whose upstream gradient passes through relu, so
/// it holds exact zeros. \returns the op's results and, in \p Upstream,
/// the gradient that reached the conv output.
ConvResult libraryConv1d(const std::vector<float> &X,
                         const std::vector<float> &W,
                         const std::vector<float> &B,
                         const std::vector<float> &Scale,
                         const ConvResult &Start, size_t Cin, size_t Cout,
                         size_t K, size_t L, bool XRequiresGrad,
                         std::vector<float> &Upstream) {
  Tensor Xt = Tensor::fromVector(X, {Cin, L}, XRequiresGrad);
  Tensor Wt = Tensor::fromVector(W, {Cout, Cin, K}, true);
  Tensor Bt = Tensor::fromVector(B, {Cout}, true);
  Xt.grad() = Start.XGrad;
  Wt.grad() = Start.WGrad;
  Bt.grad() = Start.BGrad;
  Tensor Y = conv1d(Xt, Wt, Bt);
  Tensor S = Tensor::fromVector(Scale, {Cout, L});
  sumT(mul(relu(Y), S)).backward();
  Upstream = Y.grad();
  return {Y.data(), Wt.grad(), Bt.grad(), Xt.grad()};
}

/// Starting gradients for a conv of this geometry: all +0, or (when
/// \p Seeded) random values.
ConvResult startGrads(Rng &R, bool Seeded, size_t Cin, size_t Cout,
                      size_t K, size_t L) {
  ConvResult S;
  if (Seeded) {
    S.WGrad = uniformFloats(R, Cout * Cin * K);
    S.BGrad = uniformFloats(R, Cout);
    S.XGrad = uniformFloats(R, Cin * L);
  } else {
    S.WGrad.assign(Cout * Cin * K, 0.0f);
    S.BGrad.assign(Cout, 0.0f);
    S.XGrad.assign(Cin * L, 0.0f);
  }
  return S;
}

} // namespace

TEST(Autograd, Conv1dMatchesScalarReference) {
  Rng R(20);
  unsigned Cases = 0;
  size_t ZeroUpstream = 0, NonZeroUpstream = 0;
  for (size_t Cin : {1u, 17u})
    for (size_t Cout : {1u, 16u})
      for (size_t K : {1u, 3u, 5u, 7u})
        for (size_t L : {1u, 2u, 3u, 5u, 72u, 130u}) {
          SCOPED_TRACE(testing::Message() << "Cin " << Cin << " Cout "
                                          << Cout << " K " << K << " L "
                                          << L);
          std::vector<float> X = uniformFloats(R, Cin * L);
          std::vector<float> W = uniformFloats(R, Cout * Cin * K);
          std::vector<float> B = uniformFloats(R, Cout);
          std::vector<float> Scale = uniformFloats(R, Cout * L);
          // Every other case accumulates onto nonzero gradients.
          ConvResult Start =
              startGrads(R, /*Seeded=*/Cases % 2 == 1, Cin, Cout, K, L);
          std::vector<float> Upstream;
          ConvResult Lib = libraryConv1d(X, W, B, Scale, Start, Cin, Cout, K,
                                         L, /*XRequiresGrad=*/true, Upstream);
          ConvResult Ref =
              scalarConv1d(X, W, B, Upstream, Start, Cin, Cout, K, L);
          EXPECT_TRUE(sameBits(Lib.Out, Ref.Out)) << "forward output";
          EXPECT_TRUE(sameBits(Lib.WGrad, Ref.WGrad)) << "weight gradient";
          EXPECT_TRUE(sameBits(Lib.BGrad, Ref.BGrad)) << "bias gradient";
          EXPECT_TRUE(sameBits(Lib.XGrad, Ref.XGrad)) << "input gradient";
          for (float G : Upstream)
            ++(G == 0.0f ? ZeroUpstream : NonZeroUpstream);
          ++Cases;
        }
  EXPECT_EQ(Cases, 96u);
  // Both the skipped (zero) and the accumulated upstream paths ran.
  EXPECT_GT(ZeroUpstream, 0u);
  EXPECT_GT(NonZeroUpstream, 0u);
}

namespace {

/// Columns [Base, Base + L) of a row-major [Rows, Total] matrix.
std::vector<float> columns(const std::vector<float> &M, size_t Rows,
                           size_t Total, size_t Base, size_t L) {
  std::vector<float> Out(Rows * L);
  for (size_t R = 0; R < Rows; ++R)
    std::copy_n(M.data() + R * Total + Base, L, Out.data() + R * L);
  return Out;
}

} // namespace

TEST(Autograd, BatchedConv1dMatchesScalarReference) {
  // Ragged samples packed along the length axis: each sample's output
  // and input gradient are the scalar conv of that sample alone, and
  // the weight and bias gradients receive the samples' terms first
  // sample first, as the per-sample graphs of a minibatch gave them.
  Rng R(22);
  const std::vector<std::vector<size_t>> Batches = {
      {1, 2, 5, 72, 3}, {130, 1, 2}, {2, 1}};
  unsigned Cases = 0;
  for (size_t Cin : {1u, 17u})
    for (size_t Cout : {1u, 16u})
      for (size_t K : {1u, 3u, 5u, 7u})
        for (const std::vector<size_t> &Lengths : Batches) {
          SCOPED_TRACE(testing::Message() << "Cin " << Cin << " Cout "
                                          << Cout << " K " << K
                                          << " batch " << Cases % 3);
          size_t Total = 0;
          for (size_t L : Lengths)
            Total += L;
          std::vector<float> X = uniformFloats(R, Cin * Total);
          std::vector<float> W = uniformFloats(R, Cout * Cin * K);
          std::vector<float> B = uniformFloats(R, Cout);
          std::vector<float> Scale = uniformFloats(R, Cout * Total);
          ConvResult Start =
              startGrads(R, /*Seeded=*/Cases % 2 == 1, Cin, Cout, K, Total);

          Tensor Xt = Tensor::fromVector(X, {Cin, Total}, true);
          Tensor Wt = Tensor::fromVector(W, {Cout, Cin, K}, true);
          Tensor Bt = Tensor::fromVector(B, {Cout}, true);
          Xt.grad() = Start.XGrad;
          Wt.grad() = Start.WGrad;
          Bt.grad() = Start.BGrad;
          Tensor Y = conv1d(Xt, Wt, Bt, Lengths);
          Tensor S = Tensor::fromVector(Scale, {Cout, Total});
          sumT(mul(relu(Y), S)).backward();

          ConvResult Ref = Start;
          size_t Base = 0;
          for (size_t L : Lengths) {
            ConvResult SampleStart = Ref;
            SampleStart.XGrad = columns(Start.XGrad, Cin, Total, Base, L);
            ConvResult One = scalarConv1d(
                columns(X, Cin, Total, Base, L), W, B,
                columns(Y.grad(), Cout, Total, Base, L), SampleStart, Cin,
                Cout, K, L);
            EXPECT_TRUE(sameBits(columns(Y.data(), Cout, Total, Base, L),
                                 One.Out))
                << "forward output, L " << L;
            EXPECT_TRUE(sameBits(columns(Xt.grad(), Cin, Total, Base, L),
                                 One.XGrad))
                << "input gradient, L " << L;
            Ref.WGrad = One.WGrad;
            Ref.BGrad = One.BGrad;
            Base += L;
          }
          EXPECT_TRUE(sameBits(Wt.grad(), Ref.WGrad)) << "weight gradient";
          EXPECT_TRUE(sameBits(Bt.grad(), Ref.BGrad)) << "bias gradient";
          ++Cases;
        }
  EXPECT_EQ(Cases, 48u);
}

TEST(Autograd, Conv1dInputWithoutGradStaysZero) {
  Rng R(21);
  size_t Cin = 17, Cout = 16, K = 5, L = 72;
  std::vector<float> X = uniformFloats(R, Cin * L);
  std::vector<float> W = uniformFloats(R, Cout * Cin * K);
  std::vector<float> B = uniformFloats(R, Cout);
  std::vector<float> Scale = uniformFloats(R, Cout * L);
  ConvResult Start = startGrads(R, /*Seeded=*/false, Cin, Cout, K, L);
  std::vector<float> UpWith, UpWithout;
  ConvResult With = libraryConv1d(X, W, B, Scale, Start, Cin, Cout, K, L,
                                  /*XRequiresGrad=*/true, UpWith);
  ConvResult Without = libraryConv1d(X, W, B, Scale, Start, Cin, Cout, K,
                                     L, /*XRequiresGrad=*/false, UpWithout);
  EXPECT_TRUE(sameBits(Without.XGrad, std::vector<float>(Cin * L, 0.0f)));
  EXPECT_TRUE(sameBits(Without.WGrad, With.WGrad));
  EXPECT_TRUE(sameBits(Without.BGrad, With.BGrad));
  EXPECT_TRUE(std::any_of(With.XGrad.begin(), With.XGrad.end(),
                          [](float V) { return V != 0.0f; }));
}

TEST(Autograd, PoolingFiniteDiff) {
  Tensor X = Tensor::fromVector({1.0f, 3.0f, 2.0f, -1.0f, 0.0f, 4.0f},
                                {2, 3}, true);
  for (size_t I = 0; I < X.size(); ++I) {
    checkGradient(X, I, [&] { return sumT(meanPool(X)); });
    checkGradient(X, I, [&] { return sumT(maxPool(X)); });
  }
}

TEST(Autograd, MaskedFillBlocksGradient) {
  Tensor X = Tensor::fromVector({1.0f, 2.0f, 3.0f}, {3}, true);
  std::vector<uint8_t> Mask = {1, 0, 1};
  Tensor L = sumT(expT(logSoftmax(maskedFill(X, Mask))));
  L.backward();
  EXPECT_FLOAT_EQ(X.grad()[1], 0.0f);
}

TEST(Autograd, MaskedSoftmaxZeroesProbability) {
  Tensor X = Tensor::fromVector({1.0f, 10.0f, 1.0f}, {3}, true);
  std::vector<uint8_t> Mask = {1, 0, 1};
  Tensor P = expT(logSoftmax(maskedFill(X, Mask)));
  EXPECT_NEAR(P.data()[1], 0.0f, 1e-12);
  EXPECT_NEAR(P.data()[0] + P.data()[2], 1.0f, 1e-5);
}

TEST(Autograd, ReusedNodeAccumulatesOnce) {
  // Diamond graph: L = sum(X*X + X*X); dL/dX = 4X.
  Tensor X = Tensor::fromVector({2.0f}, {1}, true);
  Tensor Sq = mul(X, X);
  Tensor L = sumT(add(Sq, Sq));
  L.backward();
  EXPECT_FLOAT_EQ(X.grad()[0], 8.0f);
}

//===----------------------------------------------------------------------===//
// Optimizer
//===----------------------------------------------------------------------===//

TEST(AdamTest, MinimizesQuadratic) {
  Tensor X = Tensor::fromVector({5.0f, -3.0f}, {2}, true);
  Adam Opt({X}, 0.1);
  for (int Iter = 0; Iter < 300; ++Iter) {
    Opt.zeroGrad();
    Tensor L = sumT(mul(X, X));
    L.backward();
    Opt.step();
  }
  EXPECT_NEAR(X.data()[0], 0.0f, 0.05f);
  EXPECT_NEAR(X.data()[1], 0.0f, 0.05f);
}

TEST(AdamTest, GradClipBoundsNorm) {
  Tensor X = Tensor::fromVector({30.0f, 40.0f}, {2}, true);
  X.grad()[0] = 30.0f;
  X.grad()[1] = 40.0f;
  double Norm = clipGradNorm({X}, 0.5);
  EXPECT_NEAR(Norm, 50.0, 1e-6);
  double After = std::hypot(X.grad()[0], X.grad()[1]);
  EXPECT_NEAR(After, 0.5, 1e-5);
}

//===----------------------------------------------------------------------===//
// Network
//===----------------------------------------------------------------------===//

TEST(ActorCriticTest, ForwardShapes) {
  Rng R(1);
  NetConfig C;
  C.Features = 7;
  C.Length = 12;
  C.Actions = 6;
  ActorCritic Net(C, R);
  std::vector<float> Obs(7 * 12, 0.5f);
  std::vector<uint8_t> Mask(6, 1);
  Mask[3] = 0;
  ActorCritic::Output Out = Net.forward(Obs, Mask);
  EXPECT_EQ(Out.MaskedLogits.size(), 6u);
  EXPECT_EQ(Out.Value.size(), 1u);
  EXPECT_LT(Out.MaskedLogits.data()[3], -1e8f);
}

TEST(ActorCriticTest, OrthogonalInitScales) {
  Rng R(2);
  NetConfig C;
  C.Features = 5;
  C.Length = 8;
  C.Actions = 4;
  ActorCritic Net(C, R);
  // Policy head uses gain 0.01: logits start tiny (near-uniform policy).
  std::vector<float> Obs(5 * 8, 0.3f);
  std::vector<uint8_t> Mask(4, 1);
  ActorCritic::Output Out = Net.forward(Obs, Mask);
  for (float L : Out.MaskedLogits.data())
    EXPECT_LT(std::fabs(L), 0.5f);
}

TEST(ActorCriticTest, CheckpointRoundTrip) {
  Rng R(3);
  NetConfig C;
  C.Features = 5;
  C.Length = 8;
  C.Actions = 4;
  ActorCritic Net(C, R);
  std::ostringstream OS;
  Net.save(OS);

  Rng R2(99);
  ActorCritic Other(C, R2);
  std::istringstream IS(OS.str());
  ASSERT_TRUE(Other.load(IS));

  std::vector<float> Obs(5 * 8, 0.3f);
  std::vector<uint8_t> Mask(4, 1);
  EXPECT_EQ(Net.forward(Obs, Mask).MaskedLogits.data(),
            Other.forward(Obs, Mask).MaskedLogits.data());
}

TEST(ActorCriticTest, LoadRejectsGarbage) {
  Rng R(3);
  NetConfig C;
  C.Features = 5;
  C.Length = 8;
  C.Actions = 4;
  ActorCritic Net(C, R);
  std::istringstream IS("not a checkpoint");
  EXPECT_FALSE(Net.load(IS));
}

//===----------------------------------------------------------------------===//
// PPO on toy environments
//===----------------------------------------------------------------------===//

namespace {

/// Contextual bandit chain: action `Best` yields +1, others 0; the
/// episode lasts 4 steps; one action is permanently masked.
class BanditEnv : public Env {
public:
  explicit BanditEnv(unsigned Best = 2) : Best(Best) {}

  std::vector<float> reset() override {
    Steps = 0;
    return std::vector<float>(obsRows() * obsFeatures(), 0.25f);
  }
  EnvStep step(unsigned Action) override {
    EnvStep R;
    R.Reward = Action == Best ? 1.0 : 0.0;
    ++Steps;
    R.Done = Steps >= 4;
    R.Obs = std::vector<float>(obsRows() * obsFeatures(), 0.25f);
    return R;
  }
  std::vector<uint8_t> actionMask() override {
    std::vector<uint8_t> M(actionCount(), 1);
    M[0] = 0; // Permanently illegal.
    return M;
  }
  unsigned actionCount() const override { return 5; }
  size_t obsRows() const override { return 6; }
  size_t obsFeatures() const override { return 4; }

private:
  unsigned Best;
  unsigned Steps = 0;
};

} // namespace

TEST(PpoTest, LearnsBanditOptimum) {
  BanditEnv E1, E2;
  PpoConfig C;
  C.TotalSteps = 2048;
  C.RolloutLen = 32;
  C.Seed = 7;
  C.Channels = 4;
  C.Hidden = 16;
  // The paper's default lr (2.5e-4) is sized for ~15k-step runs; the
  // toy test budget warrants a faster rate.
  C.Lr = 1e-3;
  PpoTrainer Trainer({&E1, &E2}, C);
  std::vector<UpdateStats> Series = Trainer.train();
  ASSERT_FALSE(Series.empty());
  // Optimal return is 4.0 (reward 1 for 4 steps).
  EXPECT_GT(Series.back().MeanEpisodicReturn, 3.0);
  // The policy must never pick the masked action in greedy play.
  BanditEnv Probe;
  std::vector<unsigned> Actions = Trainer.playGreedy(Probe, 4);
  for (unsigned A : Actions)
    EXPECT_NE(A, 0u);
}

TEST(PpoTest, EntropyDecreasesAsPolicyConverges) {
  BanditEnv E1;
  PpoConfig C;
  C.TotalSteps = 1024;
  C.RolloutLen = 32;
  C.Seed = 3;
  C.Channels = 4;
  C.Hidden = 16;
  C.Lr = 1e-3;
  PpoTrainer Trainer({&E1}, C);
  std::vector<UpdateStats> Series = Trainer.train();
  ASSERT_GE(Series.size(), 4u);
  // Figure 12: policy entropy decreases over training.
  EXPECT_LT(Series.back().Entropy, Series.front().Entropy);
}

TEST(PpoTest, ApproxKlStaysFinite) {
  BanditEnv E1;
  PpoConfig C;
  C.TotalSteps = 256;
  C.RolloutLen = 32;
  C.Seed = 5;
  C.Channels = 4;
  C.Hidden = 16;
  PpoTrainer Trainer({&E1}, C);
  for (UpdateStats S : Trainer.train()) {
    EXPECT_TRUE(std::isfinite(S.ApproxKl));
    EXPECT_TRUE(std::isfinite(S.PolicyLoss));
    EXPECT_TRUE(std::isfinite(S.ValueLoss));
    EXPECT_GE(S.ClipFraction, 0.0);
    EXPECT_LE(S.ClipFraction, 1.0);
  }
}

TEST(PpoTest, DeterministicForSeed) {
  auto Run = [](uint64_t Seed) {
    BanditEnv E;
    PpoConfig C;
    C.TotalSteps = 128;
    C.RolloutLen = 32;
    C.Seed = Seed;
    C.Channels = 4;
    C.Hidden = 16;
    PpoTrainer T({&E}, C);
    return T.train().back().PolicyLoss;
  };
  EXPECT_EQ(Run(11), Run(11));
  EXPECT_NE(Run(11), Run(12));
}

TEST(PpoTest, CriticLearnsOptimalReturn) {
  // Once the policy converges on the bandit, the critic's prediction at
  // the initial state must approach the discounted optimal return
  // (1 + g + g^2 + g^3 with g = 0.99: ~3.94).
  BanditEnv E(1);
  PpoConfig C;
  C.TotalSteps = 3072;
  C.RolloutLen = 32;
  C.Seed = 9;
  C.Channels = 4;
  C.Hidden = 16;
  C.Lr = 1e-3;
  PpoTrainer Trainer({&E}, C);
  Trainer.train();
  BanditEnv Probe;
  std::vector<float> Obs = Probe.reset();
  std::vector<uint8_t> Mask = Probe.actionMask();
  float V = Trainer.net().forward(Obs, Mask).Value.item();
  EXPECT_GT(V, 2.0f);
  EXPECT_LT(V, 5.5f);
}

namespace {

/// Geometry only: lets a PpoTrainer size its net for a mixed-kernel
/// pool whose batches the test builds itself. Never stepped.
class ShapeEnv : public Env {
public:
  ShapeEnv(size_t Rows, unsigned Actions) : Rows(Rows), Actions(Actions) {}
  std::vector<float> reset() override {
    return std::vector<float>(Rows * obsFeatures(), 0.0f);
  }
  EnvStep step(unsigned) override { return EnvStep(); }
  std::vector<uint8_t> actionMask() override {
    return std::vector<uint8_t>(Actions, 1);
  }
  unsigned actionCount() const override { return Actions; }
  size_t obsRows() const override { return Rows; }
  size_t obsFeatures() const override { return 4; }

private:
  size_t Rows;
  unsigned Actions;
};

/// A random observation of \p Rows rows and a mask with \p Actions
/// entries (at least one legal) padded with zeros to \p NetActions.
void randomState(Rng &R, size_t Rows, unsigned Actions, unsigned NetActions,
                 std::vector<float> &Obs, std::vector<uint8_t> &Mask) {
  Obs = uniformFloats(R, Rows * 4);
  Mask.assign(NetActions, 0);
  for (unsigned A = 0; A < Actions; ++A)
    Mask[A] = R.bernoulli(0.6);
  Mask[R.uniformInt(Actions)] = 1;
}

/// One rollout of \p Steps steps per slot over a mixed-kernel pool:
/// slot J's observations have Rows[J] rows and Actions[J] actions.
TrajectoryBatch randomBatch(Rng &R, const std::vector<size_t> &Rows,
                            const std::vector<unsigned> &Actions,
                            unsigned NetActions, unsigned Steps) {
  TrajectoryBatch Batch;
  for (size_t J = 0; J < Rows.size(); ++J) {
    Trajectory T;
    for (unsigned Step = 0; Step < Steps; ++Step) {
      Transition S;
      randomState(R, Rows[J], Actions[J], NetActions, S.Obs, S.Mask);
      do
        S.Action = static_cast<unsigned>(R.uniformInt(Actions[J]));
      while (!S.Mask[S.Action]);
      S.LogProb = static_cast<float>(-R.uniformReal(0.05, 2.5));
      S.Value = static_cast<float>(R.uniformReal(-1.0, 1.0));
      S.Reward = static_cast<float>(R.uniformReal(-1.0, 1.0));
      S.Done = R.bernoulli(0.15);
      T.Steps.push_back(std::move(S));
    }
    randomState(R, Rows[J], Actions[J], NetActions, T.BootstrapObs,
                T.BootstrapMask);
    T.CompletedReturns = {R.uniformReal(-2.0, 2.0)};
    Batch.Trajectories.push_back(std::move(T));
  }
  return Batch;
}

/// PpoTrainer::updateFromBatch as it was when every sample built its
/// own forward graph and the minibatch loss summed them: the reference
/// the one-graph-per-minibatch update must match bit for bit.
struct PerSampleTrainer {
  PpoConfig Config;
  Rng SampleRng;
  ActorCritic Net;
  Adam Optimizer;
  std::vector<double> EpisodeReturns;
  unsigned StepsDone = 0;

  PerSampleTrainer(const NetConfig &NC, const PpoConfig &C)
      : Config(C), SampleRng(C.Seed), Net(NC, SampleRng),
        Optimizer(Net.parameters(), C.Lr) {}

  UpdateStats update(const TrajectoryBatch &Batch) {
    const std::vector<Trajectory> &Trajs = Batch.Trajectories;
    const size_t NumTrajs = Trajs.size();
    for (const Trajectory &Traj : Trajs)
      for (double Return : Traj.CompletedReturns)
        EpisodeReturns.push_back(Return);
    StepsDone += static_cast<unsigned>(Batch.totalSteps());

    std::vector<std::vector<float>> Adv(NumTrajs), Ret(NumTrajs);
    for (size_t J = 0; J < NumTrajs; ++J) {
      const Trajectory &Traj = Trajs[J];
      const size_t T = Traj.Steps.size();
      Adv[J].resize(T);
      Ret[J].resize(T);
      float NextValue =
          Net.forward(Traj.BootstrapObs, Traj.BootstrapMask).Value.item();
      float Gae = 0.0f;
      for (size_t Step = T; Step-- > 0;) {
        const Transition &S = Traj.Steps[Step];
        float VNext = Step + 1 < T ? Traj.Steps[Step + 1].Value : NextValue;
        float NonTerminal = S.Done ? 0.0f : 1.0f;
        float Delta = S.Reward +
                      static_cast<float>(Config.Gamma) * VNext * NonTerminal -
                      S.Value;
        Gae = Delta + static_cast<float>(Config.Gamma * Config.GaeLambda) *
                          NonTerminal * Gae;
        Adv[J][Step] = Gae;
        Ret[J][Step] = Gae + S.Value;
      }
    }

    std::vector<std::pair<size_t, size_t>> Index;
    for (size_t J = 0; J < NumTrajs; ++J)
      for (size_t Step = 0; Step < Trajs[J].Steps.size(); ++Step)
        Index.push_back({J, Step});
    if (Config.AnnealLr) {
      double Frac = 1.0 - static_cast<double>(StepsDone) /
                              std::max(1u, Config.TotalSteps);
      Optimizer.setLr(Config.Lr * std::max(0.05, Frac));
    }

    double SumPolicyLoss = 0, SumValueLoss = 0, SumEntropy = 0, SumKl = 0,
           SumClip = 0;
    size_t BatchCount = 0;
    size_t BatchSize = Index.size();
    size_t MbSize = std::max<size_t>(1, BatchSize / Config.MiniBatches);
    for (unsigned Epoch = 0; Epoch < Config.Epochs; ++Epoch) {
      SampleRng.shuffle(Index);
      for (size_t Start = 0; Start < BatchSize; Start += MbSize) {
        size_t End = std::min(BatchSize, Start + MbSize);
        size_t Count = End - Start;
        double Mean = 0, Var = 0;
        for (size_t I = Start; I < End; ++I)
          Mean += Adv[Index[I].first][Index[I].second];
        Mean /= Count;
        for (size_t I = Start; I < End; ++I) {
          double D = Adv[Index[I].first][Index[I].second] - Mean;
          Var += D * D;
        }
        double Std = std::sqrt(Var / Count) + 1e-8;

        Tensor Loss = Tensor::scalar(0.0f);
        double KlAccum = 0, ClipAccum = 0, EntAccum = 0, PlAccum = 0,
               VlAccum = 0;
        for (size_t I = Start; I < End; ++I) {
          const Transition &S = Trajs[Index[I].first].Steps[Index[I].second];
          float A = static_cast<float>(
              Config.NormAdvantage
                  ? (Adv[Index[I].first][Index[I].second] - Mean) / Std
                  : Adv[Index[I].first][Index[I].second]);
          float R = Ret[Index[I].first][Index[I].second];

          ActorCritic::Output Out = Net.forward(S.Obs, S.Mask);
          Tensor LogP = logSoftmax(Out.MaskedLogits);
          Tensor NewLogProb = gather(LogP, S.Action);
          Tensor Ratio = expT(scalarAdd(NewLogProb, -S.LogProb));
          Tensor Surr1 = scalarMul(Ratio, A);
          Tensor Surr2 = scalarMul(
              clampRange(Ratio, 1.0f - static_cast<float>(Config.ClipCoef),
                         1.0f + static_cast<float>(Config.ClipCoef)),
              A);
          Tensor PolicyLoss = neg(minElem(Surr1, Surr2));
          Tensor VDiff = scalarAdd(Out.Value, -R);
          Tensor VLoss = mul(VDiff, VDiff);
          if (Config.ClipVLoss) {
            Tensor VClipped =
                scalarAdd(clampRange(scalarAdd(Out.Value, -S.Value),
                                     -static_cast<float>(Config.ClipCoef),
                                     static_cast<float>(Config.ClipCoef)),
                          S.Value - R);
            Tensor VLossClipped = mul(VClipped, VClipped);
            VLoss = neg(minElem(neg(VLoss), neg(VLossClipped)));
          }
          Tensor Probs = expT(LogP);
          Tensor Entropy = neg(sumT(mul(Probs, LogP)));
          Tensor SampleLoss =
              add(PolicyLoss,
                  add(scalarMul(VLoss, static_cast<float>(Config.VfCoef) *
                                           0.5f),
                      scalarMul(Entropy,
                                -static_cast<float>(Config.EntCoef))));
          Loss = add(Loss, SampleLoss);

          double RatioVal = Ratio.item();
          double LogRatio = NewLogProb.item() - S.LogProb;
          KlAccum += (RatioVal - 1.0) - LogRatio;
          ClipAccum += std::fabs(RatioVal - 1.0) > Config.ClipCoef;
          EntAccum += Entropy.item();
          PlAccum += PolicyLoss.item();
          VlAccum += VLoss.item();
        }
        Loss = scalarMul(Loss, 1.0f / static_cast<float>(Count));
        Optimizer.zeroGrad();
        Loss.backward();
        clipGradNorm(Net.parameters(), Config.MaxGradNorm);
        Optimizer.step();

        SumPolicyLoss += PlAccum / Count;
        SumValueLoss += VlAccum / Count;
        SumEntropy += EntAccum / Count;
        SumKl += KlAccum / Count;
        SumClip += ClipAccum / Count;
        ++BatchCount;
      }
    }

    UpdateStats Stats;
    Stats.StepsDone = StepsDone;
    Stats.PolicyLoss = SumPolicyLoss / BatchCount;
    Stats.ValueLoss = SumValueLoss / BatchCount;
    Stats.Entropy = SumEntropy / BatchCount;
    Stats.ApproxKl = SumKl / BatchCount;
    Stats.ClipFraction = SumClip / BatchCount;
    size_t Window = std::min<size_t>(EpisodeReturns.size(), 16);
    double Sum = 0;
    for (size_t I = EpisodeReturns.size() - Window; I < EpisodeReturns.size();
         ++I)
      Sum += EpisodeReturns[I];
    Stats.MeanEpisodicReturn = Sum / Window;
    return Stats;
  }
};

bool sameDoubleBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(A)) == 0;
}

} // namespace

TEST(PpoTest, BatchedUpdateMatchesPerSampleGraph) {
  // A mixed-kernel pool: ragged row counts (including a 2-row kernel)
  // and action counts padded to the net's maximum. 3 slots x 11 steps
  // in 4 minibatches is 8 + 8 + 8 + 8 + 1: the last minibatch is one
  // sample.
  const std::vector<size_t> Rows = {7, 12, 2};
  const std::vector<unsigned> Actions = {5, 3, 4};
  for (bool Plain : {false, true}) {
    SCOPED_TRACE(Plain ? "no advantage norm, unclipped value loss"
                       : "default losses");
    PpoConfig C;
    C.Seed = 13;
    C.Channels = 8;
    C.Hidden = 16;
    C.Epochs = 2;
    C.TotalSteps = 200;
    C.NormAdvantage = !Plain;
    C.ClipVLoss = !Plain;
    ShapeEnv E0(Rows[0], Actions[0]), E1(Rows[1], Actions[1]),
        E2(Rows[2], Actions[2]);
    PpoTrainer Trainer({&E0, &E1, &E2}, C);
    NetConfig NC = Trainer.net().config();
    PerSampleTrainer Ref(NC, C);

    Rng Data(99);
    for (int Update = 0; Update < 3; ++Update) {
      SCOPED_TRACE(testing::Message() << "update " << Update);
      TrajectoryBatch Batch = randomBatch(Data, Rows, Actions, 5, 11);
      UpdateStats Got = Trainer.updateFromBatch(Batch);
      UpdateStats Want = Ref.update(Batch);
      EXPECT_EQ(Got.StepsDone, Want.StepsDone);
      EXPECT_TRUE(
          sameDoubleBits(Got.MeanEpisodicReturn, Want.MeanEpisodicReturn));
      EXPECT_TRUE(sameDoubleBits(Got.PolicyLoss, Want.PolicyLoss));
      EXPECT_TRUE(sameDoubleBits(Got.ValueLoss, Want.ValueLoss));
      EXPECT_TRUE(sameDoubleBits(Got.Entropy, Want.Entropy));
      EXPECT_TRUE(sameDoubleBits(Got.ApproxKl, Want.ApproxKl));
      EXPECT_TRUE(sameDoubleBits(Got.ClipFraction, Want.ClipFraction));

      std::vector<Tensor> GotParams = Trainer.net().parameters();
      std::vector<Tensor> WantParams = Ref.Net.parameters();
      ASSERT_EQ(GotParams.size(), WantParams.size());
      for (size_t P = 0; P < GotParams.size(); ++P) {
        EXPECT_TRUE(sameBits(GotParams[P].data(), WantParams[P].data()))
            << "parameter " << P;
        EXPECT_TRUE(sameBits(Trainer.optimizer().firstMoments()[P],
                             Ref.Optimizer.firstMoments()[P]))
            << "first moment " << P;
        EXPECT_TRUE(sameBits(Trainer.optimizer().secondMoments()[P],
                             Ref.Optimizer.secondMoments()[P]))
            << "second moment " << P;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// RolloutRunner: parallel collection determinism
//===----------------------------------------------------------------------===//

namespace {

PpoConfig rolloutTestConfig() {
  PpoConfig C;
  C.TotalSteps = 256;
  C.RolloutLen = 32;
  C.Seed = 21;
  C.Channels = 4;
  C.Hidden = 16;
  return C;
}

} // namespace

TEST(RolloutTest, WorkerCountDoesNotChangeTrainingStats) {
  // The worker pool is a wall-clock knob only: per-slot Rng streams
  // make collection embarrassingly deterministic, so every statistic
  // of a full training run must be bit-identical at any worker count.
  auto Run = [](unsigned Workers) {
    BanditEnv E1, E2, E3, E4;
    PpoConfig C = rolloutTestConfig();
    RolloutConfig RC;
    RC.Workers = Workers;
    RC.Seed = C.Seed;
    RolloutRunner Runner({&E1, &E2, &E3, &E4}, RC);
    PpoTrainer T(Runner, C);
    return T.train();
  };
  std::vector<UpdateStats> Serial = Run(1);
  std::vector<UpdateStats> Threaded = Run(4);
  ASSERT_EQ(Serial.size(), Threaded.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].StepsDone, Threaded[I].StepsDone);
    EXPECT_EQ(Serial[I].MeanEpisodicReturn, Threaded[I].MeanEpisodicReturn);
    EXPECT_EQ(Serial[I].PolicyLoss, Threaded[I].PolicyLoss);
    EXPECT_EQ(Serial[I].ValueLoss, Threaded[I].ValueLoss);
    EXPECT_EQ(Serial[I].Entropy, Threaded[I].Entropy);
    EXPECT_EQ(Serial[I].ApproxKl, Threaded[I].ApproxKl);
    EXPECT_EQ(Serial[I].ClipFraction, Threaded[I].ClipFraction);
  }
}

TEST(RolloutTest, SlotTrajectoryInvariantToEnvCount) {
  // Slot i's action-sampling stream depends only on (seed, i), so the
  // trajectory slot 0 produces in a 1-env run equals slot 0 of a 4-env
  // run under the same frozen policy: per-slot reductions (reward sums,
  // action sequences) are batching-invariant.
  NetConfig NC;
  BanditEnv Probe;
  NC.Features = Probe.obsFeatures();
  NC.Length = Probe.obsRows();
  NC.Actions = Probe.actionCount();
  NC.Channels = 4;
  NC.Hidden = 16;

  auto Collect = [&NC](size_t NumEnvs, unsigned Workers) {
    std::vector<std::unique_ptr<Env>> Envs;
    for (size_t I = 0; I < NumEnvs; ++I)
      Envs.push_back(std::make_unique<BanditEnv>());
    RolloutConfig RC;
    RC.Workers = Workers;
    RC.Seed = 33;
    RolloutRunner Runner(std::move(Envs), RC);
    Rng NetRng(5);
    ActorCritic Net(NC, NetRng);
    return Runner.collect(Net, 32);
  };

  TrajectoryBatch One = Collect(1, 1);
  TrajectoryBatch Four = Collect(4, 4);
  ASSERT_EQ(One.Trajectories.size(), 1u);
  ASSERT_EQ(Four.Trajectories.size(), 4u);

  const Trajectory &A = One.Trajectories[0];
  const Trajectory &B = Four.Trajectories[0];
  ASSERT_EQ(A.Steps.size(), B.Steps.size());
  for (size_t I = 0; I < A.Steps.size(); ++I) {
    EXPECT_EQ(A.Steps[I].Action, B.Steps[I].Action);
    EXPECT_EQ(A.Steps[I].Reward, B.Steps[I].Reward);
    EXPECT_EQ(A.Steps[I].LogProb, B.Steps[I].LogProb);
  }
  EXPECT_EQ(A.rewardSum(), B.rewardSum());
  EXPECT_EQ(A.CompletedReturns, B.CompletedReturns);
  // Sibling slots draw from distinct streams (they must explore
  // independently, not mirror slot 0).
  bool AnySlotDiffers = false;
  for (size_t S = 1; S < 4 && !AnySlotDiffers; ++S)
    for (size_t I = 0; I < Four.Trajectories[S].Steps.size(); ++I)
      if (Four.Trajectories[S].Steps[I].Action != A.Steps[I].Action) {
        AnySlotDiffers = true;
        break;
      }
  EXPECT_TRUE(AnySlotDiffers);
}

TEST(RolloutTest, EpisodeStatePersistsAcrossCollectCalls) {
  // BanditEnv episodes last 4 steps; a 32-step segment completes 8.
  std::vector<std::unique_ptr<Env>> Envs;
  Envs.push_back(std::make_unique<BanditEnv>());
  RolloutConfig RC;
  RC.Seed = 3;
  RolloutRunner Runner(std::move(Envs), RC);
  NetConfig NC;
  BanditEnv Probe;
  NC.Features = Probe.obsFeatures();
  NC.Length = Probe.obsRows();
  NC.Actions = Probe.actionCount();
  NC.Channels = 4;
  NC.Hidden = 16;
  Rng NetRng(5);
  ActorCritic Net(NC, NetRng);

  TrajectoryBatch First = Runner.collect(Net, 30);
  TrajectoryBatch Second = Runner.collect(Net, 30);
  // 60 steps = 15 full episodes; the 8th episode straddles the calls.
  EXPECT_EQ(First.Trajectories[0].CompletedReturns.size(), 7u);
  EXPECT_EQ(Second.Trajectories[0].CompletedReturns.size(), 8u);
  EXPECT_EQ(First.totalSteps(), 30u);
}
