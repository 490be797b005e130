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

#include <cmath>
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
