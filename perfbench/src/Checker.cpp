//===- perfbench/src/Checker.cpp ------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Checker.h"

#include "gpusim/Measurement.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "triton/Autotuner.h"
#include "triton/Pipeline.h"

#include <atomic>
#include <thread>

using namespace cuasmrl;

namespace perfbench {

namespace {

/// Probabilistic-test rounds per key.
constexpr unsigned kCheckRounds = 2;

KeyCheck checkOne(const std::string &Key, const cubin::CubinFile &Binary,
                  const serve::OptimizeRequest &Spec, uint64_t HeldOutSeed) {
  KeyCheck C;
  C.Key = Key;
  Expected<sass::Program> Winner = cubin::disassemble(Binary);
  if (!Winner) {
    C.Why = "binary does not disassemble: " + Winner.error().message();
    return C;
  }
  const core::OptimizeConfig Config =
      Spec.Config ? *Spec.Config : core::OptimizeConfig();
  triton::AutotuneOptions Opts;
  Opts.Measure = Config.AutotuneMeasure;
  Opts.BaseSeed = Config.AutotuneSeed;
  gpusim::Gpu Device;
  triton::AutotuneResult Tuned =
      triton::Autotuner(Opts).tune(Device, Spec.Kind, Spec.Shape);
  if (!Tuned.Valid) {
    C.Why = "no valid baseline configuration";
    return C;
  }
  Rng DataRng(mixSeed(HeldOutSeed, fnv1a64(Key)));
  triton::CompiledKernel Base = triton::compileKernel(
      Device, Spec.Kind, Spec.Shape, Tuned.Best, DataRng);
  if (!triton::probabilisticTest(Device, Base.Runtime, Base.Runtime.Prog,
                                 *Winner, kCheckRounds, DataRng)) {
    C.Why = "output differs from the -O3 baseline on the oracle";
    return C;
  }
  gpusim::MeasureConfig M;
  M.WarmupIters = 1;
  M.RepeatIters = 5;
  M.Seed = HeldOutSeed;
  gpusim::Measurement B =
      gpusim::measureKernel(Device, Base.Runtime.Prog, Base.Runtime.Launch, M);
  gpusim::Measurement W =
      gpusim::measureKernel(Device, *Winner, Base.Runtime.Launch, M);
  if (!B.Valid || !W.Valid) {
    C.Why = "measurement faulted: " + (B.Valid ? W : B).FaultReason;
    return C;
  }
  C.BaselineUs = B.MeanUs;
  C.WinnerUs = W.MeanUs;
  C.Ok = true;
  return C;
}

} // namespace

std::vector<KeyCheck>
checkBinaries(const std::map<std::string, cubin::CubinFile> &Binaries,
              const std::map<std::string, serve::OptimizeRequest> &Specs,
              uint64_t HeldOutSeed, unsigned Threads) {
  std::vector<const std::pair<const std::string, cubin::CubinFile> *> Items;
  for (const auto &Entry : Binaries)
    Items.push_back(&Entry);
  std::vector<KeyCheck> Out(Items.size());
  std::atomic<size_t> Next{0};
  auto Work = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < Items.size();) {
      const std::string &Key = Items[I]->first;
      auto Spec = Specs.find(Key);
      if (Spec == Specs.end()) {
        Out[I].Key = Key;
        Out[I].Why = "served key was never requested";
        continue;
      }
      try {
        Out[I] = checkOne(Key, Items[I]->second, Spec->second, HeldOutSeed);
      } catch (const std::exception &E) {
        Out[I].Key = Key;
        Out[I].Why = std::string("check threw: ") + E.what();
      }
    }
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::max(1u, Threads); ++T)
    Pool.emplace_back(Work);
  Work();
  for (std::thread &T : Pool)
    T.join();
  return Out;
}

} // namespace perfbench
