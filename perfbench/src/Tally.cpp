//===- perfbench/src/Tally.cpp --------------------------------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Tally.h"

namespace perfbench {

FailClass classOf(ReqClass C) {
  switch (C) {
  case ReqClass::Hit:
    return FailClass::Hit;
  case ReqClass::Cold:
    return FailClass::Cold;
  case ReqClass::NearMiss:
    return FailClass::NearMiss;
  case ReqClass::Duplicate:
    return FailClass::Duplicate;
  }
  return FailClass::Hit;
}

const char *failClassName(FailClass C) {
  switch (C) {
  case FailClass::Hit:
    return "hit";
  case FailClass::Cold:
    return "cold";
  case FailClass::NearMiss:
    return "near_miss";
  case FailClass::Duplicate:
    return "duplicate";
  case FailClass::TimedHit:
    return "timed_hit";
  }
  return "?";
}

Tally tallyRequests(const std::vector<PlannedRequest> &Listed,
                    const std::vector<Outcome> &Outcomes,
                    const std::vector<const TimedResult *> &Timed,
                    const std::set<std::string> &BadKeys) {
  Tally T;
  T.ListedOk.assign(Listed.size(), false);
  auto Fail = [&](FailClass C, uint64_t N) {
    T.Failed += N;
    T.FailedBy[static_cast<size_t>(C)] += N;
  };
  for (size_t I = 0; I < Listed.size(); ++I) {
    const Outcome &O = Outcomes[I];
    ++T.Attempted;
    if (O.Done)
      ++T.Completed;
    if (isFailure(O) || BadKeys.count(O.ServedKey))
      Fail(classOf(Listed[I].Class), 1);
    else
      T.ListedOk[I] = true;
  }
  for (const TimedResult *R : Timed) {
    T.Attempted += R->Completed + R->Failed;
    T.Completed += R->Completed + R->Failed;
    Fail(FailClass::TimedHit, R->Failed);
    for (const auto &[Key, N] : R->Served)
      if (BadKeys.count(Key))
        Fail(FailClass::TimedHit, N);
  }
  return T;
}

bool runCorrect(const Tally &T, const RunChecks &C) {
  return T.Failed == 0 && C.CheckedKeys > 0 && C.BadKeys == 0 &&
         C.GeneratorOk && C.ReplayOk;
}

} // namespace perfbench
