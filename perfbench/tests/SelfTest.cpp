//===- perfbench/tests/SelfTest.cpp - The benchmark's own checks ----------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//
//
// Run with: python3 perfbench/run.py --self-test
//
//===----------------------------------------------------------------------===//

#include "LoadGen.h"
#include "Stats.h"
#include "Tally.h"
#include "Trace.h"
#include "Workloads.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;
using cuasmrl::net::WireStatus;

namespace {

TEST(TailPercentile, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(tailPermille(19), 0u);    // Even p50 leaves only 9 beyond.
  EXPECT_EQ(tailPermille(20), 500u);  // p50: 10 beyond.
  EXPECT_EQ(tailPermille(60), 750u);  // p90 would leave 6.
  EXPECT_EQ(tailPermille(100), 900u); // p90: 10 beyond; p95 leaves 5.
  EXPECT_EQ(tailPermille(999), 950u); // p99 would leave 9.
  EXPECT_EQ(tailPermille(1000), 990u);
  EXPECT_EQ(tailPermille(6000), 990u);
  EXPECT_EQ(tailPermille(10000), 999u);
  for (size_t N : {20u, 57u, 333u, 4321u, 123456u}) {
    unsigned P = tailPermille(N);
    EXPECT_GE(tailBeyond(N, P), 10u) << N;
  }
}

TEST(TailPercentile, NearestRankLeavesExactlyTheCountBeyond) {
  std::vector<double> V;
  for (int I = 1; I <= 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 990), 990.0);
  EXPECT_EQ(tailBeyond(V.size(), 990), 10u);
  EXPECT_EQ(median(V), 500.0);
  EXPECT_EQ(percentile({}, 500), 0.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  // The lowest and highest tenth drop out: 1 and 100 of ten values.
  EXPECT_DOUBLE_EQ(trimmedMean({100, 2, 3, 4, 5, 6, 7, 8, 9, 1}, 0.1), 5.5);
  EXPECT_EQ(trimmedMean({}, 0.1), 0.0);
}

TEST(RequestStream, SameSeedSameBytesOtherSeedOtherBytes) {
  for (Workload W :
       {Workload::ColdZoo, Workload::WarmLookup, Workload::MixedChurn}) {
    std::vector<uint8_t> A = planBytes(makePlan(W, 42, 20));
    std::vector<uint8_t> B = planBytes(makePlan(W, 42, 20));
    std::vector<uint8_t> C = planBytes(makePlan(W, 43, 20));
    EXPECT_FALSE(A.empty()) << workloadName(W);
    EXPECT_EQ(A, B) << workloadName(W);
    EXPECT_NE(A, C) << workloadName(W);
  }
}

TEST(RequestStream, ColdZooKeysAreDistinctAndCoverEveryKind) {
  Plan P = makePlan(Workload::ColdZoo, 7, 20);
  std::set<std::string> Keys;
  std::set<int> Kinds;
  for (const PlannedRequest &Q : P.Requests) {
    EXPECT_EQ(Q.Class, ReqClass::Cold);
    EXPECT_FALSE(Q.Req.AllowDegraded);
    Keys.insert(keyOf(Q.Req));
    Kinds.insert(static_cast<int>(Q.Req.Kind));
  }
  EXPECT_EQ(Keys.size(), P.Requests.size());
  EXPECT_EQ(Kinds.size(), cuasmrl::kernels::allWorkloads().size());
}

TEST(RequestStream, MixedChurnMissesAreAbsentAndDuplicatesTrailTheirCold) {
  Plan P = makePlan(Workload::MixedChurn, 11, 20);
  std::set<std::string> Deployed;
  for (const auto &R : P.Deployed)
    Deployed.insert(keyOf(R));
  std::map<std::string, double> ColdDue;
  for (const PlannedRequest &Q : P.Requests) {
    const std::string Key = keyOf(Q.Req);
    EXPECT_EQ(Deployed.count(Key), Q.Class == ReqClass::Hit ? 1u : 0u);
    if (Q.Class == ReqClass::Cold)
      ColdDue[Key] = Q.DueS;
    if (Q.Class == ReqClass::Duplicate) {
      ASSERT_TRUE(ColdDue.count(Key));
      EXPECT_GT(Q.DueS, ColdDue[Key]);
    }
  }
  EXPECT_FALSE(ColdDue.empty());
  for (size_t I = 1; I < P.Requests.size(); ++I)
    EXPECT_LE(P.Requests[I - 1].DueS, P.Requests[I].DueS);
}

Span span(uint64_t Id, uint64_t Parent, double Start, double End) {
  Span S;
  S.Name = "s" + std::to_string(Id);
  S.Id = Id;
  S.Parent = Parent;
  S.StartUs = Start;
  S.EndUs = End;
  return S;
}

TEST(SelfTime, OverlappingChildrenAreNotCountedTwice) {
  // Parent [0,10] with children [0,6] and [4,9] (overlapping) and a
  // grandchild that must not count against the parent directly.
  std::vector<Span> Spans = {span(1, 0, 0, 10), span(2, 1, 0, 6),
                             span(3, 1, 4, 9), span(4, 2, 1, 2)};
  std::vector<double> Self = selfTimesUs(Spans);
  EXPECT_DOUBLE_EQ(Self[0], 1.0); // 10 - |[0,9]|
  EXPECT_DOUBLE_EQ(Self[1], 5.0); // 6 - 1
  EXPECT_DOUBLE_EQ(Self[2], 5.0);
  EXPECT_DOUBLE_EQ(Self[3], 1.0);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
  std::vector<Span> Spans = {span(1, 0, 10, 20), span(2, 1, 5, 12),
                             span(3, 1, 18, 30)};
  EXPECT_DOUBLE_EQ(selfTimesUs(Spans)[0], 6.0);
}

TEST(SelfTime, TracerNestsScopes) {
  Tracer T;
  T.setRequest(9);
  {
    Tracer::Scope Root(&T, "root");
    { Tracer::Scope A(&T, "a"); }
    { Tracer::Scope B(&T, "b"); }
  }
  { Tracer::Scope Untraced(nullptr, "ignored"); }
  ASSERT_EQ(T.spans().size(), 3u);
  EXPECT_EQ(T.spans()[0].Parent, 0u);
  EXPECT_EQ(T.spans()[1].Parent, T.spans()[0].Id);
  EXPECT_EQ(T.spans()[2].Parent, T.spans()[0].Id);
  for (const Span &S : T.spans()) {
    EXPECT_EQ(S.Request, 9u);
    EXPECT_LE(S.StartUs, S.EndUs);
  }
  std::map<std::string, SpanTotals> Totals = aggregate(T.spans());
  EXPECT_EQ(Totals["a"].Count, 1u);
  EXPECT_LE(Totals["root"].SelfUs, Totals["root"].TotalUs);
}

TEST(FailureAccounting, EveryNonSuccessStatusCounts) {
  const WireStatus All[] = {
      WireStatus::Optimized,        WireStatus::LookupHit,
      WireStatus::Degraded,         WireStatus::Cancelled,
      WireStatus::DeadlineExceeded, WireStatus::Failed,
      WireStatus::Rejected,         WireStatus::ResourceExhausted,
      WireStatus::InvalidRequest};
  for (WireStatus St : All) {
    Outcome O;
    O.Done = true;
    O.St = St;
    const bool Success = St == WireStatus::Optimized ||
                         St == WireStatus::LookupHit ||
                         St == WireStatus::Degraded;
    EXPECT_EQ(isFailure(O), !Success) << cuasmrl::net::statusName(St);
  }
  Outcome Lost; // No response frame: a transport error.
  Lost.Transport = "connection closed by server";
  EXPECT_TRUE(isFailure(Lost));
  Outcome Differs; // A hit whose binary differs from an earlier one.
  Differs.Done = true;
  Differs.St = WireStatus::LookupHit;
  Differs.BinaryMismatch = true;
  EXPECT_TRUE(isFailure(Differs));
}

PlannedRequest planned(ReqClass C) {
  PlannedRequest Q;
  Q.Class = C;
  return Q;
}

Outcome done(WireStatus St, const std::string &Key) {
  Outcome O;
  O.Done = true;
  O.St = St;
  O.ServedKey = Key;
  return O;
}

/// A mixed-churn-like run: a large volume of good timed hits beside one
/// listed request of every class.
struct ChurnRun {
  std::vector<PlannedRequest> Listed = {
      planned(ReqClass::Hit), planned(ReqClass::Cold),
      planned(ReqClass::NearMiss), planned(ReqClass::Duplicate)};
  std::vector<Outcome> Outcomes = {
      done(WireStatus::LookupHit, "hit-key"),
      done(WireStatus::Optimized, "cold-key"),
      done(WireStatus::Degraded, "hit-key"),
      done(WireStatus::Optimized, "cold-key")};
  TimedResult Timed;
  ChurnRun() {
    Timed.Completed = 100000;
    Timed.Served["hit-key"] = 100000;
  }
  Tally tally(const std::set<std::string> &BadKeys = {}) const {
    return tallyRequests(Listed, Outcomes, {&Timed}, BadKeys);
  }
};

RunChecks passingChecks() {
  RunChecks C;
  C.CheckedKeys = 2;
  return C;
}

TEST(FailureAccounting, CleanRunIsCorrect) {
  ChurnRun Run;
  Tally T = Run.tally();
  EXPECT_EQ(T.Attempted, 100004u);
  EXPECT_EQ(T.Completed, 100004u);
  EXPECT_EQ(T.Failed, 0u);
  EXPECT_EQ(T.ListedOk, std::vector<bool>(4, true));
  EXPECT_TRUE(runCorrect(T, passingChecks()));
}

TEST(FailureAccounting, OneFailedMissAmongManyHitsFailsTheRun) {
  const WireStatus Bad[] = {
      WireStatus::Cancelled,         WireStatus::DeadlineExceeded,
      WireStatus::Failed,            WireStatus::Rejected,
      WireStatus::ResourceExhausted, WireStatus::InvalidRequest};
  const FailClass Classes[] = {FailClass::Hit, FailClass::Cold,
                               FailClass::NearMiss, FailClass::Duplicate};
  for (size_t I = 0; I < 4; ++I)
    for (WireStatus St : Bad) {
      ChurnRun Run;
      Run.Outcomes[I] = done(St, ""); // A failed response carries no binary.
      Tally T = Run.tally();
      EXPECT_EQ(T.Failed, 1u) << cuasmrl::net::statusName(St);
      EXPECT_EQ(T.failed(Classes[I]), 1u) << failClassName(Classes[I]);
      EXPECT_FALSE(T.ListedOk[I]);
      EXPECT_FALSE(runCorrect(T, passingChecks()))
          << failClassName(Classes[I]) << " "
          << cuasmrl::net::statusName(St);
    }
  ChurnRun Lost;
  Lost.Outcomes[1] = Outcome(); // No response frame at all.
  Tally T = Lost.tally();
  EXPECT_EQ(T.failed(FailClass::Cold), 1u);
  EXPECT_EQ(T.Completed, 100003u);
  EXPECT_FALSE(runCorrect(T, passingChecks()));
}

TEST(FailureAccounting, BadKeysFailEveryRequestServedFromThem) {
  ChurnRun Run;
  Tally T = Run.tally({"hit-key"});
  // The listed hit, the near miss degraded from hit-key, and every
  // timed hit.
  EXPECT_EQ(T.failed(FailClass::Hit), 1u);
  EXPECT_EQ(T.failed(FailClass::NearMiss), 1u);
  EXPECT_EQ(T.failed(FailClass::TimedHit), 100000u);
  EXPECT_EQ(T.failed(FailClass::Cold), 0u);
  EXPECT_FALSE(runCorrect(T, passingChecks()));

  ChurnRun Timed;
  Timed.Timed.Failed = 3; // Non-hit statuses or differing binaries.
  T = Timed.tally();
  EXPECT_EQ(T.failed(FailClass::TimedHit), 3u);
  EXPECT_EQ(T.Attempted, 100007u);
  EXPECT_FALSE(runCorrect(T, passingChecks()));
}

TEST(FailureAccounting, EveryRunCheckMustPass) {
  const Tally T = ChurnRun().tally();
  RunChecks C = passingChecks();
  C.CheckedKeys = 0;
  EXPECT_FALSE(runCorrect(T, C));
  C = passingChecks();
  C.BadKeys = 1;
  EXPECT_FALSE(runCorrect(T, C));
  C = passingChecks();
  C.GeneratorOk = false;
  EXPECT_FALSE(runCorrect(T, C));
  C = passingChecks();
  C.ReplayOk = false;
  EXPECT_FALSE(runCorrect(T, C));
}

TEST(BinaryConsistency, DifferingBytesMarkTheKey) {
  cuasmrl::cubin::CubinFile A;
  A.info().Name = "k";
  A.addSection(".text").Data = {1, 2, 3};
  cuasmrl::cubin::CubinFile B = A;
  EXPECT_TRUE(sameBinary(A, B));
  B.addSection(".text").Data.clear();
  EXPECT_FALSE(sameBinary(A, B));
  cuasmrl::cubin::CubinFile C = A;
  C.findSection(".text")->Data[2] = 4;
  EXPECT_FALSE(sameBinary(A, C));
  cuasmrl::cubin::CubinFile D = A;
  D.info().GridX = 2;
  EXPECT_FALSE(sameBinary(A, D));

  BinaryMap Into = {{"same", A}, {"other", A}};
  BinaryMap From = {{"same", A}, {"other", C}, {"new", C}};
  std::set<std::string> Mismatched;
  mergeBinaries(Into, std::move(From), Mismatched);
  EXPECT_EQ(Mismatched, std::set<std::string>{"other"});
  ASSERT_TRUE(Into.count("new"));
  EXPECT_TRUE(sameBinary(Into.at("new"), C));
  EXPECT_TRUE(sameBinary(Into.at("other"), A));
}

} // namespace
