//===- tests/support_test.cpp - support library unit tests -------------------===//
//
// Part of the CuAsmRL reproduction. Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "support/AtomicFile.h"
#include "support/Error.h"
#include "support/FileLock.h"
#include "support/Rng.h"
#include "support/SingleFlight.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/ThreadPool.h"

#include "TestTemp.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace cuasmrl;

TEST(Rng, DeterministicForSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    if (A.next() == B.next())
      ++Same;
  EXPECT_LT(Same, 2);
}

TEST(Rng, UniformIntInBounds) {
  Rng R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.uniformInt(17), 17u);
}

TEST(Rng, UniformIntCoversSupport) {
  Rng R(7);
  std::vector<int> Counts(8, 0);
  for (int I = 0; I < 8000; ++I)
    ++Counts[R.uniformInt(8)];
  for (int C : Counts)
    EXPECT_GT(C, 700); // ~1000 expected each.
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng R(3);
  for (int I = 0; I < 1000; ++I) {
    double X = R.uniformReal();
    EXPECT_GE(X, 0.0);
    EXPECT_LT(X, 1.0);
  }
}

TEST(Rng, NormalMoments) {
  Rng R(11);
  double Sum = 0, SumSq = 0;
  const int N = 20000;
  for (int I = 0; I < N; ++I) {
    double X = R.normal();
    Sum += X;
    SumSq += X * X;
  }
  double Mean = Sum / N;
  double Var = SumSq / N - Mean * Mean;
  EXPECT_NEAR(Mean, 0.0, 0.05);
  EXPECT_NEAR(Var, 1.0, 0.05);
}

TEST(Rng, UniformRangeInclusive) {
  Rng R(5);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    int64_t X = R.uniformRange(-3, 3);
    EXPECT_GE(X, -3);
    EXPECT_LE(X, 3);
    SawLo |= X == -3;
    SawHi |= X == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Rng, CategoricalRespectsWeights) {
  Rng R(13);
  std::vector<double> W = {0.0, 1.0, 3.0};
  std::vector<int> Counts(3, 0);
  for (int I = 0; I < 8000; ++I)
    ++Counts[R.categorical(W)];
  EXPECT_EQ(Counts[0], 0);
  EXPECT_GT(Counts[2], Counts[1] * 2);
}

TEST(Rng, ShufflePermutes) {
  Rng R(17);
  std::vector<int> V = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> Orig = V;
  R.shuffle(V);
  std::sort(V.begin(), V.end());
  EXPECT_EQ(V, Orig);
}

TEST(Rng, ForkIndependent) {
  Rng A(21);
  Rng B = A.fork();
  EXPECT_NE(A.next(), B.next());
}

TEST(StringUtils, SplitKeepsEmptyFields) {
  auto Parts = split("a::b:", ':');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[0], "a");
  EXPECT_EQ(Parts[1], "");
  EXPECT_EQ(Parts[2], "b");
  EXPECT_EQ(Parts[3], "");
}

TEST(StringUtils, SplitWhitespaceDropsEmpty) {
  auto Parts = splitWhitespace("  foo \t bar\nbaz  ");
  ASSERT_EQ(Parts.size(), 3u);
  EXPECT_EQ(Parts[0], "foo");
  EXPECT_EQ(Parts[2], "baz");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(StringUtils, ParseIntDecimalAndHex) {
  EXPECT_EQ(parseInt("42").value(), 42);
  EXPECT_EQ(parseInt("-7").value(), -7);
  EXPECT_EQ(parseInt("0x1f").value(), 31);
  EXPECT_EQ(parseInt("-0x10").value(), -16);
  EXPECT_FALSE(parseInt("zebra").has_value());
  EXPECT_FALSE(parseInt("12x").has_value());
  EXPECT_FALSE(parseInt("").has_value());
}

TEST(StringUtils, ParseDouble) {
  EXPECT_DOUBLE_EQ(parseDouble("1.5").value(), 1.5);
  EXPECT_DOUBLE_EQ(parseDouble("-2e3").value(), -2000.0);
  EXPECT_FALSE(parseDouble("abc").has_value());
}

TEST(StringUtils, JoinAndUpper) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(toUpper("ldg.e"), "LDG.E");
}

TEST(StringUtils, StartsEndsWith) {
  EXPECT_TRUE(startsWith("IMAD.WIDE", "IMAD"));
  EXPECT_FALSE(startsWith("IMAD", "IMAD.WIDE"));
  EXPECT_TRUE(endsWith("R12.reuse", ".reuse"));
}

TEST(Table, AlignedOutputHasHeaderAndRows) {
  Table T({"kernel", "speedup"});
  T.addRow({"softmax", "1.05"});
  T.addRow("rmsnorm", {1.10}, 2);
  std::ostringstream OS;
  T.print(OS);
  std::string S = OS.str();
  EXPECT_NE(S.find("kernel"), std::string::npos);
  EXPECT_NE(S.find("softmax"), std::string::npos);
  EXPECT_NE(S.find("1.10"), std::string::npos);
}

TEST(Table, CsvOutput) {
  Table T({"a", "b"});
  T.addRow({"1", "2"});
  std::ostringstream OS;
  T.printCsv(OS);
  EXPECT_EQ(OS.str(), "a,b\n1,2\n");
}

TEST(ErrorTy, ExpectedValueAndError) {
  Expected<int> Ok(5);
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_EQ(*Ok, 5);

  Expected<int> Bad(Error("bad things", 3, 7));
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_EQ(Bad.error().message(), "bad things");
  EXPECT_NE(Bad.error().str().find("line 3"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  support::ThreadPool Pool(4);
  std::vector<std::atomic<int>> Counts(257);
  for (std::atomic<int> &C : Counts)
    C = 0;
  Pool.parallelFor(Counts.size(),
                   [&](size_t I) { Counts[I].fetch_add(1); });
  for (const std::atomic<int> &C : Counts)
    EXPECT_EQ(C.load(), 1);
}

TEST(ThreadPool, SubmitAndWaitDrains) {
  support::ThreadPool Pool(3);
  std::atomic<int> Done{0};
  for (int I = 0; I < 64; ++I)
    Pool.submit([&Done] { Done.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Done.load(), 64);
  // The pool is reusable after a drain.
  Pool.submit([&Done] { Done.fetch_add(1); });
  Pool.wait();
  EXPECT_EQ(Done.load(), 65);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  support::ThreadPool Pool(2);
  std::atomic<int> Ran{0};
  EXPECT_THROW(Pool.parallelFor(16,
                                [&](size_t I) {
                                  Ran.fetch_add(1);
                                  if (I == 7)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Every index still ran: one failure does not cancel the batch.
  EXPECT_EQ(Ran.load(), 16);
}

TEST(ThreadPool, DestructorJoinsOutstandingWork) {
  std::atomic<int> Done{0};
  {
    support::ThreadPool Pool(2);
    for (int I = 0; I < 32; ++I)
      Pool.submit([&Done] { Done.fetch_add(1); });
  } // Destructor must drain, then join.
  EXPECT_EQ(Done.load(), 32);
}

TEST(ThreadPool, ZeroThreadRequestClampsToOne) {
  support::ThreadPool Pool(0);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::atomic<int> Done{0};
  Pool.parallelFor(5, [&](size_t) { Done.fetch_add(1); });
  EXPECT_EQ(Done.load(), 5);
}

//===----------------------------------------------------------------------===//
// SingleFlight: one computation per key
//===----------------------------------------------------------------------===//

TEST(SingleFlight, RacingThreadsComputeOnce) {
  support::SingleFlight<int, int> Flight;
  std::atomic<int> Computations{0};
  std::vector<int> Seen(8, 0);
  support::ThreadPool Pool(Seen.size());
  Pool.parallelFor(Seen.size(), [&](size_t T) {
    auto C = Flight.acquire(7);
    if (C.Owned) {
      Computations.fetch_add(1);
      // Keep the key in flight while the other threads arrive.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Flight.publish(7, 49);
      Seen[T] = 49;
    } else {
      ASSERT_NE(C.Value, nullptr);
      Seen[T] = *C.Value;
    }
  });
  EXPECT_EQ(Computations.load(), 1);
  for (int V : Seen)
    EXPECT_EQ(V, 49);
  EXPECT_EQ(Flight.size(), 1u);
}

TEST(SingleFlight, AbandonLetsAWaiterReclaimAndPublish) {
  support::SingleFlight<std::string, int> Flight;
  ASSERT_TRUE(Flight.acquire("k").Owned);
  std::atomic<bool> WaiterOwned{false};
  std::thread Waiter([&] {
    auto C = Flight.acquire("k"); // Blocks until the owner gives up.
    if (C.Owned) {
      WaiterOwned = true;
      Flight.publish("k", 2);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  Flight.abandon("k"); // The failed owner: the key is not poisoned.
  Waiter.join();
  EXPECT_TRUE(WaiterOwned.load());
  ASSERT_NE(Flight.find("k"), nullptr);
  EXPECT_EQ(*Flight.find("k"), 2);
  EXPECT_EQ(Flight.size(), 1u);
}

TEST(SingleFlight, TryAcquireReportsInFlightElsewhere) {
  support::SingleFlight<int, int> Flight;
  std::promise<void> Claimed, Release;
  std::thread Owner([&] {
    ASSERT_TRUE(Flight.acquire(1).Owned);
    Claimed.set_value();
    Release.get_future().wait();
    Flight.publish(1, 10);
  });
  Claimed.get_future().wait();
  auto C = Flight.tryAcquire(1);
  EXPECT_FALSE(C.Owned);
  EXPECT_EQ(C.Value, nullptr) << "in flight on the owner thread";
  Release.set_value();
  Owner.join();
  C = Flight.tryAcquire(1);
  ASSERT_NE(C.Value, nullptr);
  EXPECT_EQ(*C.Value, 10);
  EXPECT_TRUE(Flight.tryAcquire(2).Owned) << "absent keys are claimed";
}

TEST(SingleFlight, FindSeesOnlyPublishedValues) {
  support::SingleFlight<int, double> Flight;
  EXPECT_EQ(Flight.find(3), nullptr);
  ASSERT_TRUE(Flight.acquire(3).Owned);
  EXPECT_EQ(Flight.find(3), nullptr) << "claimed, not yet published";
  EXPECT_EQ(Flight.size(), 0u);
  Flight.publish(3, 1.5);
  const double *V = Flight.find(3);
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(*V, 1.5);
  // Published entries never move: later inserts keep the pointer valid.
  for (int K = 100; K < 200; ++K) {
    ASSERT_TRUE(Flight.acquire(K).Owned);
    Flight.publish(K, K);
  }
  EXPECT_EQ(Flight.find(3), V);
  EXPECT_EQ(Flight.size(), 101u);
}

//===----------------------------------------------------------------------===//
// AtomicFile: write-sibling-then-rename persistence
//===----------------------------------------------------------------------===//

namespace {

std::string freshTmpDir(const std::string &Name) {
  std::string Dir = testing_support::freshTempPath(Name);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::string slurp(const std::string &Path) {
  std::ifstream IS(Path, std::ios::binary);
  std::ostringstream SS;
  SS << IS.rdbuf();
  return SS.str();
}

} // namespace

TEST(AtomicFile, WritesAndOverwritesAtomically) {
  std::string Dir = freshTmpDir("cuasmrl_atomicfile_test");
  std::string Path = Dir + "/blob.bin";
  ASSERT_TRUE(support::atomicWriteFile(Path, std::string("first")));
  EXPECT_EQ(slurp(Path), "first");
  // Last writer wins; no .tmp. sibling survives a completed write.
  ASSERT_TRUE(support::atomicWriteFile(Path, std::string("second")));
  EXPECT_EQ(slurp(Path), "second");
  unsigned NonTmp = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir)) {
    EXPECT_EQ(E.path().filename().string().find(".tmp."),
              std::string::npos);
    ++NonTmp;
  }
  EXPECT_EQ(NonTmp, 1u);
  std::filesystem::remove_all(Dir);
}

TEST(AtomicFile, FailsCleanlyOnMissingDirectory) {
  std::string Dir = freshTmpDir("cuasmrl_atomicfile_missing_test");
  std::filesystem::remove_all(Dir);
  // Nonexistent parent: the write must fail without creating anything.
  EXPECT_FALSE(support::atomicWriteFile(Dir + "/x.bin", std::string("v")));
  EXPECT_FALSE(std::filesystem::exists(Dir));
}

TEST(AtomicFile, SweepRemovesOnlyTmpOrphans) {
  std::string Dir = freshTmpDir("cuasmrl_atomicfile_sweep_test");
  ASSERT_TRUE(support::atomicWriteFile(Dir + "/keep.bin",
                                       std::string("keep")));
  { std::ofstream(Dir + "/keep.bin.tmp.123.4") << "torn"; }
  { std::ofstream(Dir + "/other.tmp.9.9") << "torn"; }
  EXPECT_EQ(support::sweepOrphanTmpFiles(Dir), 2u);
  EXPECT_TRUE(std::filesystem::exists(Dir + "/keep.bin"));
  EXPECT_EQ(slurp(Dir + "/keep.bin"), "keep");
  EXPECT_EQ(support::sweepOrphanTmpFiles(Dir), 0u); // Idempotent.
  // A directory that never existed sweeps as zero, not an error.
  EXPECT_EQ(support::sweepOrphanTmpFiles(Dir + "/nope"), 0u);
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// FileLock: cross-process claim files
//===----------------------------------------------------------------------===//

TEST(FileLock, ClaimIsExclusiveUntilReleased) {
  std::string Dir = freshTmpDir("cuasmrl_filelock_test");
  std::string Path = Dir + "/claims/key.lock";
  std::string A = support::FileLock::makeToken();
  std::string B = support::FileLock::makeToken();
  EXPECT_NE(A, B); // Same process, distinct claimants.

  // A wins the race; B cannot claim or release what A owns.
  EXPECT_TRUE(support::FileLock::tryClaim(Path, A));
  EXPECT_FALSE(support::FileLock::tryClaim(Path, B));
  EXPECT_EQ(support::FileLock::owner(Path).value_or(""), A);
  EXPECT_FALSE(support::FileLock::release(Path, B));
  EXPECT_TRUE(std::filesystem::exists(Path));

  EXPECT_TRUE(support::FileLock::release(Path, A));
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(support::FileLock::owner(Path).has_value());
  EXPECT_FALSE(support::FileLock::release(Path, A)); // Already gone.

  // Released path is claimable again.
  EXPECT_TRUE(support::FileLock::tryClaim(Path, B));
  EXPECT_TRUE(support::FileLock::release(Path, B));
  std::filesystem::remove_all(Dir);
}

TEST(FileLock, RefreshIsOwnershipChecked) {
  std::string Dir = freshTmpDir("cuasmrl_filelock_refresh_test");
  std::string Path = Dir + "/key.lock";
  std::string A = support::FileLock::makeToken();
  std::string B = support::FileLock::makeToken();
  EXPECT_FALSE(support::FileLock::refresh(Path, A)); // No claim yet.
  ASSERT_TRUE(support::FileLock::tryClaim(Path, A));
  EXPECT_TRUE(support::FileLock::refresh(Path, A));
  EXPECT_FALSE(support::FileLock::refresh(Path, B)); // Not the owner.
  auto Age = support::FileLock::age(Path);
  ASSERT_TRUE(Age.has_value());
  EXPECT_GE(Age->count(), 0); // Clamped against clock skew.
  std::filesystem::remove_all(Dir);
}

TEST(FileLock, BreakStaleRemovesOnlyOldClaims) {
  std::string Dir = freshTmpDir("cuasmrl_filelock_stale_test");
  std::string Path = Dir + "/key.lock";
  std::string A = support::FileLock::makeToken();
  ASSERT_TRUE(support::FileLock::tryClaim(Path, A));

  // A fresh heartbeat survives a generous staleness budget.
  EXPECT_FALSE(support::FileLock::breakStale(
      Path, std::chrono::milliseconds(60000)));
  EXPECT_TRUE(std::filesystem::exists(Path));

  // Backdate the heartbeat past the budget: the claim is breakable,
  // and the late original owner can no longer refresh or release a
  // path someone else re-claimed.
  std::filesystem::last_write_time(
      Path, std::filesystem::file_time_type::clock::now() -
                std::chrono::seconds(120));
  ASSERT_TRUE(support::FileLock::age(Path).has_value());
  EXPECT_GE(support::FileLock::age(Path)->count(), 100000);
  EXPECT_TRUE(support::FileLock::breakStale(
      Path, std::chrono::milliseconds(60000)));
  EXPECT_FALSE(std::filesystem::exists(Path));
  EXPECT_FALSE(support::FileLock::breakStale(
      Path, std::chrono::milliseconds(60000))); // Nothing left to break.

  std::string B = support::FileLock::makeToken();
  ASSERT_TRUE(support::FileLock::tryClaim(Path, B));
  EXPECT_FALSE(support::FileLock::refresh(Path, A));
  EXPECT_FALSE(support::FileLock::release(Path, A));
  EXPECT_EQ(support::FileLock::owner(Path).value_or(""), B);
  std::filesystem::remove_all(Dir);
}

TEST(FileLock, ConcurrentClaimantsExactlyOneWins) {
  std::string Dir = freshTmpDir("cuasmrl_filelock_race_test");
  std::string Path = Dir + "/key.lock";
  constexpr unsigned N = 8;
  std::vector<std::string> Tokens;
  for (unsigned I = 0; I < N; ++I)
    Tokens.push_back(support::FileLock::makeToken());
  std::atomic<unsigned> Wins{0};
  {
    support::ThreadPool Pool(N);
    Pool.parallelFor(N, [&](size_t I) {
      if (support::FileLock::tryClaim(Path, Tokens[I]))
        Wins.fetch_add(1);
    });
  }
  EXPECT_EQ(Wins.load(), 1u);
  auto Owner = support::FileLock::owner(Path);
  ASSERT_TRUE(Owner.has_value());
  EXPECT_TRUE(support::FileLock::release(Path, *Owner));
  std::filesystem::remove_all(Dir);
}
