#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include <cmath>
#include <map>
#include <set>

#include "common/random.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/worker_pool.h"

namespace xbench {
namespace {

// --- Status / Result ----------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("missing thing");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(status.ToString(), "NotFound: missing thing");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= 8; ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v;
}

Result<int> DoublePositive(int v) {
  XBENCH_ASSIGN_OR_RETURN(int parsed, ParsePositive(v));
  return parsed * 2;
}

TEST(ResultTest, ValuePropagates) {
  auto result = DoublePositive(21);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 42);
}

TEST(ResultTest, ErrorPropagatesThroughMacro) {
  auto result = DoublePositive(-1);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- Rng ------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMeanAndVariance) {
  Rng rng(11);
  double sum = 0;
  double sum_sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.05);
}

TEST(RngTest, BoolProbability) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.NextBool(0.25)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
  EXPECT_FALSE(rng.NextBool(0.0));
  EXPECT_TRUE(rng.NextBool(1.0));
}

TEST(RngTest, ForkIsIndependentButDeterministic) {
  Rng a(99);
  Rng b(99);
  Rng fa = a.Fork();
  Rng fb = b.Fork();
  EXPECT_EQ(fa.Next(), fb.Next());
}

TEST(RngTest, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), orig.begin()));
}

// --- strings ---------------------------------------------------------------

TEST(StringsTest, SplitKeepsEmptyFields) {
  auto parts = Split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringsTest, JoinRoundTrip) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, "/"), "x/y/z");
  EXPECT_EQ(Join({}, "/"), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("x"), "x");
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("catalog.xml", "catalog"));
  EXPECT_FALSE(StartsWith("cat", "catalog"));
  EXPECT_TRUE(EndsWith("catalog.xml", ".xml"));
  EXPECT_FALSE(EndsWith("xml", "catalog.xml"));
}

TEST(StringsTest, ContainsWordRespectsBoundaries) {
  EXPECT_TRUE(ContainsWord("the quick brown fox", "quick"));
  EXPECT_FALSE(ContainsWord("quickly done", "quick"));
  EXPECT_TRUE(ContainsWord("end word", "word"));
  EXPECT_TRUE(ContainsWord("word starts", "word"));
  EXPECT_FALSE(ContainsWord("sword", "word"));
  EXPECT_FALSE(ContainsWord("", "word"));
  EXPECT_FALSE(ContainsWord("text", ""));
  EXPECT_TRUE(ContainsWord("a.word,here", "word"));
}

TEST(StringsTest, ContainsPhrase) {
  EXPECT_TRUE(ContainsPhrase("alpha beta gamma", "beta gam"));
  EXPECT_FALSE(ContainsPhrase("alpha", "beta"));
}

TEST(StringsTest, PadNumber) {
  EXPECT_EQ(PadNumber(42, 6), "000042");
  EXPECT_EQ(PadNumber(1234567, 6), "1234567");
  EXPECT_EQ(PadNumber(0, 3), "000");
}

TEST(StringsTest, ParseInt) {
  EXPECT_EQ(ParseInt("123"), 123);
  EXPECT_EQ(ParseInt("  99 "), 99);
  EXPECT_EQ(ParseInt("12x"), -1);
  EXPECT_EQ(ParseInt(""), -1);
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(ParseDouble("1.5"), 1.5);
  EXPECT_TRUE(std::isnan(ParseDouble("abc")));
  EXPECT_TRUE(std::isnan(ParseDouble("")));
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
}

TEST(WorkerPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  WorkerPool pool(3);
  constexpr size_t kTotal = 1000;
  std::vector<std::atomic<int>> hits(kTotal);
  ParallelRunStats stats;
  Status status = pool.ParallelFor(
      kTotal, 4,
      [&hits](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
        return Status::Ok();
      },
      &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  for (size_t i = 0; i < kTotal; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_GT(stats.morsels, 1u);
}

TEST(WorkerPoolTest, ParallelForZeroTotalIsANoOp) {
  WorkerPool pool(2);
  ParallelRunStats stats;
  Status status = pool.ParallelFor(
      0, 4, [](size_t) { return Status::Internal("never called"); }, &stats);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(stats.morsels, 0u);
}

TEST(WorkerPoolTest, ParallelismOneRunsEverythingOnTheCaller) {
  WorkerPool pool(2);
  constexpr size_t kTotal = 64;
  std::atomic<size_t> count{0};
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> off_thread{false};
  ParallelRunStats stats;
  Status status = pool.ParallelFor(
      kTotal, 1,
      [&](size_t) {
        if (std::this_thread::get_id() != caller) off_thread = true;
        count.fetch_add(1);
        return Status::Ok();
      },
      &stats);
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(count.load(), kTotal);
  EXPECT_FALSE(off_thread.load());
  EXPECT_GT(stats.morsels, 0u);
}

TEST(WorkerPoolTest, LowestFailingIndexStatusWinsDeterministically) {
  WorkerPool pool(3);
  constexpr size_t kTotal = 500;
  for (int round = 0; round < 5; ++round) {
    Status status = pool.ParallelFor(kTotal, 4, [](size_t i) {
      if (i >= 17) {
        return Status::Internal("fail at " + std::to_string(i));
      }
      return Status::Ok();
    });
    ASSERT_FALSE(status.ok());
    // Index 17 is the lowest failure; any lane may observe a higher one
    // first, but the region must still report 17.
    EXPECT_NE(status.ToString().find("fail at 17"), std::string::npos)
        << status.ToString();
  }
}

}  // namespace
}  // namespace xbench
