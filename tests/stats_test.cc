#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "common/random.h"
#include "stats/corpus_analyzer.h"
#include "stats/distribution.h"
#include "datagen/dictionary_generator.h"
#include "stats/fitting.h"
#include "xml/parser.h"

namespace xbench::stats {
namespace {

TEST(DistributionTest, UniformBoundsAndMean) {
  Rng rng(1);
  auto dist = MakeUniform(3, 9);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    int64_t v = dist->Sample(rng);
    ASSERT_GE(v, 3);
    ASSERT_LE(v, 9);
    sum += static_cast<double>(v);
  }
  EXPECT_NEAR(sum / 20000.0, dist->Mean(), 0.1);
  EXPECT_DOUBLE_EQ(dist->Mean(), 6.0);
}

TEST(DistributionTest, NormalClampsToBounds) {
  Rng rng(2);
  auto dist = MakeNormal(5.0, 10.0, 0, 10);
  for (int i = 0; i < 5000; ++i) {
    int64_t v = dist->Sample(rng);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 10);
  }
}

TEST(DistributionTest, NormalSampleMeanApproximatesMean) {
  Rng rng(3);
  auto dist = MakeNormal(50.0, 5.0, 0, 100);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += static_cast<double>(dist->Sample(rng));
  EXPECT_NEAR(sum / 20000.0, 50.0, 0.5);
}

TEST(DistributionTest, ExponentialIsSkewed) {
  Rng rng(4);
  auto dist = MakeExponential(2.0, 0, 50);
  std::map<int64_t, int> histogram;
  for (int i = 0; i < 20000; ++i) ++histogram[dist->Sample(rng)];
  // Mass decreases with value (long tail).
  EXPECT_GT(histogram[0] + histogram[1], histogram[4] + histogram[5]);
  EXPECT_GE(dist->min_value(), 0);
  EXPECT_LE(dist->max_value(), 50);
}

TEST(DistributionTest, ZipfRankOneMostFrequent) {
  Rng rng(5);
  auto dist = MakeZipf(100, 1.0);
  std::map<int64_t, int> histogram;
  for (int i = 0; i < 50000; ++i) ++histogram[dist->Sample(rng)];
  EXPECT_GT(histogram[1], histogram[2]);
  EXPECT_GT(histogram[2], histogram[10]);
  EXPECT_GT(histogram[1], histogram[50] * 5);
}

TEST(DistributionTest, ZipfZeroSkewIsUniformish) {
  Rng rng(6);
  auto dist = MakeZipf(10, 0.0);
  std::map<int64_t, int> histogram;
  for (int i = 0; i < 50000; ++i) ++histogram[dist->Sample(rng)];
  for (int64_t k = 1; k <= 10; ++k) {
    EXPECT_NEAR(histogram[k] / 50000.0, 0.1, 0.02) << k;
  }
}

TEST(DistributionTest, ZipfMeanMatchesSamples) {
  Rng rng(7);
  auto dist = MakeZipf(50, 1.2);
  double sum = 0;
  for (int i = 0; i < 30000; ++i) sum += static_cast<double>(dist->Sample(rng));
  EXPECT_NEAR(sum / 30000.0, dist->Mean(), 0.2);
}

TEST(CorpusAnalyzerTest, AggregatesFileStats) {
  CorpusAnalyzer analyzer("test");
  auto d1 = xml::Parse("<r><a>xx</a></r>", "1.xml");
  auto d2 = xml::Parse("<r><a>y</a><a>z</a></r>", "2.xml");
  analyzer.AddDocument(*d1, 2048);
  analyzer.AddDocument(*d2, 4096);
  const CorpusStats& stats = analyzer.stats();
  EXPECT_EQ(stats.file_count, 2u);
  EXPECT_EQ(stats.min_file_bytes, 2048u);
  EXPECT_EQ(stats.max_file_bytes, 4096u);
  EXPECT_EQ(stats.total_bytes, 6144u);
  EXPECT_EQ(stats.element_count, 5u);  // 2 roots + 3 a's
  EXPECT_EQ(stats.element_type_counts.at("a"), 3u);
  EXPECT_EQ(stats.text_bytes, 4u);  // "xx"+"y"+"z"
  EXPECT_EQ(stats.max_depth, 2);
}

TEST(CorpusAnalyzerTest, RowRendersLikeTable2) {
  CorpusAnalyzer analyzer("GCIDE-like");
  auto doc = xml::Parse("<r/>", "1.xml");
  analyzer.AddDocument(*doc, 56 * 1024 * 1024);
  std::string row = analyzer.stats().ToRow();
  EXPECT_NE(row.find("GCIDE-like"), std::string::npos);
  EXPECT_NE(row.find("56.0 MB"), std::string::npos) << row;
}

// --- Distribution fitting (§2.1.1 pipeline) -----------------------------------

std::vector<int64_t> Draw(const Distribution& dist, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) out.push_back(dist.Sample(rng));
  return out;
}

TEST(FittingTest, RecognizesConstant) {
  Fit fit = FitDistribution({4, 4, 4, 4});
  EXPECT_EQ(fit.family, Family::kConstant);
  EXPECT_EQ(fit.min_value, 4);
  EXPECT_EQ(fit.ToString(), "constant(4)");
}

TEST(FittingTest, RecognizesUniform) {
  auto dist = MakeUniform(10, 50);
  Fit fit = FitDistribution(Draw(*dist, 5000, 1));
  EXPECT_EQ(fit.family, Family::kUniform) << fit.ToString();
  EXPECT_NEAR(static_cast<double>(fit.min_value), 10, 2);
  EXPECT_NEAR(static_cast<double>(fit.max_value), 50, 2);
}

TEST(FittingTest, RecognizesNormal) {
  auto dist = MakeNormal(30, 4, 0, 100);
  Fit fit = FitDistribution(Draw(*dist, 5000, 2));
  EXPECT_EQ(fit.family, Family::kNormal) << fit.ToString();
  EXPECT_NEAR(fit.mean, 30, 0.5);
  EXPECT_NEAR(fit.stddev, 4, 0.5);
}

TEST(FittingTest, RecognizesExponential) {
  auto dist = MakeExponential(6, 0, 200);
  Fit fit = FitDistribution(Draw(*dist, 5000, 3));
  EXPECT_EQ(fit.family, Family::kExponential) << fit.ToString();
}

TEST(FittingTest, RecognizesZipf) {
  auto dist = MakeZipf(200, 1.0);
  Fit fit = FitDistribution(Draw(*dist, 8000, 4));
  EXPECT_EQ(fit.family, Family::kZipf) << fit.ToString();
}

TEST(FittingTest, FittedDistributionResamples) {
  auto dist = MakeNormal(20, 3, 5, 40);
  Fit fit = FitDistribution(Draw(*dist, 5000, 5));
  auto refit = fit.MakeDistribution();
  // Moments of the refit match the original closely.
  std::vector<int64_t> resampled = Draw(*refit, 5000, 6);
  double sum = 0;
  for (int64_t v : resampled) sum += static_cast<double>(v);
  EXPECT_NEAR(sum / 5000.0, 20, 0.5);
}

TEST(FittingTest, OccurrenceSamplesFromTree) {
  auto doc = xml::Parse(
      "<r><e><q/><q/></e><e><q/></e><e/><x><e><q/><q/><q/></e></x></r>",
      "t.xml");
  ASSERT_TRUE(doc.ok());
  auto samples = stats::OccurrenceSamples(*doc->root(), "e", "q");
  ASSERT_EQ(samples.size(), 4u);
  int64_t total = 0;
  for (int64_t s : samples) total += s;
  EXPECT_EQ(total, 6);
}

TEST(FittingTest, GeneratorParametersRecoveredFromGeneratedData) {
  // Full loop: the dictionary generator draws sense counts from
  // Normal(2.2, 1.2) on [1,6]; the analysis pipeline must recover a
  // mean close to that from the generated corpus.
  datagen::WordPool words;
  auto result = datagen::GenerateDictionary(256 * 1024, 42, words);
  auto doc = xml::Parse(result.documents[0].text, result.documents[0].name);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto samples = stats::OccurrenceSamples(*doc->root(), "entry", "sn");
  ASSERT_GT(samples.size(), 50u);
  Fit fit = FitDistribution(samples);
  EXPECT_NEAR(fit.mean, 2.2, 0.4) << fit.ToString();
  EXPECT_GE(fit.min_value, 1);
  EXPECT_LE(fit.max_value, 6);
}

}  // namespace
}  // namespace xbench::stats
