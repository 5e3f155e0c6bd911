// Unit tests for the common substrate: Status/Result, Rng, math utilities,
// CSV IO, and the CLI flag parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "common/cli.h"
#include "common/csv.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"

namespace uclust::common {
namespace {

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad k");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad k");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad k");
}

TEST(Status, FactoriesProduceDistinctCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(Result, MoveExtractsValue) {
  Result<std::string> r(std::string("payload"));
  std::string v = std::move(r).ValueOrDie();
  EXPECT_EQ(v, "payload");
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Uniform() == b.Uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Uniform(-2.0, 5.0);
    EXPECT_GE(x, -2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(4);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.UniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all values reachable
}

TEST(Rng, IndexCoversRange) {
  Rng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.Index(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, SampleWithoutReplacementIsDistinct) {
  Rng rng(6);
  const auto picks = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(picks.size(), 30u);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 30u);
  for (std::size_t p : picks) EXPECT_LT(p, 100u);
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(7);
  const auto picks = rng.SampleWithoutReplacement(5, 5);
  std::set<std::size_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(8);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, NormalMatchesMoments) {
  Rng rng(9);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMatchesMean) {
  Rng rng(10);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.mean(), 0.25, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.02);
}

TEST(MathUtils, NormalCdfKnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(kNormal95), 0.975, 1e-9);
  EXPECT_NEAR(NormalCdf(-kNormal95), 0.025, 1e-9);
  EXPECT_NEAR(NormalCdf(1.0) - NormalCdf(-1.0), 0.682689492137, 1e-9);
}

TEST(MathUtils, NormalPdfSymmetricAndPeaked) {
  EXPECT_NEAR(NormalPdf(0.0), 0.3989422804014327, 1e-15);
  EXPECT_DOUBLE_EQ(NormalPdf(1.3), NormalPdf(-1.3));
  EXPECT_GT(NormalPdf(0.0), NormalPdf(0.5));
}

TEST(MathUtils, Exp95Constant) {
  EXPECT_NEAR(std::exp(-kExp95), 0.05, 1e-12);
}

TEST(MathUtils, SquaredDistance) {
  const std::vector<double> a{1.0, 2.0, 3.0};
  const std::vector<double> b{4.0, 6.0, 3.0};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 9.0 + 16.0);
  EXPECT_DOUBLE_EQ(Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, a), 0.0);
}

TEST(MathUtils, SumAndMean) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Sum(v), 10.0);
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
}

TEST(MathUtils, Clamp) {
  EXPECT_DOUBLE_EQ(Clamp(5.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(Clamp(-5.0, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(Clamp(0.5, 0.0, 1.0), 0.5);
}

TEST(MathUtils, CloseTo) {
  EXPECT_TRUE(CloseTo(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(CloseTo(1.0, 1.001));
  EXPECT_TRUE(CloseTo(0.0, 0.0));
}

TEST(RunningStats, WelfordMatchesDirectComputation) {
  RunningStats stats;
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) stats.Add(x);
  EXPECT_EQ(stats.count(), xs.size());
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.population_variance(), 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(stats.min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats stats;
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
  stats.Add(3.0);
  EXPECT_DOUBLE_EQ(stats.mean(), 3.0);
  EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
}

TEST(Csv, RoundTrip) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "uclust_csv_test.csv")
          .string();
  const std::vector<std::string> header{"a", "b"};
  const std::vector<std::vector<double>> rows{{1.5, 2.0}, {-3.25, 4.0}};
  ASSERT_TRUE(WriteCsv(path, header, rows).ok());
  auto result = ReadCsv(path, /*has_header=*/true);
  ASSERT_TRUE(result.ok());
  const CsvTable table = std::move(result).ValueOrDie();
  EXPECT_EQ(table.header, header);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(table.rows[0][0], 1.5);
  EXPECT_DOUBLE_EQ(table.rows[1][0], -3.25);
  std::remove(path.c_str());
}

TEST(Csv, MissingFileIsIOError) {
  auto result = ReadCsv("/nonexistent/definitely/missing.csv", false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(Csv, NonNumericCellIsInvalid) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "uclust_bad.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1,2\n3,oops\n", f);
    std::fclose(f);
  }
  auto result = ReadCsv(path, false);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Csv, RaggedRowIsInvalid) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "uclust_ragged.csv").string();
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("1,2\n3\n", f);
    std::fclose(f);
  }
  auto result = ReadCsv(path, false);
  ASSERT_FALSE(result.ok());
  std::remove(path.c_str());
}

TEST(Cli, ParsesKeysAndDefaults) {
  const char* argv[] = {"prog", "--runs=5", "--scale=0.25", "--verbose",
                        "--name=abc"};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_TRUE(args.Has("runs"));
  EXPECT_EQ(args.GetInt("runs", 1), 5);
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 1.0), 0.25);
  EXPECT_TRUE(args.GetBool("verbose", false));
  EXPECT_EQ(args.GetString("name", ""), "abc");
  EXPECT_EQ(args.GetInt("missing", 9), 9);
  EXPECT_FALSE(args.Has("missing"));
}

TEST(CliDeathTest, MalformedNumberExitsNamingTheFlag) {
  const char* argv[] = {"prog", "--runs=abc", "--base_n=2k", "--scale=0.5x",
                        "--empty="};
  ArgParser args(5, const_cast<char**>(argv));
  EXPECT_EXIT(args.GetInt("runs", 3), ::testing::ExitedWithCode(1),
              "--runs: expected a number, got 'abc'");
  EXPECT_EXIT(args.GetInt("base_n", 50000), ::testing::ExitedWithCode(1),
              "--base_n: expected a number, got '2k'");
  EXPECT_EXIT(args.GetDouble("scale", 1.0), ::testing::ExitedWithCode(1),
              "--scale: expected a number, got '0.5x'");
  EXPECT_EXIT(args.GetInt("empty", 1), ::testing::ExitedWithCode(1),
              "--empty: expected a number, got ''");
  // Absent flags still take the default.
  EXPECT_EQ(args.GetInt("missing", 3), 3);
}

TEST(Stopwatch, MeasuresElapsedMonotonically) {
  Stopwatch sw;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  const double first = sw.ElapsedMs();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(sw.ElapsedMs(), first);
  sw.Reset();
  EXPECT_LT(sw.ElapsedMs(), first + 1000.0);
}

}  // namespace
}  // namespace uclust::common
