// Tests for the per-cluster aggregates and the closed-form objectives,
// including the O(m) incremental add/remove evaluations of Corollary 1.
#include <gtest/gtest.h>

#include <cmath>

#include "clustering/cluster_stats.h"
#include "common/rng.h"
#include "data/uncertainty_model.h"
#include "uncertain/moments.h"
#include "uncertain/uncertain_object.h"

namespace uclust::clustering {
namespace {

using data::MakeUncertainPdf;
using data::PdfFamily;
using uncertain::MomentMatrix;
using uncertain::PdfPtr;
using uncertain::UncertainObject;

// A mixed-family random collection of uncertain objects.
MomentMatrix RandomMoments(std::size_t n, std::size_t m, uint64_t seed) {
  common::Rng rng(seed);
  std::vector<UncertainObject> objs;
  objs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<PdfPtr> dims;
    for (std::size_t j = 0; j < m; ++j) {
      const auto family = static_cast<PdfFamily>(rng.UniformInt(0, 2));
      dims.push_back(MakeUncertainPdf(family, rng.Uniform(-3.0, 3.0),
                                      rng.Uniform(0.05, 0.8)));
    }
    objs.emplace_back(std::move(dims));
  }
  return MomentMatrix::FromObjects(objs);
}

TEST(ClusterMoments, AddAccumulatesSums) {
  const MomentMatrix mm = RandomMoments(4, 3, 1);
  ClusterMoments c(3);
  c.Add(mm, 0);
  c.Add(mm, 2);
  EXPECT_EQ(c.size(), 2u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(c.sum_mu()[j], mm.mean(0)[j] + mm.mean(2)[j], 1e-12);
    EXPECT_NEAR(c.sum_mu2()[j],
                mm.second_moment(0)[j] + mm.second_moment(2)[j], 1e-12);
    EXPECT_NEAR(c.sum_var()[j], mm.variance(0)[j] + mm.variance(2)[j],
                1e-12);
  }
}

TEST(ClusterMoments, RemoveInvertsAdd) {
  const MomentMatrix mm = RandomMoments(5, 2, 2);
  ClusterMoments c(2);
  c.Add(mm, 1);
  c.Add(mm, 3);
  c.Add(mm, 4);
  c.Remove(mm, 3);
  ClusterMoments expected(2);
  expected.Add(mm, 1);
  expected.Add(mm, 4);
  EXPECT_EQ(c.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(c.sum_mu()[j], expected.sum_mu()[j], 1e-12);
    EXPECT_NEAR(c.sum_mu2()[j], expected.sum_mu2()[j], 1e-12);
    EXPECT_NEAR(c.sum_var()[j], expected.sum_var()[j], 1e-12);
  }
}

TEST(Objectives, EmptyClusterIsZero) {
  ClusterMoments c(4);
  EXPECT_DOUBLE_EQ(UcpcObjective(c), 0.0);
  EXPECT_DOUBLE_EQ(UkmeansObjective(c), 0.0);
  EXPECT_DOUBLE_EQ(MmvarObjective(c), 0.0);
}

TEST(Objectives, SingletonCluster) {
  // For |C| = 1: J_UK = sum_j (mu2_j - mu_j^2) = sigma^2(o);
  // J = sigma^2(o) + J_UK = 2 sigma^2(o); J_MM = sigma^2(o).
  const MomentMatrix mm = RandomMoments(1, 3, 3);
  ClusterMoments c(3);
  c.Add(mm, 0);
  EXPECT_NEAR(UkmeansObjective(c), mm.total_variance(0), 1e-12);
  EXPECT_NEAR(UcpcObjective(c), 2.0 * mm.total_variance(0), 1e-12);
  EXPECT_NEAR(MmvarObjective(c), mm.total_variance(0), 1e-12);
}

TEST(Objectives, UcpcDecomposition) {
  // Theorem 3 second form: J(C) = (1/|C|) sum sigma^2(o) + J_UK(C).
  const MomentMatrix mm = RandomMoments(10, 4, 4);
  ClusterMoments c(4);
  double sum_var = 0.0;
  for (std::size_t i = 0; i < 10; ++i) {
    c.Add(mm, i);
    sum_var += mm.total_variance(i);
  }
  EXPECT_NEAR(UcpcObjective(c), sum_var / 10.0 + UkmeansObjective(c),
              1e-9 * (1.0 + UcpcObjective(c)));
}

TEST(Objectives, DispatchMatchesDirectCalls) {
  const MomentMatrix mm = RandomMoments(6, 2, 5);
  ClusterMoments c(2);
  for (std::size_t i = 0; i < 6; ++i) c.Add(mm, i);
  EXPECT_DOUBLE_EQ(Objective(ObjectiveKind::kUcpc, c), UcpcObjective(c));
  EXPECT_DOUBLE_EQ(Objective(ObjectiveKind::kMmvar, c), MmvarObjective(c));
  EXPECT_DOUBLE_EQ(Objective(ObjectiveKind::kUkmeans, c),
                   UkmeansObjective(c));
}

TEST(Objectives, NamesAreStable) {
  EXPECT_STREQ(ObjectiveKindName(ObjectiveKind::kUcpc), "UCPC");
  EXPECT_STREQ(ObjectiveKindName(ObjectiveKind::kMmvar), "MMVar");
  EXPECT_STREQ(ObjectiveKindName(ObjectiveKind::kUkmeans), "UK-means");
}

// Corollary 1: the O(m) incremental evaluations must agree exactly with
// recomputation after actually mutating the aggregates — for every
// objective, across random clusters.
class IncrementalUpdateProperty
    : public ::testing::TestWithParam<ObjectiveKind> {};

TEST_P(IncrementalUpdateProperty, AddMatchesRecompute) {
  const ObjectiveKind kind = GetParam();
  const MomentMatrix mm = RandomMoments(40, 5, 6);
  common::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    ClusterMoments c(5);
    const std::size_t members = 1 + rng.Index(30);
    for (std::size_t i = 0; i < members; ++i) c.Add(mm, rng.Index(40));
    const std::size_t incoming = rng.Index(40);
    const double predicted = ObjectiveAfterAdd(kind, c, mm, incoming);
    c.Add(mm, incoming);
    EXPECT_NEAR(predicted, Objective(kind, c),
                1e-9 * (1.0 + std::fabs(predicted)));
  }
}

TEST_P(IncrementalUpdateProperty, RemoveMatchesRecompute) {
  const ObjectiveKind kind = GetParam();
  const MomentMatrix mm = RandomMoments(40, 5, 8);
  common::Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    ClusterMoments c(5);
    std::vector<std::size_t> members;
    const std::size_t count = 2 + rng.Index(25);
    for (std::size_t i = 0; i < count; ++i) {
      members.push_back(rng.Index(40));
      c.Add(mm, members.back());
    }
    const std::size_t victim = members[rng.Index(members.size())];
    const double predicted = ObjectiveAfterRemove(kind, c, mm, victim);
    c.Remove(mm, victim);
    EXPECT_NEAR(predicted, Objective(kind, c),
                1e-9 * (1.0 + std::fabs(predicted)));
  }
}

TEST_P(IncrementalUpdateProperty, RemoveToEmptyIsZero) {
  const ObjectiveKind kind = GetParam();
  const MomentMatrix mm = RandomMoments(3, 2, 10);
  ClusterMoments c(2);
  c.Add(mm, 1);
  EXPECT_DOUBLE_EQ(ObjectiveAfterRemove(kind, c, mm, 1), 0.0);
}

// ||mu(i) - T/|C| ||^2, the d2 of the affine relocation deltas.
double SquaredDistanceToMeanOfMeans(const ClusterMoments& c,
                                    const MomentMatrix& mm, std::size_t i) {
  const double s = static_cast<double>(c.size());
  double d2 = 0.0;
  for (std::size_t j = 0; j < c.dims(); ++j) {
    const double d = mm.mean(i)[j] - c.sum_mu()[j] / s;
    d2 += d * d;
  }
  return d2;
}

// The proposal sweep's a * d2 + b * V + g deltas are the Corollary 1 deltas
// rewritten, for adds at every size and removes from s >= 2.
TEST_P(IncrementalUpdateProperty, AffineDeltasMatchCorollaryOne) {
  const ObjectiveKind kind = GetParam();
  const MomentMatrix mm = RandomMoments(60, 4, 12);
  for (const std::size_t s : {1, 2, 3, 50}) {
    ClusterMoments c(4);
    for (std::size_t i = 0; i < s; ++i) c.Add(mm, i);
    const double j = Objective(kind, c);
    const double tol = 1e-12 * (1.0 + std::fabs(j));
    const DeltaCoefficients add = AddDeltaCoefficients(kind, c);
    for (const std::size_t i : {std::size_t{55}, std::size_t{59}}) {
      const double affine = add.a * SquaredDistanceToMeanOfMeans(c, mm, i) +
                            add.b * mm.total_variance(i) + add.g;
      EXPECT_NEAR(affine, ObjectiveAfterAdd(kind, c, mm, i) - j, tol)
          << "add, s=" << s << " i=" << i;
    }
    if (s < 2) continue;
    const DeltaCoefficients remove = RemoveDeltaCoefficients(kind, c);
    for (const std::size_t i : {std::size_t{0}, s - 1}) {
      const double affine = remove.a * SquaredDistanceToMeanOfMeans(c, mm, i) +
                            remove.b * mm.total_variance(i) + remove.g;
      EXPECT_NEAR(affine, ObjectiveAfterRemove(kind, c, mm, i) - j, tol)
          << "remove, s=" << s << " i=" << i;
    }
  }
}

// Adding to an empty cluster costs exactly the singleton objective: a = 0
// and g = 0 (no 0/0), b = 2 for UCPC (V/1 + V) and 1 for MMVar/UK-means.
TEST_P(IncrementalUpdateProperty, EmptyClusterAddCoefficientsAreExact) {
  const ObjectiveKind kind = GetParam();
  const MomentMatrix mm = RandomMoments(3, 4, 13);
  const ClusterMoments empty(4);
  const DeltaCoefficients add = AddDeltaCoefficients(kind, empty);
  EXPECT_EQ(add.a, 0.0);
  EXPECT_EQ(add.g, 0.0);
  EXPECT_EQ(add.b, kind == ObjectiveKind::kUcpc ? 2.0 : 1.0);
  const double v = mm.total_variance(1);
  EXPECT_NEAR(add.b * v, ObjectiveAfterAdd(kind, empty, mm, 1),
              1e-12 * (1.0 + v));
}

std::string ObjectiveName(
    const ::testing::TestParamInfo<ObjectiveKind>& param_info) {
  const std::string raw = ObjectiveKindName(param_info.param);
  return raw == "UK-means" ? "UKmeans" : raw;
}

INSTANTIATE_TEST_SUITE_P(AllObjectives, IncrementalUpdateProperty,
                         ::testing::Values(ObjectiveKind::kUcpc,
                                           ObjectiveKind::kMmvar,
                                           ObjectiveKind::kUkmeans),
                         ObjectiveName);

TEST(TotalObjective, SumsPerClusterValues) {
  const MomentMatrix mm = RandomMoments(12, 3, 11);
  const std::vector<int> labels{0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2};
  ClusterMoments c0(3), c1(3), c2(3);
  for (std::size_t i = 0; i < 12; ++i) {
    (labels[i] == 0 ? c0 : labels[i] == 1 ? c1 : c2).Add(mm, i);
  }
  const double expected =
      UcpcObjective(c0) + UcpcObjective(c1) + UcpcObjective(c2);
  EXPECT_NEAR(TotalObjective(ObjectiveKind::kUcpc, mm, labels, 3), expected,
              1e-9);
}

TEST(ExpectedDistanceToUCentroid, SumsToTheoremThreeObjective) {
  // J(C) = sum_{o in C} ED^(o, U-centroid): the per-object closed form must
  // sum to the aggregate closed form.
  const MomentMatrix mm = RandomMoments(15, 4, 12);
  ClusterMoments c(4);
  for (std::size_t i = 0; i < 15; ++i) c.Add(mm, i);
  double sum = 0.0;
  for (std::size_t i = 0; i < 15; ++i) {
    sum += ExpectedDistanceToUCentroid(c, mm, i);
  }
  EXPECT_NEAR(sum, UcpcObjective(c), 1e-9 * (1.0 + sum));
}

}  // namespace
}  // namespace uclust::clustering
