// SpatialIndex exactness contract: over a mix of pdf families and
// dimensionalities, QueryWithin must return EXACTLY the brute-force set
// { j : boxes[j].MinSquaredDistanceTo(query) <= threshold2 } and
// KthMaxSquaredDistance the exact rank statistic of the max bound. These
// are the invariants the indexed FDBSCAN / FOPTICS sweeps rely on for
// bit-identical clusterings (docs/spatial-index.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

#include "clustering/spatial_index.h"
#include "common/rng.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/discrete_pdf.h"
#include "uncertain/uniform_pdf.h"
#include "data/uncertainty_model.h"
#include "uncertain/uncertain_object.h"

namespace uclust::clustering {
namespace {

using uncertain::Box;
using uncertain::UncertainObject;

// The dimensionalities every check runs at: a 1-D line, the low dimensions
// the paper's figures use, and a higher one where STR packing cycles
// through many split dimensions.
constexpr std::size_t kDims[] = {1, 2, 3, 8};

SpatialIndex IndexOf(const std::vector<UncertainObject>& objects) {
  return SpatialIndex(
      std::span<const UncertainObject>(objects.data(), objects.size()));
}

// Objects with per-dimension pdfs cycling through every supported family —
// including zero-extent Dirac regions — so degenerate and fat boxes mix.
std::vector<UncertainObject> MixedFamilyObjects(std::size_t n, std::size_t m,
                                                uint64_t seed) {
  common::Rng rng(seed);
  std::vector<UncertainObject> objects;
  objects.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<uncertain::PdfPtr> dims;
    dims.reserve(m);
    for (std::size_t j = 0; j < m; ++j) {
      const double c = rng.Uniform(-2.0, 2.0);
      const double w = 0.02 + 0.3 * rng.Uniform();
      switch ((i * m + j) % 5) {
        case 0:
          dims.push_back(uncertain::UniformPdf::Centered(c, w));
          break;
        case 1:
          dims.push_back(
              data::MakeUncertainPdf(data::PdfFamily::kNormal, c, w));
          break;
        case 2:
          dims.push_back(
              data::MakeUncertainPdf(data::PdfFamily::kExponential, c, w));
          break;
        case 3:
          dims.push_back(
              uncertain::DiscretePdf::Uniformly({c - w, c, c + 0.5 * w}));
          break;
        default:
          dims.push_back(uncertain::DiracPdf::Make(c));
          break;
      }
    }
    objects.emplace_back(std::move(dims));
  }
  return objects;
}

std::vector<std::size_t> BruteWithin(
    const std::vector<UncertainObject>& objects, const Box& query,
    double threshold2, std::size_t exclude) {
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < objects.size(); ++j) {
    if (j == exclude) continue;
    if (objects[j].region().MinSquaredDistanceTo(query) <= threshold2) {
      out.push_back(j);
    }
  }
  return out;
}

// QueryWithin over random queries and thresholds must equal the brute-force
// set element-for-element across dimensionalities.
TEST(SpatialIndex, QueryWithinMatchesBruteForceAcrossFamilies) {
  for (const std::size_t m : kDims) {
    const auto objects = MixedFamilyObjects(120, m, 0xB0C5 + m);
    common::Rng rng(0xF00D + m);
    const SpatialIndex index = IndexOf(objects);
    ASSERT_EQ(index.size(), objects.size());
    for (int probe = 0; probe < 64; ++probe) {
      const std::size_t i = rng.Index(objects.size());
      // Thresholds from tiny (often-empty result) to huge (everything).
      const double t2 = std::pow(10.0, rng.Uniform(-4.0, 1.0));
      const std::size_t exclude =
          probe % 2 == 0 ? i : objects.size();  // with and without self
      std::vector<std::size_t> got;
      index.QueryWithin(objects[i].region(), t2, exclude, &got);
      EXPECT_EQ(got, BruteWithin(objects, objects[i].region(), t2, exclude))
          << "m=" << m << " probe=" << probe;
    }
  }
}

// The k-th smallest max-distance bound, the FOPTICS range radius.
TEST(SpatialIndex, KthMaxSquaredDistanceMatchesBruteForce) {
  for (const std::size_t m : kDims) {
    const auto objects = MixedFamilyObjects(80, m, 0xCAFE + m);
    common::Rng rng(0xBEEF + m);
    const SpatialIndex index = IndexOf(objects);
    for (int probe = 0; probe < 48; ++probe) {
      const std::size_t i = rng.Index(objects.size());
      const std::size_t rank = 1 + rng.Index(objects.size() - 1);
      std::vector<double> maxes;
      for (std::size_t j = 0; j < objects.size(); ++j) {
        if (j == i) continue;
        maxes.push_back(
            objects[j].region().MaxSquaredDistanceTo(objects[i].region()));
      }
      std::nth_element(maxes.begin(), maxes.begin() + (rank - 1),
                       maxes.end());
      EXPECT_EQ(index.KthMaxSquaredDistance(objects[i].region(), rank, i),
                maxes[rank - 1])
          << "m=" << m << " probe=" << probe << " rank=" << rank;
    }
    // More ranks than boxes: no radius captures that many.
    EXPECT_EQ(index.KthMaxSquaredDistance(objects[0].region(),
                                          objects.size() + 5, 0),
              std::numeric_limits<double>::infinity());
  }
}

// Degenerate shapes: a single object, and all boxes stacked on one spot
// (every pair at distance 0 — the R-tree collapses to one leaf; queries
// must still return complete sets).
TEST(SpatialIndex, SingleObjectAndAllOverlappingBoxes) {
  for (const std::size_t m : kDims) {
    const std::vector<double> spot(m, 0.5);
    // Single object.
    std::vector<UncertainObject> one;
    one.push_back(UncertainObject::Deterministic(spot));
    const SpatialIndex single = IndexOf(one);
    std::vector<std::size_t> out;
    single.QueryWithin(one[0].region(), 1.0, 0, &out);
    EXPECT_TRUE(out.empty()) << "m=" << m;  // only the excluded self
    single.QueryWithin(one[0].region(), 0.0, one.size(), &out);
    EXPECT_EQ(out, std::vector<std::size_t>{0}) << "m=" << m;
    EXPECT_EQ(single.KthMaxSquaredDistance(one[0].region(), 1, 0),
              std::numeric_limits<double>::infinity());

    // Identical boxes: zero-width and fat variants sharing one center.
    std::vector<UncertainObject> stack;
    for (int i = 0; i < 17; ++i) {
      if (i % 2 == 0) {
        stack.push_back(UncertainObject::Deterministic(spot));
      } else {
        std::vector<uncertain::PdfPtr> dims;
        for (const double c : spot) {
          dims.push_back(uncertain::UniformPdf::Centered(c, 0.25));
        }
        stack.emplace_back(std::move(dims));
      }
    }
    const SpatialIndex overlap = IndexOf(stack);
    overlap.QueryWithin(stack[0].region(), 0.0, 3, &out);
    EXPECT_EQ(out.size(), stack.size() - 1) << "m=" << m;
    ASSERT_TRUE(std::is_sorted(out.begin(), out.end()));
    EXPECT_EQ(overlap.KthMaxSquaredDistance(stack[0].region(),
                                            stack.size() - 1, 0),
              stack[1].region().MaxSquaredDistanceTo(stack[0].region()))
        << "m=" << m;
  }
}

// An empty object list builds and answers every query with the empty set.
TEST(SpatialIndex, EmptyIndexAnswersEmptily) {
  const SpatialIndex empty(std::span<const UncertainObject>{});
  EXPECT_EQ(empty.size(), std::size_t{0});
  const Box q({0.0}, {1.0});
  std::vector<std::size_t> out = {99};
  empty.QueryWithin(q, 1e9, 0, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(empty.KthMaxSquaredDistance(q, 1, 0),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(empty.bound_tests(), 0);
}

// The bound-test counter grows with queries and is what the CI smoke gate
// compares against the all-pairs floor.
TEST(SpatialIndex, BoundTestCounterIsMonotone) {
  for (const std::size_t m : kDims) {
    const auto objects = MixedFamilyObjects(40, m, 0x1234 + m);
    const SpatialIndex index = IndexOf(objects);
    EXPECT_EQ(index.bound_tests(), 0);
    std::vector<std::size_t> out;
    index.QueryWithin(objects[0].region(), 0.5, 0, &out);
    const int64_t after_one = index.bound_tests();
    EXPECT_GT(after_one, 0) << "m=" << m;
    index.QueryWithin(objects[1].region(), 0.5, 1, &out);
    EXPECT_GT(index.bound_tests(), after_one) << "m=" << m;
  }
}

}  // namespace
}  // namespace uclust::clustering
