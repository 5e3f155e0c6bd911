// Shared fixtures of the sidecar store suites (test_sidecar_store.cc,
// test_moment_store.cc, test_sample_store.cc): irregular test objects, a
// .ubin writer/loader, raw byte access for poisoning files, and bit-exact
// view comparisons.
#ifndef UCLUST_TESTS_SIDECAR_TEST_UTIL_H_
#define UCLUST_TESTS_SIDECAR_TEST_UTIL_H_

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "data/dataset.h"
#include "io/dataset_reader.h"
#include "io/dataset_writer.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/exponential_pdf.h"
#include "uncertain/moments.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/sample_store.h"
#include "uncertain/uniform_pdf.h"

namespace uclust::testing_util {

inline std::string TempPath(const std::string& file) {
  return ::testing::TempDir() + file;
}

/// Name stored in every test .ubin; the first object record starts right
/// after it, at kFirstRecordOffset.
inline constexpr char kDatasetName[] = "sidecar-test-data";
inline constexpr std::size_t kFirstRecordOffset = 64 + sizeof(kDatasetName) - 1;

/// Objects cycling through every serializable pdf family, so sidecars see
/// irregular parameters.
inline std::vector<uncertain::UncertainObject> MakeTestObjects(
    std::size_t n, std::size_t m, uint64_t seed) {
  std::vector<uncertain::UncertainObject> objects;
  common::Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<uncertain::PdfPtr> dims;
    for (std::size_t j = 0; j < m; ++j) {
      const double w = rng.Uniform(-3.0, 3.0);
      const double scale = rng.Uniform(0.05, 0.4);
      switch ((i + j) % 4) {
        case 0:
          dims.push_back(uncertain::UniformPdf::Centered(w, scale));
          break;
        case 1:
          dims.push_back(uncertain::TruncatedNormalPdf::Make(w, scale));
          break;
        case 2:
          dims.push_back(
              uncertain::TruncatedExponentialPdf::Make(w, 1.0 / scale));
          break;
        default:
          dims.push_back(uncertain::DiracPdf::Make(w));
      }
    }
    objects.emplace_back(std::move(dims));
  }
  return objects;
}

/// Writes `objects` as a labeled .ubin at TempPath(file); returns the path.
inline std::string WriteTestFile(
    const std::string& file,
    const std::vector<uncertain::UncertainObject>& objects) {
  const std::string path = TempPath(file);
  io::BinaryDatasetWriter writer;
  EXPECT_TRUE(writer
                  .Open(path, objects[0].dims(), kDatasetName, 3,
                        /*with_labels=*/true)
                  .ok());
  for (std::size_t i = 0; i < objects.size(); ++i) {
    EXPECT_TRUE(writer.Append(objects[i], static_cast<int>(i % 3)).ok());
  }
  EXPECT_TRUE(writer.Finish().ok());
  return path;
}

/// Loads a file-backed dataset (annotated with its source path, which the
/// sample factory's reuse guard keys off).
inline data::UncertainDataset LoadDataset(const std::string& path) {
  auto ds = io::ReadUncertainDataset(path);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return std::move(ds).ValueOrDie();
}

inline std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good());
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path,
                           const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_TRUE(out.good());
}

/// Overwrites `width` bytes at `offset` of the file with the low bytes of
/// `value` (little-endian host).
inline void PatchFile(const std::string& path, std::size_t offset,
                      uint64_t value, std::size_t width = 8) {
  std::vector<char> bytes = ReadFileBytes(path);
  ASSERT_LE(offset + width, bytes.size());
  std::memcpy(bytes.data() + offset, &value, width);
  WriteFileBytes(path, bytes);
}

/// Bit-exact element-wise comparison of two moment views.
inline void ExpectMomentsBitIdentical(const uncertain::MomentView& a,
                                      const uncertain::MomentView& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.dims(), b.dims());
  const std::size_t bytes = a.dims() * sizeof(double);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(a.mean(i).data(), b.mean(i).data(), bytes))
        << "mean row " << i;
    ASSERT_EQ(0, std::memcmp(a.second_moment(i).data(),
                             b.second_moment(i).data(), bytes))
        << "mu2 row " << i;
    ASSERT_EQ(0, std::memcmp(a.variance(i).data(), b.variance(i).data(),
                             bytes))
        << "var row " << i;
    ASSERT_EQ(a.total_variance(i), b.total_variance(i)) << "total var " << i;
  }
}

/// Bit-exact element-wise comparison of two sample views.
inline void ExpectSamplesBitIdentical(const uncertain::SampleView& a,
                                      const uncertain::SampleView& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.samples_per_object(), b.samples_per_object());
  ASSERT_EQ(a.dims(), b.dims());
  const std::size_t row =
      static_cast<std::size_t>(a.samples_per_object()) * a.dims();
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(0, std::memcmp(a.ObjectSamples(i).data(),
                             b.ObjectSamples(i).data(), row * sizeof(double)))
        << "object row " << i;
  }
}

}  // namespace uclust::testing_util

#endif  // UCLUST_TESTS_SIDECAR_TEST_UTIL_H_
