#include "data/dataset.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/rng.h"

namespace uclust::data {

common::Status DeterministicDataset::Validate() const {
  const std::size_t m = dims();
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].size() != m) {
      return common::Status::InvalidArgument(
          name + ": point " + std::to_string(i) + " has " +
          std::to_string(points[i].size()) + " dims, expected " +
          std::to_string(m));
    }
  }
  if (!labels.empty()) {
    if (labels.size() != points.size()) {
      return common::Status::InvalidArgument(name +
                                             ": labels/points size mismatch");
    }
    for (int label : labels) {
      if (label < 0 || label >= num_classes) {
        return common::Status::OutOfRange(name + ": label " +
                                          std::to_string(label) +
                                          " outside [0, num_classes)");
      }
    }
  }
  return common::Status::Ok();
}

std::vector<std::pair<double, double>> DeterministicDataset::DimensionRanges()
    const {
  const std::size_t m = dims();
  std::vector<std::pair<double, double>> ranges(
      m, {std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity()});
  for (const auto& p : points) {
    for (std::size_t j = 0; j < m; ++j) {
      ranges[j].first = std::min(ranges[j].first, p[j]);
      ranges[j].second = std::max(ranges[j].second, p[j]);
    }
  }
  return ranges;
}

void DeterministicDataset::NormalizeToUnitCube() {
  const auto ranges = DimensionRanges();
  for (auto& p : points) {
    for (std::size_t j = 0; j < p.size(); ++j) {
      const double span = ranges[j].second - ranges[j].first;
      p[j] = span > 0.0 ? (p[j] - ranges[j].first) / span : 0.5;
    }
  }
}

DeterministicDataset Subsample(const DeterministicDataset& dataset,
                               std::size_t max_n, uint64_t seed) {
  if (dataset.size() <= max_n) return dataset;
  common::Rng rng(seed);
  auto picks = rng.SampleWithoutReplacement(dataset.size(), max_n);
  std::sort(picks.begin(), picks.end());
  DeterministicDataset out;
  out.name = dataset.name;
  out.num_classes = dataset.num_classes;
  out.points.reserve(max_n);
  for (std::size_t i : picks) {
    out.points.push_back(dataset.points[i]);
    if (!dataset.labels.empty()) out.labels.push_back(dataset.labels[i]);
  }
  return out;
}

UncertainDataset::UncertainDataset(
    std::string name, std::vector<uncertain::UncertainObject> objects,
    std::vector<int> labels, int num_classes)
    : name_(std::move(name)),
      shared_(std::make_shared<Shared>()),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  shared_->n = objects.size();
  shared_->m = objects.empty() ? 0 : objects[0].dims();
  shared_->objects = std::move(objects);
  shared_->objects_ready.store(true, std::memory_order_release);
  assert(labels_.empty() || labels_.size() == shared_->n);
}

UncertainDataset UncertainDataset::Lazy(
    std::string name, uncertain::MomentMatrix moments,
    std::function<std::vector<uncertain::UncertainObject>()> build_objects,
    std::vector<int> labels, int num_classes) {
  UncertainDataset ds(std::move(name), {}, {}, num_classes);
  ds.labels_ = std::move(labels);
  Shared& shared = *ds.shared_;
  shared.n = moments.size();
  shared.m = moments.dims();
  shared.objects_ready.store(false, std::memory_order_release);
  shared.build_objects = std::move(build_objects);
  shared.moments = std::move(moments);
  shared.moments_ready.store(true, std::memory_order_release);
  assert(ds.labels_.empty() || ds.labels_.size() == shared.n);
  return ds;
}

void UncertainDataset::BuildObjects() const {
  Shared& shared = *shared_;
  std::lock_guard<std::mutex> lock(shared.mu);
  if (shared.objects_ready.load(std::memory_order_relaxed)) return;
  shared.objects = shared.build_objects();
  assert(shared.objects.size() == shared.n);
  shared.build_objects = nullptr;  // releases what it held
  shared.objects_ready.store(true, std::memory_order_release);
}

UncertainDataset UncertainDataset::FromDeterministic(
    const DeterministicDataset& d) {
  std::vector<uncertain::UncertainObject> objects;
  objects.reserve(d.size());
  for (const auto& p : d.points) {
    objects.push_back(uncertain::UncertainObject::Deterministic(p));
  }
  return UncertainDataset(d.name, std::move(objects), d.labels,
                          d.num_classes);
}

UncertainDataset UncertainDataset::Subsampled(std::size_t max_n,
                                              uint64_t seed) const {
  if (size() <= max_n) return *this;
  common::Rng rng(seed);
  auto picks = rng.SampleWithoutReplacement(size(), max_n);
  std::sort(picks.begin(), picks.end());
  const std::vector<uncertain::UncertainObject>& all = objects();
  std::vector<uncertain::UncertainObject> objects;
  objects.reserve(max_n);
  std::vector<int> new_labels;
  for (std::size_t i : picks) {
    objects.push_back(all[i]);
    if (!labels_.empty()) new_labels.push_back(labels_[i]);
  }
  return UncertainDataset(name_ + "-sub", std::move(objects),
                          std::move(new_labels), num_classes_);
}

const uncertain::MomentMatrix& UncertainDataset::moments() const {
  Shared& shared = *shared_;
  if (!shared.moments_ready.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(shared.mu);
    if (!shared.moments_ready.load(std::memory_order_relaxed)) {
      // Only an in-memory dataset gets here, so its objects are resident.
      shared.moments = uncertain::MomentMatrix::FromObjects(shared.objects);
      shared.moments_ready.store(true, std::memory_order_release);
    }
  }
  return shared.moments;
}

}  // namespace uclust::data
