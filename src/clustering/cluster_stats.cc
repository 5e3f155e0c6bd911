#include "clustering/cluster_stats.h"

#include <cassert>

namespace uclust::clustering {

void ClusterMoments::Add(const uncertain::MomentView& moments,
                         std::size_t i) {
  assert(moments.dims() == dims());
  const auto var = moments.variance(i);
  const auto mu2 = moments.second_moment(i);
  const auto mu = moments.mean(i);
  for (std::size_t j = 0; j < dims(); ++j) {
    sum_var_[j] += var[j];
    sum_mu2_[j] += mu2[j];
    sum_mu_[j] += mu[j];
  }
  ++size_;
}

void ClusterMoments::Remove(const uncertain::MomentView& moments,
                            std::size_t i) {
  assert(size_ > 0);
  assert(moments.dims() == dims());
  const auto var = moments.variance(i);
  const auto mu2 = moments.second_moment(i);
  const auto mu = moments.mean(i);
  for (std::size_t j = 0; j < dims(); ++j) {
    sum_var_[j] -= var[j];
    sum_mu2_[j] -= mu2[j];
    sum_mu_[j] -= mu[j];
  }
  --size_;
}

const char* ObjectiveKindName(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::kUcpc:
      return "UCPC";
    case ObjectiveKind::kMmvar:
      return "MMVar";
    case ObjectiveKind::kUkmeans:
      return "UK-means";
  }
  return "unknown";
}

double UcpcObjective(const ClusterMoments& c) {
  if (c.size() == 0) return 0.0;
  const double s = static_cast<double>(c.size());
  double acc = 0.0;
  for (std::size_t j = 0; j < c.dims(); ++j) {
    const double t = c.sum_mu()[j];
    acc += c.sum_var()[j] / s + c.sum_mu2()[j] - t * t / s;
  }
  return acc;
}

double UkmeansObjective(const ClusterMoments& c) {
  if (c.size() == 0) return 0.0;
  const double s = static_cast<double>(c.size());
  double acc = 0.0;
  for (std::size_t j = 0; j < c.dims(); ++j) {
    const double t = c.sum_mu()[j];
    acc += c.sum_mu2()[j] - t * t / s;
  }
  return acc;
}

double MmvarObjective(const ClusterMoments& c) {
  if (c.size() == 0) return 0.0;
  const double s = static_cast<double>(c.size());
  double acc = 0.0;
  for (std::size_t j = 0; j < c.dims(); ++j) {
    const double mean_j = c.sum_mu()[j] / s;
    acc += c.sum_mu2()[j] / s - mean_j * mean_j;
  }
  return acc;
}

double Objective(ObjectiveKind kind, const ClusterMoments& c) {
  switch (kind) {
    case ObjectiveKind::kUcpc:
      return UcpcObjective(c);
    case ObjectiveKind::kMmvar:
      return MmvarObjective(c);
    case ObjectiveKind::kUkmeans:
      return UkmeansObjective(c);
  }
  return 0.0;
}

namespace {

// Shared kernel: evaluates `kind` on (Psi_j + dv, Phi_j + d2, T_j + dm) with
// cluster size `s`, where the deltas come from one object row scaled by
// `sign` (+1 add, -1 remove). O(m), allocation-free.
double ObjectiveWithDelta(ObjectiveKind kind, const ClusterMoments& c,
                          const uncertain::MomentView& moments,
                          std::size_t i, double sign, std::size_t new_size) {
  if (new_size == 0) return 0.0;
  const double s = static_cast<double>(new_size);
  const auto var = moments.variance(i);
  const auto mu2 = moments.second_moment(i);
  const auto mu = moments.mean(i);
  double acc = 0.0;
  switch (kind) {
    case ObjectiveKind::kUcpc:
      for (std::size_t j = 0; j < c.dims(); ++j) {
        const double psi = c.sum_var()[j] + sign * var[j];
        const double phi = c.sum_mu2()[j] + sign * mu2[j];
        const double t = c.sum_mu()[j] + sign * mu[j];
        acc += psi / s + phi - t * t / s;
      }
      return acc;
    case ObjectiveKind::kMmvar:
      for (std::size_t j = 0; j < c.dims(); ++j) {
        const double phi = c.sum_mu2()[j] + sign * mu2[j];
        const double t = c.sum_mu()[j] + sign * mu[j];
        const double mean_j = t / s;
        acc += phi / s - mean_j * mean_j;
      }
      return acc;
    case ObjectiveKind::kUkmeans:
      for (std::size_t j = 0; j < c.dims(); ++j) {
        const double phi = c.sum_mu2()[j] + sign * mu2[j];
        const double t = c.sum_mu()[j] + sign * mu[j];
        acc += phi - t * t / s;
      }
      return acc;
  }
  return acc;
}

}  // namespace

double ObjectiveAfterAdd(ObjectiveKind kind, const ClusterMoments& c,
                         const uncertain::MomentView& moments,
                         std::size_t i) {
  return ObjectiveWithDelta(kind, c, moments, i, +1.0, c.size() + 1);
}

double ObjectiveAfterRemove(ObjectiveKind kind, const ClusterMoments& c,
                            const uncertain::MomentView& moments,
                            std::size_t i) {
  assert(c.size() >= 1);
  return ObjectiveWithDelta(kind, c, moments, i, -1.0, c.size() - 1);
}

namespace {

// P = sum_j Psi_j.
double SumVariance(const ClusterMoments& c) {
  double p = 0.0;
  for (const double psi : c.sum_var()) p += psi;
  return p;
}

}  // namespace

// With J_UCPC = P (1 + 1/s) + E, J_MM = (P + E) / s and J_UK = P + E, the
// deltas follow by substituting (s +- 1, P +- V, E +- s/(s +- 1) d2). The
// constant terms are written through J itself where possible, so they carry
// no cancellation of their own.
DeltaCoefficients AddDeltaCoefficients(ObjectiveKind kind,
                                       const ClusterMoments& c) {
  const double s = static_cast<double>(c.size());
  const double s1 = s + 1.0;
  DeltaCoefficients d;
  switch (kind) {
    case ObjectiveKind::kUcpc:
      d.a = s / s1;
      d.b = (s + 2.0) / s1;
      d.g = c.size() == 0 ? 0.0 : -SumVariance(c) / (s * s1);
      break;
    case ObjectiveKind::kMmvar:
      d.a = s / (s1 * s1);
      d.b = 1.0 / s1;
      d.g = -MmvarObjective(c) / s1;
      break;
    case ObjectiveKind::kUkmeans:
      d.a = s / s1;
      d.b = 1.0;
      break;
  }
  return d;
}

DeltaCoefficients RemoveDeltaCoefficients(ObjectiveKind kind,
                                          const ClusterMoments& c) {
  DeltaCoefficients d;
  if (c.size() <= 1) {
    d.g = -Objective(kind, c);
    return d;
  }
  const double s = static_cast<double>(c.size());
  const double s1 = s - 1.0;
  switch (kind) {
    case ObjectiveKind::kUcpc:
      d.a = -s / s1;
      d.b = -s / s1;
      d.g = SumVariance(c) / (s * s1);
      break;
    case ObjectiveKind::kMmvar:
      d.a = -s / (s1 * s1);
      d.b = -1.0 / s1;
      d.g = MmvarObjective(c) / s1;
      break;
    case ObjectiveKind::kUkmeans:
      d.a = -s / s1;
      d.b = -1.0;
      break;
  }
  return d;
}

double TotalObjective(ObjectiveKind kind,
                      const uncertain::MomentView& moments,
                      const std::vector<int>& labels, int k) {
  assert(labels.size() == moments.size());
  std::vector<ClusterMoments> stats(k, ClusterMoments(moments.dims()));
  for (std::size_t i = 0; i < labels.size(); ++i) {
    assert(labels[i] >= 0 && labels[i] < k);
    stats[labels[i]].Add(moments, i);
  }
  double total = 0.0;
  for (const ClusterMoments& c : stats) total += Objective(kind, c);
  return total;
}

double ExpectedDistanceToUCentroid(const ClusterMoments& c,
                                   const uncertain::MomentView& moments,
                                   std::size_t i) {
  assert(c.size() >= 1);
  const double s = static_cast<double>(c.size());
  const auto mu2 = moments.second_moment(i);
  const auto mu = moments.mean(i);
  double acc = 0.0;
  for (std::size_t j = 0; j < c.dims(); ++j) {
    // Lemma 5: mu_j(U) = T_j / s and
    // mu2_j(U) = (Phi_j + T_j^2 - Q_j) / s^2 with Q_j = Phi_j - Psi_j the
    // sum of squared member means. Then Lemma 3 gives the expected distance.
    const double t = c.sum_mu()[j];
    const double q = c.sum_mu2()[j] - c.sum_var()[j];
    const double mu2_centroid = (c.sum_mu2()[j] + t * t - q) / (s * s);
    const double mu_centroid = t / s;
    acc += mu2[j] - 2.0 * mu[j] * mu_centroid + mu2_centroid;
  }
  return acc;
}

}  // namespace uclust::clustering
