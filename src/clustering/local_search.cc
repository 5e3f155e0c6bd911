#include "clustering/local_search.h"

#include <cassert>
#include <cmath>

#include "clustering/init.h"
#include "clustering/simd/simd.h"
#include "engine/parallel_for.h"

namespace uclust::clustering {

LocalSearchOutcome RunLocalSearch(const uncertain::MomentView& moments,
                                  int k, const LocalSearchParams& params,
                                  common::Rng* rng,
                                  const engine::Engine& eng) {
  std::vector<int> initial =
      params.init == InitStrategy::kPlusPlus
          ? PartitionFromSeeds(moments, PlusPlusObjects(moments, k, rng))
          : RandomPartition(moments.size(), k, rng);
  return RunLocalSearchFrom(moments, k, params, std::move(initial), eng);
}

LocalSearchOutcome RunLocalSearchFrom(const uncertain::MomentView& moments,
                                      int k, const LocalSearchParams& params,
                                      std::vector<int> initial_labels,
                                      const engine::Engine& eng) {
  const std::size_t n = moments.size();
  assert(k >= 1 && n >= static_cast<std::size_t>(k));
  assert(initial_labels.size() == n);

  LocalSearchOutcome out;
  out.labels = std::move(initial_labels);

  // Line 3 of Algorithm 1: per-cluster aggregates and cached objectives.
  std::vector<ClusterMoments> stats(k, ClusterMoments(moments.dims()));
  for (std::size_t i = 0; i < n; ++i) {
    assert(out.labels[i] >= 0 && out.labels[i] < k);
    stats[out.labels[i]].Add(moments, i);
  }
  std::vector<double> obj(k);
  double total = 0.0;
  for (int c = 0; c < k; ++c) {
    obj[c] = Objective(params.objective, stats[c]);
    total += obj[c];
  }

  // Lines 4-16: relocation passes, restructured for parallel gain
  // evaluation. Phase 1 proposes every object's best move against the
  // aggregates frozen at pass start (embarrassingly parallel, O(n k m));
  // phase 2 applies proposals serially in object index order, revalidating
  // each move with the Corollary 1 closed forms on the live aggregates so
  // the objective stays monotone. At a fixed point no move is applied,
  // hence the aggregates never drifted during the pass and the proposals
  // prove one-move optimality — the same termination guarantee as the
  // sequential Algorithm 1 (Proposition 4).
  //
  // Phase 1 evaluates each candidate move through the affine deltas of
  // cluster_stats.h: per pass, every cluster's mean of means (stored
  // center-major for the SIMD center sweep) and add/remove coefficients;
  // per object, one squared distance to each center and a few
  // multiply-adds per cluster, no divisions.
  const std::size_t m = moments.dims();
  const std::size_t kk = static_cast<std::size_t>(k);
  std::vector<double> centers_cm(m * kk);
  std::vector<DeltaCoefficients> add_coef(kk), remove_coef(kk);
  std::vector<int> proposal(n);
  for (out.passes = 0; out.passes < params.max_passes; ++out.passes) {
    const double tolerance =
        params.min_relative_gain * (1.0 + std::fabs(total));
    for (std::size_t c = 0; c < kk; ++c) {
      const std::size_t size = stats[c].size();
      const double s = static_cast<double>(size);
      for (std::size_t j = 0; j < m; ++j) {
        centers_cm[j * kk + c] = size == 0 ? 0.0 : stats[c].sum_mu()[j] / s;
      }
      add_coef[c] = AddDeltaCoefficients(params.objective, stats[c]);
      remove_coef[c] = RemoveDeltaCoefficients(params.objective, stats[c]);
    }

    engine::ParallelFor(eng, n, [&](const engine::BlockedRange& r) {
      std::vector<double> d2(kk);
      for (std::size_t i = r.begin; i < r.end; ++i) {
        const int source = out.labels[i];
        proposal[i] = source;
        if (stats[source].size() <= 1) continue;  // never empty a cluster
        simd::CenterSqDistances(moments.mean(i).data(), centers_cm.data(), k,
                                m, d2.data());
        const double v = moments.total_variance(i);
        const DeltaCoefficients& rm = remove_coef[source];
        const double remove_delta = rm.a * d2[source] + rm.b * v + rm.g;
        // Line 8: best target by total-objective change.
        int best = source;
        double best_delta = -tolerance;
        for (int c = 0; c < k; ++c) {
          if (c == source) continue;
          const DeltaCoefficients& ad = add_coef[c];
          const double delta = remove_delta + (ad.a * d2[c] + ad.b * v + ad.g);
          if (delta < best_delta) {
            best_delta = delta;
            best = c;
          }
        }
        proposal[i] = best;
      }
    });

    bool moved = false;
    for (std::size_t i = 0; i < n; ++i) {
      const int best = proposal[i];
      const int source = out.labels[i];
      if (best == source) continue;
      if (stats[source].size() <= 1) continue;
      const double source_after =
          ObjectiveAfterRemove(params.objective, stats[source], moments, i);
      const double target_after =
          ObjectiveAfterAdd(params.objective, stats[best], moments, i);
      const double delta =
          (source_after + target_after) - (obj[source] + obj[best]);
      if (delta >= -tolerance) continue;
      // Lines 10-13: apply the move and refresh the affected aggregates.
      stats[source].Remove(moments, i);
      stats[best].Add(moments, i);
      out.labels[i] = best;
      obj[source] = Objective(params.objective, stats[source]);
      obj[best] = Objective(params.objective, stats[best]);
      total += delta;
      ++out.moves;
      moved = true;
    }
    if (!moved) break;
  }

  // Recompute the total exactly to shed accumulated floating-point drift.
  total = 0.0;
  for (int c = 0; c < k; ++c) total += Objective(params.objective, stats[c]);
  out.objective = total;
  return out;
}

}  // namespace uclust::clustering
