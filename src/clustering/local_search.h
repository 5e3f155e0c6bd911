// The relocation local search of Algorithm 1, shared by UCPC and MMVar (and
// usable with the UK-means objective for ablations): repeatedly move each
// object to the cluster yielding the largest decrease of the global
// objective, exploiting the O(m) add/remove evaluations of Corollary 1.
#ifndef UCLUST_CLUSTERING_LOCAL_SEARCH_H_
#define UCLUST_CLUSTERING_LOCAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "clustering/cluster_stats.h"
#include "clustering/init.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "uncertain/moments.h"

namespace uclust::clustering {

/// Tuning knobs of the relocation local search.
struct LocalSearchParams {
  ObjectiveKind objective = ObjectiveKind::kUcpc;
  /// Upper bound on full passes over the data (convergence usually takes
  /// far fewer; Proposition 4 guarantees termination).
  int max_passes = 100;
  /// Relative improvement below which a move is considered numerical noise.
  double min_relative_gain = 1e-12;
  /// Starting partition: random (the paper's Algorithm 1) or induced by
  /// D^2-weighted seeds (library extension; see init.h).
  InitStrategy init = InitStrategy::kRandom;
};

/// Result of a local-search run.
struct LocalSearchOutcome {
  std::vector<int> labels;  ///< Cluster per object, in [0, k).
  double objective = 0.0;   ///< Final total objective sum_C J(C).
  int passes = 0;           ///< Passes executed (the paper's iterations I).
  int64_t moves = 0;        ///< Total object relocations performed.
};

/// Runs Algorithm 1 from a random initial partition. Requires n >= k >= 1.
/// Clusters never become empty (a relocation that would empty its source
/// cluster is skipped), so exactly k clusters are returned.
///
/// Each pass proposes the best move of every object in parallel against the
/// pass-start aggregates, then applies the proposals serially in object
/// order, revalidating each against the current aggregates with the
/// Corollary 1 closed forms (first-improving-move tie-breaking). Proposals
/// come from a center-major distance sweep: one simd::CenterSqDistances
/// call per object gives its squared distance to every cluster's mean of
/// means, and each candidate move is priced as a * d2 + b * V + g with
/// per-pass cluster coefficients (cluster_stats.h, DeltaCoefficients).
/// Proposals depend only on the pass-start state and the application order
/// is fixed, so labels, objective, and pass counts are bit-identical for
/// any engine thread count and any SIMD dispatch path.
LocalSearchOutcome RunLocalSearch(const uncertain::MomentView& moments,
                                  int k, const LocalSearchParams& params,
                                  common::Rng* rng,
                                  const engine::Engine& eng =
                                      engine::Engine::Serial());

/// Same as RunLocalSearch but starting from a caller-provided partition
/// (labels in [0, k)). A cluster may start empty: moves into it are priced
/// at the exact singleton objective, and no move ever empties a cluster.
LocalSearchOutcome RunLocalSearchFrom(const uncertain::MomentView& moments,
                                      int k, const LocalSearchParams& params,
                                      std::vector<int> initial_labels,
                                      const engine::Engine& eng =
                                          engine::Engine::Serial());

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_LOCAL_SEARCH_H_
