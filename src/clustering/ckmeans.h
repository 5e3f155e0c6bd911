// CK-means: the O(nk)-per-iteration fast path of the UK-means family.
//
// Two stacked optimizations over the direct UK-means sweeps (ukmeans.h),
// both exact under the library determinism contract — labels, objective,
// and iteration count are bit-identical to the direct path at any engine
// thread count:
//
//   1. Moment reduction (Lee, Kao & Cheng, ICDM-W 2007). König-Huygens
//      splits the expected distance as ED(o, c) = sigma^2(o) +
//      ||mu(o) - c||^2 (Eq. 8), so the Lloyd loop only ever touches each
//      object's expected centroid mu(o) and the additive constant
//      sigma^2(o). CkmeansReduce copies exactly those two columns out of a
//      MomentView in one sequential pass — Resident or Mapped backend alike
//      — and the loop then runs on a flat resident block of (m+1)/(3m+1)
//      of the full moment bytes, with zero chunk faults per sweep.
//
//   2. Hamerly/Elkan bound pruning. A per-object Euclidean upper bound to
//      the assigned center and a lower bound to the second-closest center
//      are maintained from per-center drift norms after every update; an
//      Elkan-style half-min-separation test rides along. Objects whose
//      bounds prove the assignment unchanged skip the whole k-center scan,
//      making late iterations O(n) instead of O(nk) distance evaluations.
//      Bounds are kept floating-point-safe by a relative slack (upper
//      bounds inflated, lower bounds deflated at every maintenance step),
//      so a pruning decision is always conservative and the surviving
//      full scans reproduce the direct path's tie-breaking exactly.
//
// The file-backed driver ClusterFile adds a third form: mini-batch epoch
// streaming, which re-streams a .ubin dataset once per iteration through
// io::MomentBatchStream and keeps only O(n) labels/bounds plus one batch
// of moments resident. Per-cluster sums are accumulated through a carry
// accumulator aligned to the engine's block grid, so the floating-point
// result matches kernels::SumMeansByLabel for ANY mini-batch size.
//
// Accounting contract: center_distance_evals counts the object-to-center
// ||mu(o) - c||^2 evaluations of the assignment sweeps and bounds_skipped
// the (object, center) slots the bounds proved unnecessary; the pair always
// satisfies evals + skipped == sweeps * n * k, where sweeps is the number
// of assignment sweeps actually run — iterations + 1 on a converged run
// (the final sweep changes nothing but still executes, exactly as on the
// direct path) and iterations when the cap stops the loop. Center-to-center
// work (drift norms, half separations — O(k^2) per iteration) is not
// counted.
#ifndef UCLUST_CLUSTERING_CKMEANS_H_
#define UCLUST_CLUSTERING_CKMEANS_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "clustering/clusterer.h"
#include "clustering/init.h"
#include "common/status.h"
#include "uncertain/moments.h"

namespace uclust::clustering {

/// The reduced (König-Huygens) representation of an uncertain dataset: the
/// flat expected-centroid block the Lloyd loop runs on, plus the additive
/// per-object ED^ constants. ~(m+1) doubles per object.
struct ReducedMoments {
  std::size_t n = 0;
  std::size_t m = 0;
  /// Row-major n x m expected centroids mu(o_i).
  std::vector<double> means;
  /// Per-object additive constant sigma^2(o_i) (the total variance).
  std::vector<double> constants;

  /// Flat MomentView over the reduction. Only mean() and total_variance()
  /// are backed — the reduction exists precisely because the Lloyd loop
  /// reads nothing else; second_moment()/variance() would dereference null.
  uncertain::MomentView view() const {
    return uncertain::MomentView(n, m, means.data(), /*mu2=*/nullptr,
                                 /*var=*/nullptr, constants.data());
  }
};

/// Copies the expected centroids and ED^ constants out of `mm` in one
/// blocked pass. Works against flat and chunked (mapped) views alike; the
/// copied values are bit-identical to what the view serves.
ReducedMoments CkmeansReduce(const engine::Engine& eng,
                             const uncertain::MomentView& mm);

/// The CK-means fast path as a standalone registry algorithm. Ukmeans::Cluster
/// runs this same path.
class CkMeans final : public Clusterer {
 public:
  /// Audit observer for the bound-invariant tests: fired after every drift
  /// maintenance step with the new centroids and the loosened bounds, so a
  /// test can verify upper >= d(o, assigned) and lower <= min distance to
  /// the other centers.
  using BoundAudit = std::function<void(
      int iteration, std::span<const double> centroids,
      std::span<const int> labels, std::span<const double> upper,
      std::span<const double> lower)>;

  /// Tuning knobs.
  struct Params {
    int max_iters = 100;  ///< Cap on Lloyd iterations.
    /// Seeding: Forgy (the paper's choice) or D^2-weighted. The epoch-
    /// streaming driver of ClusterFile supports kRandom only.
    InitStrategy init = InitStrategy::kRandom;
    /// Test-only bound observer (see BoundAudit); empty in production.
    BoundAudit bound_audit;
  };

  /// Outcome of the kernel (mirrors Ukmeans::Outcome plus the counters).
  struct Outcome {
    std::vector<int> labels;
    double objective = 0.0;  ///< sum_o [ sigma^2(o) + ||mu(o) - c_l(o)||^2 ].
    int iterations = 0;
    int64_t center_distance_evals = 0;
    int64_t bounds_skipped = 0;
  };

  CkMeans() = default;
  explicit CkMeans(const Params& params) : params_(params) {}

  std::string name() const override { return "CK-means"; }
  ClusteringResult Cluster(const data::UncertainDataset& data, int k,
                           uint64_t seed) const override;

  /// Kernel entry point for pre-packed moment statistics: reduces `mm`
  /// (CkmeansReduce), then runs the bound-pruned Lloyd loop. Bit-identical
  /// to Ukmeans::RunOnMoments (same seeding, tie-breaking, update, and
  /// empty-cluster reseed order) at any engine thread count.
  static Outcome RunOnMoments(const uncertain::MomentView& mm, int k,
                              uint64_t seed, const Params& params,
                              const engine::Engine& eng =
                                  engine::Engine::Serial());

  /// File-backed driver: clusters a binary .ubin dataset in bounded memory.
  /// When the engine budget is 0 or (m+1)*n doubles fit it, one streaming
  /// pass builds the reduction and the resident loop runs; otherwise the
  /// file is re-streamed once per iteration (plus one seeding and one
  /// objective pass) holding only O(n) labels/bounds and one batch of
  /// EpochBatchRows(m, budget) moment rows. Labels, objective, iteration
  /// count and both counters are bit-identical to RunOnMoments over the
  /// fully ingested file, for every budget and thread count.
  static common::Result<ClusteringResult> ClusterFile(
      const std::string& path, int k, uint64_t seed, const Params& params,
      const engine::Engine& eng = engine::Engine::Serial());

  /// Rows per epoch-streaming batch under `budget_bytes`: as many
  /// (3m+1)-double moment rows as fit the budget, at least 1 and at most
  /// io::kDefaultBatchSize (also the value for an unlimited budget, 0).
  static std::size_t EpochBatchRows(std::size_t m, std::size_t budget_bytes);

 private:
  Params params_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_CKMEANS_H_
