#include "clustering/foptics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "clustering/pairwise_store.h"
#include "clustering/pruning.h"
#include "clustering/spatial_index.h"
#include "common/math_utils.h"
#include "common/stopwatch.h"
#include "engine/parallel_for.h"
#include "io/sample_file.h"
#include "uncertain/sample_store.h"

namespace uclust::clustering {

namespace {
constexpr double kUndefined = std::numeric_limits<double>::infinity();
}  // namespace

std::vector<int> Foptics::ExtractAtThreshold(
    const std::vector<double>& reachability,
    const std::vector<double>& core_distance,
    const std::vector<std::size_t>& order, double threshold) {
  std::vector<int> labels(order.size(), -1);
  int current = -1;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    const std::size_t i = order[pos];
    if (reachability[i] > threshold) {
      if (core_distance[i] <= threshold) {
        ++current;  // start of a new dense region
        labels[i] = current;
      }  // else noise
    } else if (current >= 0) {
      labels[i] = current;
    }
  }
  return labels;
}

ClusteringResult Foptics::Cluster(const data::UncertainDataset& data, int k,
                                  uint64_t /*seed*/) const {
  const std::size_t n = data.size();
  const engine::Engine& eng = engine();
  ClusteringResult result;
  result.k_requested = k;

  // Offline: sample store (resident or mapped, per the memory budget) + the
  // pairwise fuzzy-distance store (the dense backend builds the classic full
  // table here; budgeted backends recompute rows during the sweeps below).
  common::Stopwatch offline;
  const uncertain::SampleStorePtr samples = io::MakeSampleStoreOrResident(
      data, params_.samples, params_.sample_seed, eng);
  const kernels::PairwiseKernel kernel =
      kernels::PairwiseKernel::SampleED(samples->view());
  PairwiseStore store(eng, kernel);
  store.Warm();
  const double offline_ms = offline.ElapsedMs();

  common::Stopwatch online;
  // Core distances: MinPts-th smallest distance to another object (one
  // parallel row sweep through the store; per-worker scratch for the
  // self-excluding copy).
  std::vector<double> core_dist(n, kUndefined);
  int64_t core_sweep_evals = 0;
  if (store.backend() != PairwiseBackend::kDense && n > 1) {
    // Indexed core distances (recompute backends only — on the dense
    // backend the warmed table serves rows for free). For each object the
    // rank-th smallest box-box MAX squared distance bounds the MinPts-th
    // fuzzy distance from above, so the range query's candidate set
    // provably contains the MinPts nearest objects, and every excluded
    // object's distance is strictly beyond the rank-th (its box separation
    // clears the slacked bound). nth_element over the candidate values
    // therefore yields the bit-identical core distance while evaluating
    // only the candidates instead of all n - 1 columns per row.
    const SpatialIndex index(data.objects());
    const std::size_t rank = std::min<std::size_t>(
        static_cast<std::size_t>(params_.min_pts), n - 1);
    struct SweepCounts {
      int64_t evals = 0;
      int64_t pruned = 0;
    };
    if (rank > 0) {
      const std::vector<SweepCounts> per_block =
          engine::MapBlocks<SweepCounts>(
              eng, n, [&](const engine::BlockedRange& r) {
                SweepCounts c;
                std::vector<std::size_t> cand;
                std::vector<double> vals;
                for (std::size_t i = r.begin; i < r.end; ++i) {
                  const uncertain::Box& region = data.object(i).region();
                  const double u2 =
                      index.KthMaxSquaredDistance(region, rank, i);
                  index.QueryWithin(region, SlackedSquaredThreshold(u2), i,
                                    &cand);
                  vals.clear();
                  vals.reserve(cand.size());
                  for (const std::size_t j : cand) {
                    vals.push_back(kernel.Eval(i, j));
                  }
                  c.evals += static_cast<int64_t>(vals.size());
                  c.pruned += static_cast<int64_t>(n - 1 - vals.size());
                  assert(vals.size() >= rank);
                  std::nth_element(vals.begin(), vals.begin() + (rank - 1),
                                   vals.end());
                  core_dist[i] = vals[rank - 1];
                }
                return c;
              });
      for (const SweepCounts& c : per_block) {
        core_sweep_evals += c.evals;
        result.pairs_pruned_by_index += c.pruned;
      }
    }
    result.index_candidates = core_sweep_evals;
    result.index_bound_tests = index.bound_tests();
  } else {
    engine::PerWorker<std::vector<double>> scratch(eng);
    store.VisitAllRows([&](std::size_t i, std::span<const double> drow) {
      std::vector<double>& row = scratch.local();
      row.clear();
      row.reserve(n > 0 ? n - 1 : 0);
      for (std::size_t j = 0; j < n; ++j) {
        if (j != i) row.push_back(drow[j]);
      }
      const std::size_t rank = std::min<std::size_t>(
          static_cast<std::size_t>(params_.min_pts), row.size());
      if (rank == 0) return;
      std::nth_element(row.begin(), row.begin() + (rank - 1), row.end());
      core_dist[i] = row[rank - 1];
    });
  }

  // OPTICS walk (eps = infinity: one complete ordering).
  std::vector<double> reach(n, kUndefined);
  std::vector<bool> processed(n, false);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<double> walk_row;
  for (std::size_t start = 0; start < n; ++start) {
    if (processed[start]) continue;
    // Expand from `start` by always picking the unprocessed object with the
    // smallest reachability (linear scan over the current row).
    std::size_t current = start;
    for (;;) {
      processed[current] = true;
      order.push_back(current);
      // Relax reachability of all unprocessed objects through `current`.
      // Zero-copy when the row is already materialized (dense table or
      // resident tile); otherwise a single-row fetch, cache untouched —
      // the walk order has no tile locality, so faulting whole tiles
      // would multiply kernel work by tile_rows.
      std::span<const double> drow = store.ResidentRow(current);
      if (drow.empty()) {
        store.GatherRow(current, &walk_row);
        drow = walk_row;
      }
      for (std::size_t j = 0; j < n; ++j) {
        if (processed[j]) continue;
        const double r = std::max(core_dist[current], drow[j]);
        reach[j] = std::min(reach[j], r);
      }
      // Next: smallest reachability among unprocessed.
      std::size_t next = n;
      double best = kUndefined;
      for (std::size_t j = 0; j < n; ++j) {
        if (!processed[j] && reach[j] < best) {
          best = reach[j];
          next = j;
        }
      }
      if (next == n) break;  // all remaining are unreachable: new component
      current = next;
    }
  }

  // Flat extraction: choose the cut whose cluster count is closest to k,
  // preferring (at equal cluster-count gap) the cut leaving less noise.
  // Candidate thresholds are quantiles of the finite reachability and core
  // distances — the values at which the plot's structure changes. Each
  // probe is scored independently (parallel); the winner is selected in
  // probe order, so the cut is independent of the thread count.
  std::vector<double> candidates;
  for (std::size_t i = 0; i < n; ++i) {
    if (core_dist[i] != kUndefined) candidates.push_back(core_dist[i]);
    if (reach[i] != kUndefined) candidates.push_back(reach[i]);
  }
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  const std::size_t probes = std::min<std::size_t>(candidates.size(), 128);
  struct ProbeScore {
    int found = 0;
    int noise = 0;
    double threshold = 0.0;
  };
  std::vector<ProbeScore> scores(probes);
  engine::ParallelForBlocked(
      eng, probes, 8, [&](const engine::BlockedRange& r) {
        for (std::size_t p = r.begin; p < r.end; ++p) {
          const std::size_t idx = p * (candidates.size() - 1) /
                                  std::max<std::size_t>(probes - 1, 1);
          scores[p].threshold = candidates[idx];
          const std::vector<int> labels =
              ExtractAtThreshold(reach, core_dist, order, scores[p].threshold);
          scores[p].found = CountClusters(labels);
          for (int l : labels) scores[p].noise += l < 0 ? 1 : 0;
        }
      });
  std::size_t best_probe = probes;
  int best_gap = std::numeric_limits<int>::max();
  int best_noise = std::numeric_limits<int>::max();
  for (std::size_t p = 0; p < probes; ++p) {
    if (scores[p].found == 0) continue;
    const int gap = std::abs(scores[p].found - k);
    if (gap < best_gap || (gap == best_gap && scores[p].noise < best_noise)) {
      best_gap = gap;
      best_noise = scores[p].noise;
      best_probe = p;
    }
  }
  std::vector<int> best_labels;
  if (best_probe < probes) {
    best_labels = ExtractAtThreshold(reach, core_dist, order,
                                     scores[best_probe].threshold);
  } else {
    best_labels.assign(n, 0);  // degenerate data: one cluster
  }

  // Noise policy: one shared extra cluster.
  int next_cluster = CountClusters(best_labels);
  for (int& l : best_labels) {
    if (l < 0) {
      l = next_cluster;
      ++result.noise_objects;
    }
  }
  result.labels = std::move(best_labels);
  result.clusters_found = CountClusters(result.labels);
  result.iterations = 1;
  result.objective = std::numeric_limits<double>::quiet_NaN();
  result.online_ms = online.ElapsedMs();
  result.offline_ms = offline_ms;
  // The indexed core sweep evaluates the kernel outside the store; its
  // evaluations (sample-integrated, like every SampleED call) fold into the
  // same totals the store-driven sweep would have produced them under.
  result.ed_evaluations += store.ed_evaluations() + core_sweep_evals;
  result.pairwise_backend = PairwiseBackendName(store.backend());
  result.table_bytes_peak = store.table_bytes_peak();
  result.pair_evaluations = store.evaluations() + core_sweep_evals;
  result.tile_warm_hits = store.warm_hits();
  result.tile_warm_misses = store.warm_misses();
  return result;
}

}  // namespace uclust::clustering
