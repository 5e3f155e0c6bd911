// Memory-budgeted, workload-aware access to symmetric pairwise tables
// (ED^, fuzzy distance, distance probability) behind one interface.
//
// The paper's O(n^2)-class baselines (UK-medoids, UAHC, FOPTICS, FDBSCAN)
// precompute a dense n x n pairwise table, which caps every such workload at
// whatever n^2 doubles fit in RAM. PairwiseStore decouples the access
// pattern from the storage policy with three interchangeable backends:
//
//   kDense    — the classic full table, built once by the triangular kernel
//               (bit-identical values, parallel schedule, and evaluation
//               count of the original offline phase);
//   kTiled    — row-block tiles computed on demand through the engine's
//               blocked kernels and held in a capacity-bounded LRU cache,
//               plus (policy-gated) a warm-row cache for gathered rows;
//   kOnTheFly — a single-row cache: every query recomputes its row, no
//               table is retained.
//
// On top of the backends sit three workload-aware tile policies. They have
// no off switch; tests check them against the dense table and against
// VisitUpperTriangle without a skip predicate:
//
//   gather tiles  — GatherRows/VisitSymmetricBlock compute asymmetric
//                   candidate x n (or candidate x candidate) slabs: exactly
//                   the entries a medoid gather or swap sweep reads, in one
//                   parallel kernel pass, instead of faulting full square
//                   row tiles;
//   warm rows     — gathered rows are retained across consumer iterations
//                   (PAM rounds, Lance-Williams merges) in a budget-bounded
//                   warm cache with an explicit generation/invalidation
//                   protocol (BeginGeneration/InvalidateWarmRows) and
//                   hit/miss counters;
//   pruned sweeps — VisitUpperTriangle accepts a cheap pair predicate that
//                   skips pairs whose exact value is provably 0 (e.g. the
//                   FDBSCAN distance probability of two objects whose
//                   regions are farther apart than eps) before any kernel
//                   evaluation.
//
// The backend is normally selected from EngineConfig::memory_budget_bytes
// (0 = unlimited = dense); tests and benches can force one explicitly.
// Invariant: because every producer evaluates a pair as (min(i, j),
// max(i, j)), each entry is a pure function of that pair, and a pruned pair
// is skipped only when its exact value is proven, all backends serve
// bit-identical values to the unpruned sweeps — so every clustering built
// on the store is identical across backends and thread counts; only memory
// and recompute cost change.
//
// Thread-safety: the random-access API (Value/Row/GatherRows) is for the
// algorithm's serial control thread; the Visit* sweeps parallelize
// internally and invoke the visitor concurrently (one call per row — the
// visitor owns row-indexed output slots).
#ifndef UCLUST_CLUSTERING_PAIRWISE_STORE_H_
#define UCLUST_CLUSTERING_PAIRWISE_STORE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "clustering/kernels.h"
#include "engine/engine.h"

namespace uclust::clustering {

/// Storage policy of a PairwiseStore.
enum class PairwiseBackend { kDense, kTiled, kOnTheFly };

/// Lower-case display name ("dense", "tiled", "onthefly").
std::string PairwiseBackendName(PairwiseBackend backend);

/// Warm rows last touched more than this many generations ago are
/// invalidated at the next PairwiseStore::BeginGeneration().
inline constexpr std::size_t kWarmRetainGenerations = 2;

/// Tuning of a PairwiseStore instance.
struct PairwiseStoreOptions {
  PairwiseBackend backend = PairwiseBackend::kDense;
  /// The budget the backend was derived from (informational; 0 = unlimited).
  std::size_t memory_budget_bytes = 0;
  /// Rows per tile (kTiled; kOnTheFly pins this to 1). 0 = derive.
  std::size_t tile_rows = 0;
  /// LRU capacity in tiles (kTiled; kOnTheFly pins this to 1). 0 = derive.
  std::size_t max_cached_tiles = 0;
  /// Retain gathered rows across iterations in the warm cache (kTiled only;
  /// kDense reads are already free and kOnTheFly retains nothing).
  bool warm_rows = true;
  /// Warm-cache capacity in bytes, carved out of memory_budget_bytes so the
  /// tile LRU plus the warm cache never exceed the budget. 0 = derive
  /// (a quarter of the budget, at least one row or the policy is disabled).
  std::size_t warm_capacity_bytes = 0;

  /// Backend selection rule for an n-object table under `budget_bytes`:
  /// unlimited or a budget the dense table fits in -> kDense; room for at
  /// least two rows -> kTiled sized so the tile LRU plus the warm-row cache
  /// fit the budget (cache bytes never exceed it); anything smaller ->
  /// kOnTheFly.
  static PairwiseStoreOptions FromBudget(std::size_t budget_bytes,
                                         std::size_t n);
};

/// One symmetric pairwise table served through a storage backend.
class PairwiseStore {
 public:
  /// Store over `kernel` with explicit options. The kernel's referenced
  /// objects / sample cache must outlive the store.
  PairwiseStore(const engine::Engine& eng, const kernels::PairwiseKernel& kernel,
                const PairwiseStoreOptions& options);
  /// Store with options derived from eng.memory_budget_bytes().
  PairwiseStore(const engine::Engine& eng,
                const kernels::PairwiseKernel& kernel);

  /// Number of objects n (the table is n x n).
  std::size_t size() const { return n_; }
  /// The storage policy in effect.
  PairwiseBackend backend() const { return options_.backend; }
  /// The options in effect (after derivation).
  const PairwiseStoreOptions& options() const { return options_; }
  /// Kernel evaluations performed so far (tile recomputation included).
  int64_t evaluations() const { return evaluations_; }
  /// Same, but 0 when the kernel is closed-form — the exact quantity
  /// ClusteringResult::ed_evaluations accounts for.
  int64_t ed_evaluations() const {
    return kernel_.counts_ed_evaluations() ? evaluations_ : 0;
  }
  /// Peak bytes of materialized table storage (dense table, cached tiles,
  /// warm rows, and streaming scratch) held at any one time.
  std::size_t table_bytes_peak() const { return table_bytes_peak_; }

  /// Builds whatever the backend precomputes (kDense: the full table;
  /// kTiled/kOnTheFly: nothing). Call inside the offline timing phase to
  /// keep the paper's offline/online accounting for the dense path.
  void Warm();

  /// Entry (i, j). Serial API; may fault in a tile.
  double Value(std::size_t i, std::size_t j);
  /// Row i as a length-n span. Serial API; the span is invalidated by the
  /// next non-const call on the store.
  std::span<const double> Row(std::size_t i);
  /// Row i as a zero-copy span when it is already materialized (dense table
  /// or resident tile); an empty span otherwise. Never computes, never
  /// touches the LRU order; the span is invalidated by the next tile fault
  /// or eviction.
  std::span<const double> ResidentRow(std::size_t i) const;
  /// Copies row i into `out` (resized to n) WITHOUT faulting a tile:
  /// a dense table, resident tile, or warm row is read back; anything else
  /// computes only row i (and retains it in the warm cache under the warm
  /// policy). The right primitive for random-access row walks (the OPTICS
  /// ordering, NN-chain tips, medoid gathers) whose locality would
  /// otherwise multiply kernel work by tile_rows on the tiled backend.
  void GatherRow(std::size_t i, std::vector<double>* out);
  /// Materializes the given rows into `out`, row-major rows.size() x n,
  /// without tile faults: rows already materialized (dense / resident tile /
  /// warm) are copied, the rest are computed as one asymmetric gather tile
  /// in a single parallel kernel pass (and retained under the warm policy).
  void GatherRows(std::span<const std::size_t> rows, std::vector<double>* out);
  /// Visits each row of the symmetric |ids| x |ids| sub-block (diagonal 0)
  /// — the candidate x member slab of the UK-medoids swap sweep. The
  /// visitor receives (slot a, length-|ids| span) with span[b] =
  /// value(ids[a], ids[b]), invoked concurrently for different rows. The
  /// block is never materialized whole beyond the streaming scratch bound:
  /// when it fits, rows already materialized (dense / resident tile / warm)
  /// are read back and mirrored into missing rows' columns and the rest is
  /// computed pairwise-symmetrically (|missing| * (|missing| - 1) / 2
  /// evaluations); larger blocks stream budget-bounded row stripes
  /// (|ids| - 1 evaluations per non-served row). `ids` must be distinct.
  void VisitSymmetricBlock(std::span<const std::size_t> ids,
                           const std::function<void(
                               std::size_t, std::span<const double>)>& fn);

  /// Iteration-scoped warm-row protocol: marks the start of a new consumer
  /// iteration (a PAM round, a Lance-Williams merge round). Warm rows stay
  /// servable across generations; rows last touched more than
  /// kWarmRetainGenerations generations ago are invalidated
  /// here, bounding staleness without a full flush.
  void BeginGeneration();
  /// Drops every warm row immediately (explicit invalidation).
  void InvalidateWarmRows();
  /// Generation counter (starts at 0, incremented by BeginGeneration).
  uint64_t generation() const { return generation_; }
  /// Gathered rows served without kernel work (warm cache, dense table, or
  /// resident tile).
  int64_t warm_hits() const { return warm_hits_; }
  /// Gathered rows that required kernel computation.
  int64_t warm_misses() const { return warm_misses_; }
  /// Bytes currently held by the warm-row cache.
  std::size_t warm_bytes() const { return warm_bytes_; }
  /// Pairs skipped by the sweep predicate instead of evaluated.
  int64_t pruned_pairs() const { return pruned_pairs_; }

  /// Visitor for one full row: (row index, length-n span).
  using RowVisitor = std::function<void(std::size_t, std::span<const double>)>;
  /// Visits every row 0..n-1 exactly once. Parallel: the visitor is invoked
  /// concurrently for different rows. kDense reads the table; kTiled streams
  /// through the LRU cache (reusing resident tiles); kOnTheFly streams
  /// bounded scratch blocks.
  void VisitAllRows(const RowVisitor& fn);

  /// Visitor for the strict upper-triangle tail of row i: the span covers
  /// entries (i, i+1..n-1), i.e. tail[t] = value(i, i + 1 + t).
  using UpperVisitor = RowVisitor;
  /// Visits every upper-triangle row exactly once. Without `skip`, each pair
  /// is evaluated once (n*(n-1)/2 evaluations on a cold store). With `skip`,
  /// pairs for which the predicate returns true are served as exactly 0.0
  /// with no kernel evaluation — the caller asserts that 0 is the pair's
  /// exact value (see kernels::PairSkipTest) — and counted in
  /// pruned_pairs(). Streams bounded scratch blocks on every backend —
  /// nothing is retained — unless a dense table is already materialized, in
  /// which case it is read back directly.
  void VisitUpperTriangle(const UpperVisitor& fn,
                          const kernels::PairSkipTest& skip = {});

  /// VisitUpperTriangle driven by per-row candidate columns (spatial-index
  /// range-query hits): only candidates(i) — ascending j > i — are
  /// considered for evaluation; the rest of each tail is served as exactly
  /// 0.0 and counted in pruned_pairs(), as are candidates the optional
  /// `skip` predicate rules out. The caller asserts that every
  /// non-candidate pair's exact value is 0 (the index contract), so the
  /// visited tails are bit-identical to VisitUpperTriangle(fn, skip)
  /// whenever candidates(i) covers every pair `skip` would not have
  /// skipped. An already-materialized dense table is read back directly
  /// (same as VisitUpperTriangle — the values exist; no pruning counters
  /// move).
  void VisitUpperTriangleCandidates(const UpperVisitor& fn,
                                    const kernels::CandidateColumns& candidates,
                                    const kernels::PairSkipTest& skip = {});

 private:
  struct Tile {
    std::size_t index = 0;
    std::vector<double> data;
  };
  struct WarmRow {
    std::size_t row = 0;
    uint64_t generation = 0;
    std::vector<double> data;
  };

  void EnsureDense();
  /// Returns the cached tile holding `row`, faulting + evicting as needed.
  const Tile& EnsureTile(std::size_t row);
  /// GatherRow into a raw length-n destination.
  void CopyRowInto(std::size_t i, double* dst);
  /// Warm-cache lookup; touches recency + generation on hit.
  const double* WarmRowData(std::size_t i);
  /// The one serving chain of the gather APIs: resident storage (dense
  /// table or tile) first, then the warm cache. Returns the length-n row
  /// and counts a warm hit, or nullptr (the caller computes and counts the
  /// miss). The pointer is invalidated by the next non-const store call.
  const double* ServeRow(std::size_t i);
  /// Inserts a copy of row i (length n) into the warm cache when the warm
  /// policy is on and the row fits after LRU eviction.
  void MaybeRetainWarmRow(std::size_t i, const double* src);
  std::size_t TileBegin(std::size_t tile_index) const;
  std::size_t TileEnd(std::size_t tile_index) const;
  /// Rows per streaming scratch block (bounded, >= 1).
  std::size_t StreamRows() const;
  /// Bytes the streaming scratch of a sweep may occupy (budget-capped).
  std::size_t StreamScratchTarget() const;
  void NoteTableBytes(std::size_t live_bytes);

  engine::Engine eng_;
  kernels::PairwiseKernel kernel_;
  PairwiseStoreOptions options_;
  std::size_t n_ = 0;
  int64_t evaluations_ = 0;
  std::size_t table_bytes_peak_ = 0;

  // kDense state.
  std::vector<double> dense_;
  bool dense_ready_ = false;

  // kTiled / kOnTheFly state: most-recently-used tile first.
  std::list<Tile> tiles_;
  std::unordered_map<std::size_t, std::list<Tile>::iterator> tile_index_;
  std::size_t cache_bytes_ = 0;

  // Warm-row cache (kTiled + warm policy): most-recently-used first.
  std::list<WarmRow> warm_rows_;
  std::unordered_map<std::size_t, std::list<WarmRow>::iterator> warm_index_;
  std::size_t warm_bytes_ = 0;
  uint64_t generation_ = 0;
  int64_t warm_hits_ = 0;
  int64_t warm_misses_ = 0;
  int64_t pruned_pairs_ = 0;

  // Scratch for gather passes (reused across calls).
  std::vector<std::size_t> gather_missing_;
  std::vector<std::size_t> gather_slots_;
};

}  // namespace uclust::clustering

#endif  // UCLUST_CLUSTERING_PAIRWISE_STORE_H_
