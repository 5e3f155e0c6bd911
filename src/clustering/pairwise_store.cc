#include "clustering/pairwise_store.h"

#include <algorithm>
#include <cstring>

namespace uclust::clustering {

namespace {

// Scratch target of streaming sweeps on backends without a configured tile
// shape (dense-backend upper sweeps, on-the-fly sweeps): one bounded block,
// independent of the thread count so evaluation counts stay deterministic.
constexpr std::size_t kStreamScratchBytes = std::size_t{1} << 20;  // 1 MiB

// Warm-cache target when a tiled store has no finite budget to carve from
// (explicitly forced tiled backends): mirrors the stream scratch bound.
constexpr std::size_t kDefaultWarmBytes = std::size_t{1} << 20;  // 1 MiB

// Row-block size for the parallel visitor passes over an already-filled
// buffer of `rows` rows. Purely a load-balancing choice; visitors own
// row-indexed output, so the partition never affects results.
std::size_t VisitRowBlock(const engine::Engine& eng, std::size_t rows) {
  const std::size_t lanes = static_cast<std::size_t>(eng.num_threads());
  return engine::ClampBlock(eng, rows / (lanes * 4) + 1);
}

}  // namespace

std::string PairwiseBackendName(PairwiseBackend backend) {
  switch (backend) {
    case PairwiseBackend::kDense:
      return "dense";
    case PairwiseBackend::kTiled:
      return "tiled";
    case PairwiseBackend::kOnTheFly:
      return "onthefly";
  }
  return "unknown";
}

namespace {

// The one place tile geometry is derived from a budget: ~4 tiles should fit
// it, and the LRU capacity never exceeds it. Used by the kTiled derivation
// below after the warm-cache carve-out.
void DeriveTileGeometry(std::size_t budget_bytes, std::size_t n,
                        std::size_t* tile_rows,
                        std::size_t* max_cached_tiles) {
  const std::size_t row_bytes = std::max<std::size_t>(n, 1) * sizeof(double);
  if (*tile_rows == 0) {
    *tile_rows = budget_bytes > 0 ? budget_bytes / (4 * row_bytes)
                                  : (std::size_t{1} << 20) / row_bytes;
  }
  *tile_rows = std::clamp<std::size_t>(*tile_rows, 1,
                                       std::max<std::size_t>(n, 1));
  if (*max_cached_tiles == 0) {
    *max_cached_tiles =
        budget_bytes > 0
            ? std::max<std::size_t>(1,
                                    budget_bytes / (*tile_rows * row_bytes))
            : 4;
  }
}

// Derives the kTiled warm-cache capacity and tile geometry so that the tile
// LRU plus the warm cache fit the budget: warm rows get a quarter of the
// budget when at least one row fits without pushing the tile side below two
// rows; otherwise the warm policy is disabled and tiles get everything.
void DeriveTiledPolicies(PairwiseStoreOptions* o, std::size_t n) {
  const std::size_t row_bytes = std::max<std::size_t>(n, 1) * sizeof(double);
  const std::size_t budget = o->memory_budget_bytes;
  // A disabled warm cache must not keep a carve-out the tile LRU could use.
  if (!o->warm_rows) o->warm_capacity_bytes = 0;
  if (o->warm_rows && o->warm_capacity_bytes == 0) {
    std::size_t warm = budget > 0 ? budget / 4 : kDefaultWarmBytes;
    if (budget > 0 && budget - warm < 2 * row_bytes) {
      warm = budget > 2 * row_bytes ? budget - 2 * row_bytes : 0;
    }
    o->warm_capacity_bytes = warm;
  }
  if (o->warm_capacity_bytes < row_bytes) {
    o->warm_rows = false;
    o->warm_capacity_bytes = 0;
  }
  const std::size_t tile_budget =
      budget > o->warm_capacity_bytes ? budget - o->warm_capacity_bytes
                                      : budget;
  DeriveTileGeometry(tile_budget, n, &o->tile_rows, &o->max_cached_tiles);
}

}  // namespace

PairwiseStoreOptions PairwiseStoreOptions::FromBudget(std::size_t budget_bytes,
                                                      std::size_t n) {
  PairwiseStoreOptions o;
  o.memory_budget_bytes = budget_bytes;
  const std::size_t row_bytes = n * sizeof(double);
  // Overflow-safe "n * n * sizeof(double) <= budget" (up to one row of
  // rounding slack, which only shifts the dense/tiled boundary by < 1 row).
  const bool dense_fits =
      budget_bytes == 0 || n == 0 ||
      (budget_bytes / n) / sizeof(double) >= n;
  if (dense_fits) {
    o.backend = PairwiseBackend::kDense;
    o.warm_rows = false;
    return o;
  }
  if (budget_bytes >= 2 * row_bytes) {
    o.backend = PairwiseBackend::kTiled;
    DeriveTiledPolicies(&o, n);
    return o;
  }
  o.backend = PairwiseBackend::kOnTheFly;
  o.tile_rows = 1;
  o.max_cached_tiles = 1;
  o.warm_rows = false;
  return o;
}

PairwiseStore::PairwiseStore(const engine::Engine& eng,
                             const kernels::PairwiseKernel& kernel,
                             const PairwiseStoreOptions& options)
    : eng_(eng), kernel_(kernel), options_(options), n_(kernel.size()) {
  switch (options_.backend) {
    case PairwiseBackend::kDense:
      options_.warm_rows = false;
      options_.warm_capacity_bytes = 0;
      break;
    case PairwiseBackend::kOnTheFly:
      options_.tile_rows = 1;
      options_.max_cached_tiles = 1;
      options_.warm_rows = false;
      options_.warm_capacity_bytes = 0;
      break;
    case PairwiseBackend::kTiled:
      DeriveTiledPolicies(&options_, n_);
      break;
  }
}

PairwiseStore::PairwiseStore(const engine::Engine& eng,
                             const kernels::PairwiseKernel& kernel)
    : PairwiseStore(eng, kernel,
                    PairwiseStoreOptions::FromBudget(eng.memory_budget_bytes(),
                                                     kernel.size())) {}

void PairwiseStore::NoteTableBytes(std::size_t extra_scratch_bytes) {
  const std::size_t live = dense_.size() * sizeof(double) + cache_bytes_ +
                           warm_bytes_ + extra_scratch_bytes;
  table_bytes_peak_ = std::max(table_bytes_peak_, live);
}

void PairwiseStore::EnsureDense() {
  if (dense_ready_) return;
  evaluations_ += kernels::FillDenseTriangular(eng_, kernel_, &dense_);
  dense_ready_ = true;
  NoteTableBytes(0);
}

std::size_t PairwiseStore::TileBegin(std::size_t tile_index) const {
  return tile_index * options_.tile_rows;
}

std::size_t PairwiseStore::TileEnd(std::size_t tile_index) const {
  return std::min(n_, TileBegin(tile_index) + options_.tile_rows);
}

const PairwiseStore::Tile& PairwiseStore::EnsureTile(std::size_t row) {
  const std::size_t t = row / options_.tile_rows;
  const auto it = tile_index_.find(t);
  if (it != tile_index_.end()) {
    tiles_.splice(tiles_.begin(), tiles_, it->second);
    return tiles_.front();
  }
  // Evict before filling so resident bytes never exceed the capacity.
  while (tiles_.size() >= options_.max_cached_tiles) {
    cache_bytes_ -= tiles_.back().data.size() * sizeof(double);
    tile_index_.erase(tiles_.back().index);
    tiles_.pop_back();
  }
  Tile tile;
  tile.index = t;
  const std::size_t r0 = TileBegin(t);
  const std::size_t r1 = TileEnd(t);
  tile.data.resize((r1 - r0) * n_);
  evaluations_ += kernels::FillRowTile(eng_, kernel_, r0, r1,
                                       tile.data.data());
  cache_bytes_ += tile.data.size() * sizeof(double);
  tiles_.push_front(std::move(tile));
  tile_index_[t] = tiles_.begin();
  NoteTableBytes(0);
  return tiles_.front();
}

std::size_t PairwiseStore::StreamScratchTarget() const {
  // A finite budget caps streaming scratch (never below one row, the hard
  // floor of row-granular access — enforced by the callers' clamps).
  std::size_t target = kStreamScratchBytes;
  if (options_.memory_budget_bytes > 0) {
    target = std::min(target, options_.memory_budget_bytes);
  }
  return target;
}

std::size_t PairwiseStore::StreamRows() const {
  if (options_.backend == PairwiseBackend::kTiled) return options_.tile_rows;
  const std::size_t row_bytes = std::max<std::size_t>(n_, 1) * sizeof(double);
  return std::clamp<std::size_t>(StreamScratchTarget() / row_bytes, 1,
                                 std::max<std::size_t>(n_, 1));
}

void PairwiseStore::Warm() {
  if (options_.backend == PairwiseBackend::kDense) EnsureDense();
}

std::span<const double> PairwiseStore::Row(std::size_t i) {
  if (options_.backend == PairwiseBackend::kDense) {
    EnsureDense();
    return {dense_.data() + i * n_, n_};
  }
  const Tile& tile = EnsureTile(i);
  return {tile.data.data() + (i - TileBegin(tile.index)) * n_, n_};
}

double PairwiseStore::Value(std::size_t i, std::size_t j) {
  return Row(i)[j];
}

std::span<const double> PairwiseStore::ResidentRow(std::size_t i) const {
  if (dense_ready_) return {dense_.data() + i * n_, n_};
  if (options_.backend != PairwiseBackend::kDense) {
    const auto it = tile_index_.find(i / options_.tile_rows);
    if (it != tile_index_.end()) {
      const Tile& tile = *it->second;
      return {tile.data.data() + (i - TileBegin(tile.index)) * n_, n_};
    }
  }
  return {};
}

const double* PairwiseStore::WarmRowData(std::size_t i) {
  if (!options_.warm_rows) return nullptr;
  const auto it = warm_index_.find(i);
  if (it == warm_index_.end()) return nullptr;
  warm_rows_.splice(warm_rows_.begin(), warm_rows_, it->second);
  warm_rows_.front().generation = generation_;
  return warm_rows_.front().data.data();
}

void PairwiseStore::MaybeRetainWarmRow(std::size_t i, const double* src) {
  if (!options_.warm_rows) return;
  if (warm_index_.contains(i)) return;
  const std::size_t row_bytes = n_ * sizeof(double);
  if (row_bytes == 0 || row_bytes > options_.warm_capacity_bytes) return;
  while (warm_bytes_ + row_bytes > options_.warm_capacity_bytes) {
    warm_bytes_ -= warm_rows_.back().data.size() * sizeof(double);
    warm_index_.erase(warm_rows_.back().row);
    warm_rows_.pop_back();
  }
  WarmRow row;
  row.row = i;
  row.generation = generation_;
  row.data.assign(src, src + n_);
  warm_bytes_ += row_bytes;
  warm_rows_.push_front(std::move(row));
  warm_index_[i] = warm_rows_.begin();
  NoteTableBytes(0);
}

void PairwiseStore::BeginGeneration() {
  ++generation_;
  if (!options_.warm_rows) return;
  // Invalidate rows last touched more than kWarmRetainGenerations ago —
  // the explicit staleness bound of the warm-row protocol.
  const uint64_t keep_from = generation_ > kWarmRetainGenerations
                                 ? generation_ - kWarmRetainGenerations
                                 : 0;
  for (auto it = warm_rows_.begin(); it != warm_rows_.end();) {
    if (it->generation < keep_from) {
      warm_bytes_ -= it->data.size() * sizeof(double);
      warm_index_.erase(it->row);
      it = warm_rows_.erase(it);
    } else {
      ++it;
    }
  }
}

void PairwiseStore::InvalidateWarmRows() {
  warm_rows_.clear();
  warm_index_.clear();
  warm_bytes_ = 0;
}

const double* PairwiseStore::ServeRow(std::size_t i) {
  const std::span<const double> resident = ResidentRow(i);
  const double* src = !resident.empty() ? resident.data() : WarmRowData(i);
  if (src != nullptr) ++warm_hits_;
  return src;
}

void PairwiseStore::CopyRowInto(std::size_t i, double* dst) {
  if (options_.backend == PairwiseBackend::kDense) EnsureDense();
  if (const double* src = ServeRow(i)) {
    std::memcpy(dst, src, n_ * sizeof(double));
    return;
  }
  // Fills the caller's buffer directly; only the optional warm copy is
  // store-materialized (and accounted).
  evaluations_ += kernels::FillRowTile(eng_, kernel_, i, i + 1, dst);
  ++warm_misses_;
  MaybeRetainWarmRow(i, dst);
}

void PairwiseStore::GatherRow(std::size_t i, std::vector<double>* out) {
  out->resize(n_);
  CopyRowInto(i, out->data());
}

void PairwiseStore::GatherRows(std::span<const std::size_t> rows,
                               std::vector<double>* out) {
  out->resize(rows.size() * n_);
  if (options_.backend == PairwiseBackend::kDense) EnsureDense();
  gather_missing_.clear();
  gather_slots_.clear();
  for (std::size_t r = 0; r < rows.size(); ++r) {
    if (const double* src = ServeRow(rows[r])) {
      std::memcpy(out->data() + r * n_, src, n_ * sizeof(double));
      continue;
    }
    gather_missing_.push_back(rows[r]);
    gather_slots_.push_back(r);
  }
  if (gather_missing_.empty()) return;
  // One asymmetric gather tile for every missing row, computed directly
  // into the caller's buffer in a single parallel pass.
  evaluations_ += kernels::FillGatherTile(eng_, kernel_, gather_missing_,
                                          out->data(), gather_slots_);
  warm_misses_ += static_cast<int64_t>(gather_missing_.size());
  for (std::size_t t = 0; t < gather_missing_.size(); ++t) {
    MaybeRetainWarmRow(gather_missing_[t],
                       out->data() + gather_slots_[t] * n_);
  }
}

void PairwiseStore::VisitSymmetricBlock(
    std::span<const std::size_t> ids,
    const std::function<void(std::size_t, std::span<const double>)>& fn) {
  const std::size_t s = ids.size();
  if (s == 0) return;
  if (options_.backend == PairwiseBackend::kDense) EnsureDense();
  const std::size_t row_bytes = s * sizeof(double);
  // Scratch bound for the block: up to a quarter of a finite budget (the
  // symmetric-halving fast path is worth more scratch than a plain stream
  // sweep), but never past what the tile LRU and warm cache leave of the
  // budget right now — live bytes plus scratch stay within it, down to the
  // one-block-row floor. On the dense backend the table is the
  // budget-approved artifact, so only the stream target applies.
  std::size_t scratch_budget = StreamScratchTarget();
  if (options_.memory_budget_bytes > 0 &&
      options_.backend != PairwiseBackend::kDense) {
    const std::size_t live = cache_bytes_ + warm_bytes_;
    scratch_budget =
        std::min(std::max(scratch_budget, options_.memory_budget_bytes / 4),
                 options_.memory_budget_bytes > live
                     ? options_.memory_budget_bytes - live
                     : 0);
  }
  const std::size_t stripe_rows = std::clamp<std::size_t>(
      scratch_budget / row_bytes, 1, s);

  if (stripe_rows >= s) {
    // The whole block fits the scratch bound: served rows are read back and
    // mirrored into missing rows' columns — d(ids[b], ids[a]) ==
    // d(ids[a], ids[b]) bit-for-bit — and the (missing, missing) cells are
    // one symmetric kernel pass, each pair evaluated once.
    std::vector<double> block(s * s);
    double* d = block.data();
    gather_missing_.clear();  // reused here as the missing SLOT list
    std::vector<char> served(s, 0);
    for (std::size_t a = 0; a < s; ++a) {
      if (const double* src = ServeRow(ids[a])) {
        for (std::size_t b = 0; b < s; ++b) d[a * s + b] = src[ids[b]];
        served[a] = 1;
      } else {
        gather_missing_.push_back(a);
      }
    }
    if (!gather_missing_.empty()) {
      warm_misses_ += static_cast<int64_t>(gather_missing_.size());
      for (const std::size_t a : gather_missing_) {
        for (std::size_t b = 0; b < s; ++b) {
          if (served[b]) d[a * s + b] = d[b * s + a];
        }
      }
      evaluations_ +=
          kernels::FillSymmetricBlock(eng_, kernel_, ids, gather_missing_, d);
    }
    NoteTableBytes(block.size() * sizeof(double));
    engine::ParallelForBlocked(
        eng_, s, VisitRowBlock(eng_, s), [&](const engine::BlockedRange& r) {
          for (std::size_t a = r.begin; a < r.end; ++a) {
            fn(a, {d + a * s, s});
          }
        });
    return;
  }

  // Striped fallback for blocks larger than the scratch bound (a skewed
  // cluster under a tight budget): bounded row stripes, nothing
  // materialized beyond stripe_rows x |ids|. The symmetric halving is
  // unavailable across stripes, so non-served rows cost |ids| - 1
  // evaluations each — still a member-column slab, never a full tile.
  std::vector<double> scratch(stripe_rows * s);
  for (std::size_t r0 = 0; r0 < s; r0 += stripe_rows) {
    const std::size_t r1 = std::min(s, r0 + stripe_rows);
    gather_missing_.clear();
    gather_slots_.clear();
    for (std::size_t a = r0; a < r1; ++a) {
      double* dst = scratch.data() + (a - r0) * s;
      if (const double* src = ServeRow(ids[a])) {
        for (std::size_t b = 0; b < s; ++b) dst[b] = src[ids[b]];
      } else {
        gather_missing_.push_back(a);
        gather_slots_.push_back(a - r0);
      }
    }
    if (!gather_missing_.empty()) {
      warm_misses_ += static_cast<int64_t>(gather_missing_.size());
      evaluations_ += kernels::FillBlockRows(
          eng_, kernel_, ids, gather_missing_, gather_slots_, scratch.data());
    }
    NoteTableBytes(scratch.size() * sizeof(double));
    engine::ParallelForBlocked(
        eng_, r1 - r0, VisitRowBlock(eng_, r1 - r0),
        [&](const engine::BlockedRange& r) {
          for (std::size_t tr = r.begin; tr < r.end; ++tr) {
            fn(r0 + tr, {scratch.data() + tr * s, s});
          }
        });
  }
}

void PairwiseStore::VisitAllRows(const RowVisitor& fn) {
  if (n_ == 0) return;
  if (options_.backend == PairwiseBackend::kDense) {
    EnsureDense();
    const double* d = dense_.data();
    engine::ParallelForBlocked(
        eng_, n_, VisitRowBlock(eng_, n_), [&](const engine::BlockedRange& r) {
          for (std::size_t i = r.begin; i < r.end; ++i) {
            fn(i, {d + i * n_, n_});
          }
        });
    return;
  }
  if (options_.backend == PairwiseBackend::kTiled) {
    // Stream through the LRU cache: resident tiles are served for free, the
    // rest fault in (and age out) in tile order.
    const std::size_t tiles = (n_ + options_.tile_rows - 1) /
                              options_.tile_rows;
    for (std::size_t t = 0; t < tiles; ++t) {
      const Tile& tile = EnsureTile(TileBegin(t));
      const std::size_t r0 = TileBegin(t);
      const std::size_t rows = TileEnd(t) - r0;
      const double* d = tile.data.data();
      engine::ParallelForBlocked(
          eng_, rows, VisitRowBlock(eng_, rows),
          [&](const engine::BlockedRange& r) {
            for (std::size_t tr = r.begin; tr < r.end; ++tr) {
              fn(r0 + tr, {d + tr * n_, n_});
            }
          });
    }
    return;
  }
  // kOnTheFly: bounded scratch blocks, nothing retained.
  const std::size_t chunk = StreamRows();
  std::vector<double> scratch(chunk * n_);
  for (std::size_t r0 = 0; r0 < n_; r0 += chunk) {
    const std::size_t r1 = std::min(n_, r0 + chunk);
    evaluations_ += kernels::FillRowTile(eng_, kernel_, r0, r1,
                                         scratch.data());
    NoteTableBytes(scratch.size() * sizeof(double));
    engine::ParallelForBlocked(
        eng_, r1 - r0, VisitRowBlock(eng_, r1 - r0),
        [&](const engine::BlockedRange& r) {
          for (std::size_t tr = r.begin; tr < r.end; ++tr) {
            fn(r0 + tr, {scratch.data() + tr * n_, n_});
          }
        });
  }
}

void PairwiseStore::VisitUpperTriangle(const UpperVisitor& fn,
                                       const kernels::PairSkipTest& skip) {
  if (n_ == 0) return;
  if (dense_ready_) {
    const double* d = dense_.data();
    engine::ParallelForBlocked(
        eng_, n_, VisitRowBlock(eng_, n_), [&](const engine::BlockedRange& r) {
          for (std::size_t i = r.begin; i < r.end; ++i) {
            fn(i, {d + i * n_ + i + 1, n_ - i - 1});
          }
        });
    return;
  }
  // Stream ragged row blocks; each pair is evaluated (or skipped under the
  // predicate) exactly once and nothing enters the tile cache (a one-shot
  // sweep must not evict tiles a caller is still iterating against).
  const std::size_t chunk = StreamRows();
  std::vector<double> scratch(chunk * n_);
  for (std::size_t r0 = 0; r0 < n_; r0 += chunk) {
    const std::size_t r1 = std::min(n_, r0 + chunk);
    if (skip) {
      evaluations_ += kernels::FillUpperRowTilePruned(
          eng_, kernel_, r0, r1, scratch.data(), skip, &pruned_pairs_);
    } else {
      evaluations_ += kernels::FillUpperRowTile(eng_, kernel_, r0, r1,
                                                scratch.data());
    }
    NoteTableBytes(scratch.size() * sizeof(double));
    engine::ParallelForBlocked(
        eng_, r1 - r0, VisitRowBlock(eng_, r1 - r0),
        [&](const engine::BlockedRange& r) {
          for (std::size_t tr = r.begin; tr < r.end; ++tr) {
            const std::size_t i = r0 + tr;
            fn(i, {scratch.data() + tr * n_ + i + 1, n_ - i - 1});
          }
        });
  }
}

void PairwiseStore::VisitUpperTriangleCandidates(
    const UpperVisitor& fn, const kernels::CandidateColumns& candidates,
    const kernels::PairSkipTest& skip) {
  if (n_ == 0) return;
  if (dense_ready_) {
    const double* d = dense_.data();
    engine::ParallelForBlocked(
        eng_, n_, VisitRowBlock(eng_, n_), [&](const engine::BlockedRange& r) {
          for (std::size_t i = r.begin; i < r.end; ++i) {
            fn(i, {d + i * n_ + i + 1, n_ - i - 1});
          }
        });
    return;
  }
  // Same streaming shape as VisitUpperTriangle, but the producer touches
  // only the candidate columns of each ragged row.
  const std::size_t chunk = StreamRows();
  std::vector<double> scratch(chunk * n_);
  for (std::size_t r0 = 0; r0 < n_; r0 += chunk) {
    const std::size_t r1 = std::min(n_, r0 + chunk);
    evaluations_ += kernels::FillUpperRowTileFromCandidates(
        eng_, kernel_, r0, r1, scratch.data(), candidates, skip,
        &pruned_pairs_);
    NoteTableBytes(scratch.size() * sizeof(double));
    engine::ParallelForBlocked(
        eng_, r1 - r0, VisitRowBlock(eng_, r1 - r0),
        [&](const engine::BlockedRange& r) {
          for (std::size_t tr = r.begin; tr < r.end; ++tr) {
            const std::size_t i = r0 + tr;
            fn(i, {scratch.data() + tr * n_ + i + 1, n_ - i - 1});
          }
        });
  }
}

}  // namespace uclust::clustering
