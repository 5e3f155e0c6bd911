// The .usmp sample sidecar's store adapter and backend-selecting factory,
// over the shared chunked-sidecar layer (sidecar_file.h; layout in
// sidecar_format.h).
//
// BuildSampleSidecar draws a sidecar from a binary dataset file in reader
// batches (the `dataset_gen --emit-samples` path), always through the
// canonical uncertain::DrawObjectSamples with absolute object indices — so
// a spilled sidecar is byte-for-byte what the Resident backend would draw.
//
// MappedSampleStore is the Mapped SampleStore backend: a MappedSidecar whose
// chunk windows are served as SampleView chunks.
//
// MakeSampleStore is the factory every sampled clusterer calls: it selects
// Resident vs Mapped from EngineConfig::memory_budget_bytes and opens or
// rebuilds the sidecar (identity n/m/S/seed + source staleness guard) —
// next to the dataset's source file when the dataset is file-backed, or in
// a self-deleting temp spill otherwise.
#ifndef UCLUST_IO_SAMPLE_FILE_H_
#define UCLUST_IO_SAMPLE_FILE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "io/sidecar_file.h"
#include "uncertain/sample_store.h"

namespace uclust::io {

/// The Mapped SampleStore backend: serves a validated .usmp file through
/// chunk-granular mapped windows. Thread-safe for concurrent view access
/// (each thread owns its window LRU).
class MappedSampleStore final : public uncertain::SampleStore,
                                public uncertain::SampleChunkSource {
 public:
  /// Opens and validates the .usmp file at `path`.
  static common::Result<std::unique_ptr<MappedSampleStore>> Open(
      const std::string& path);

  /// Serves an already opened .usmp sidecar.
  explicit MappedSampleStore(std::unique_ptr<MappedSidecar> sidecar)
      : sidecar_(std::move(sidecar)) {}

  uncertain::SampleBackend backend() const override {
    return uncertain::SampleBackend::kMapped;
  }
  uncertain::SampleView view() const override {
    const SidecarHeader& h = sidecar_->header();
    return uncertain::SampleView(h.n, static_cast<int>(h.samples), h.m,
                                 h.chunk_rows, this);
  }
  /// Peak bytes of chunk windows mapped simultaneously across all threads.
  std::size_t sample_bytes_resident() const override {
    return sidecar_->peak_window_bytes();
  }
  const std::string& sidecar_path() const override {
    return sidecar_->path();
  }

  /// Objects per chunk (the file's, which may differ from any caller hint).
  std::size_t chunk_rows() const { return sidecar_->header().chunk_rows; }
  /// Master seed the sidecar's rows were drawn with.
  uint64_t seed() const { return sidecar_->header().seed; }
  /// True when at least one window came from a real mmap.
  bool used_mmap() const { return sidecar_->used_mmap(); }

  const double* ChunkData(std::size_t chunk) const override {
    return sidecar_->Window(chunk);
  }

 private:
  std::unique_ptr<MappedSidecar> sidecar_;
};

/// Writes every object row of `view` into a .usmp sidecar at `path`
/// (convenience for tests that already hold resident samples).
common::Status WriteSampleFile(const uncertain::SampleView& view,
                               const std::string& path, uint64_t seed,
                               std::size_t chunk_rows = 0,
                               uint64_t source_size = 0);

/// Builds (or rebuilds) the .usmp sample sidecar for a binary dataset file
/// in one bounded-memory pass: reader batches -> DrawObjectSamples (absolute
/// indices) -> SidecarWriter, into a temp sibling renamed into place on
/// success. Used by `dataset_gen --emit-samples`.
common::Status BuildSampleSidecar(
    const std::string& dataset_path, const std::string& sidecar_path,
    int samples_per_object, uint64_t seed,
    const engine::Engine& eng = engine::Engine::Serial(),
    std::size_t chunk_rows = 0, std::size_t batch_size = 1024);

/// Canonical sidecar path for (dataset, S, seed): sibling of `dataset_path`
/// with the draw parameters encoded in the name, so different algorithms'
/// (S, seed) pairs never churn one shared file.
std::string DefaultSampleSidecarPath(const std::string& dataset_path,
                                     int samples_per_object, uint64_t seed);

/// Tuning of a MakeSampleStore call.
struct SampleStoreOptions {
  BackendChoice backend = BackendChoice::kAuto;
  /// Objects per sidecar chunk; 0 = the engine's sample_chunk_rows hint,
  /// then a budget-derived size, then the format default. Rounded up to a
  /// power of two.
  std::size_t chunk_rows = 0;
  /// Sidecar location; "" = the dataset's annotated sidecar, then
  /// DefaultSampleSidecarPath next to its source file, then a self-deleting
  /// temp spill.
  std::string sidecar_path;
  /// Reuse an existing sidecar whose header matches the request (n, m,
  /// samples_per_object, seed and, when the dataset is file-backed, the
  /// source size/mtime/probe guard) and whose chunks are no larger than the
  /// chunk requirement (see OpenOrRebuildSidecar); anything else is
  /// rebuilt. false forces a rebuild.
  bool reuse_sidecar = true;
  /// Streaming batch size for file-backed sidecar builds.
  std::size_t batch_size = 1024;
};

/// Creates the SampleStore serving `samples_per_object` realizations of
/// every object in `data`, drawn from `seed`, with the backend selected by
/// the engine's memory budget (see SampleStoreOptions to force one). Both
/// backends serve bit-identical sample bytes.
common::Result<uncertain::SampleStorePtr> MakeSampleStore(
    const data::UncertainDataset& data, int samples_per_object, uint64_t seed,
    const engine::Engine& eng = engine::Engine::Serial(),
    const SampleStoreOptions& options = {});

/// MakeSampleStore with the clusterer-facing failure policy: Cluster() has
/// no status channel, so a factory failure (unwritable sidecar location,
/// corrupt file, ...) falls back to the Resident backend with a stderr
/// warning — value-identical, only memory-hungrier.
uncertain::SampleStorePtr MakeSampleStoreOrResident(
    const data::UncertainDataset& data, int samples_per_object, uint64_t seed,
    const engine::Engine& eng = engine::Engine::Serial());

}  // namespace uclust::io

#endif  // UCLUST_IO_SAMPLE_FILE_H_
