// The .umom moment sidecar's uncertain-layer adapter over the shared
// chunked-sidecar layer (sidecar_file.h; layout in sidecar_format.h).
//
// MappedMomentStore is the Mapped MomentStore backend: a MappedSidecar whose
// chunk windows are served as MomentView chunks, bit-identical to the
// Resident backend's doubles. The sidecar itself is written batch by batch
// from decoded .ubin records (BuildMomentSidecar, ingest.h), so stream
// ingestion never holds more than one chunk of moment data in memory.
#ifndef UCLUST_IO_MOMENT_FILE_H_
#define UCLUST_IO_MOMENT_FILE_H_

#include <memory>
#include <string>

#include "common/status.h"
#include "io/sidecar_file.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace uclust::io {

/// The Mapped MomentStore backend. Thread-safe for concurrent view access
/// (each thread owns its window LRU).
class MappedMomentStore final : public uncertain::MomentStore,
                                public uncertain::MomentChunkSource {
 public:
  /// Opens and validates the .umom file at `path`.
  static common::Result<std::unique_ptr<MappedMomentStore>> Open(
      const std::string& path);

  /// Serves an already opened .umom sidecar.
  explicit MappedMomentStore(std::unique_ptr<MappedSidecar> sidecar)
      : sidecar_(std::move(sidecar)) {}

  uncertain::MomentBackend backend() const override {
    return uncertain::MomentBackend::kMapped;
  }
  uncertain::MomentView view() const override {
    const SidecarHeader& h = sidecar_->header();
    return uncertain::MomentView(h.n, h.m, h.chunk_rows, this);
  }
  /// Peak bytes of chunk windows mapped simultaneously across all threads.
  std::size_t moment_bytes_resident() const override {
    return sidecar_->peak_window_bytes();
  }
  const std::string& sidecar_path() const override {
    return sidecar_->path();
  }

  /// Rows per chunk (the file's, which may differ from any caller hint).
  std::size_t chunk_rows() const { return sidecar_->header().chunk_rows; }
  /// True when at least one window came from a real mmap.
  bool used_mmap() const { return sidecar_->used_mmap(); }

  uncertain::MomentChunkPtrs ChunkData(std::size_t chunk) const override {
    const double* base = sidecar_->Window(chunk);
    const std::size_t block = sidecar_->RowsInChunk(chunk) *
                              sidecar_->header().m;
    return {base, base + block, base + 2 * block, base + 3 * block};
  }

 private:
  std::unique_ptr<MappedSidecar> sidecar_;
};

/// Writes every row of `view` into a .umom sidecar at `path` (convenience
/// for benches/tests that already hold resident moments).
common::Status WriteMomentFile(const uncertain::MomentView& view,
                               const std::string& path,
                               std::size_t chunk_rows = 0,
                               uint64_t source_size = 0);

}  // namespace uclust::io

#endif  // UCLUST_IO_MOMENT_FILE_H_
