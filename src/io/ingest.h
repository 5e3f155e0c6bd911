// File-backed streaming ingestion: binary dataset file -> moment statistics
// in one bounded-memory pass.
//
// Every entry point here reads batches of record bytes and decodes them
// straight into moment rows with the reader's one validating decoder
// (BinaryDatasetReader::ReadMomentRows); no pdf object is ever built. The rows go through the canonical MomentMatrix::PackRow,
// so they are bit-identical to MomentMatrix::FromObjects over the same
// objects for any batch size and engine thread count (tests/test_io.cc).
//
//   * StreamMomentsFromFile — the classic fully-resident MomentMatrix; peak
//     memory is the O(n m) moment columns plus one batch of record bytes.
//   * StreamMomentStoreFromFile — returns a MomentStore whose backend is
//     selected by EngineConfig::memory_budget_bytes: Resident when the
//     columns fit the budget (or it is unlimited), Mapped otherwise. On the
//     Mapped path each decoded batch goes straight into a .umom sidecar
//     (see moment_file.h), so peak memory is O(batch + chunk) regardless of
//     n, and a valid matching sidecar from an earlier run is reused instead
//     of rebuilt (OpenOrRebuildSidecar, sidecar_file.h).
//   * BuildMomentSidecar — that sidecar build on its own.
//   * MomentBatchStream — batch-at-a-time rows for CkMeans::ClusterFile.
#ifndef UCLUST_IO_INGEST_H_
#define UCLUST_IO_INGEST_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "io/dataset_reader.h"
#include "io/sidecar_file.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace uclust::io {

/// Default number of records per batch of the entry points below.
inline constexpr std::size_t kDefaultBatchSize = 4096;

/// Streams `path` into moment statistics, one batch of records at a time.
/// `labels`/`dataset_name` (optional) receive the file's labels column and
/// stored name.
common::Result<uncertain::MomentMatrix> StreamMomentsFromFile(
    const std::string& path,
    const engine::Engine& eng = engine::Engine::Serial(),
    std::size_t batch_size = kDefaultBatchSize,
    std::vector<int>* labels = nullptr, std::string* dataset_name = nullptr);

/// Tuning of a StreamMomentStoreFromFile call.
struct MomentStoreOptions {
  BackendChoice backend = BackendChoice::kAuto;
  /// Rows per sidecar chunk; 0 = the engine's moment_chunk_rows hint, then
  /// a budget-derived size, then the format default. Rounded up to a power
  /// of two.
  std::size_t chunk_rows = 0;
  /// Sidecar location; "" = dataset path + ".umom".
  std::string sidecar_path;
  /// Reuse an existing sidecar whose header matches the dataset (n, m and
  /// the source size/mtime/probe guard) and whose chunks are no larger than
  /// the chunk requirement (see OpenOrRebuildSidecar); anything else is
  /// rebuilt. false forces a rebuild.
  bool reuse_sidecar = true;
  /// Streaming batch size for the ingestion pass.
  std::size_t batch_size = kDefaultBatchSize;
};

/// Streams `path` into a MomentStore whose backend is selected by the
/// engine's memory budget (see MomentStoreOptions to force one).
/// `labels`/`dataset_name` (optional) receive the file's labels column and
/// stored name. Both backends serve bit-identical moment statistics.
common::Result<uncertain::MomentStorePtr> StreamMomentStoreFromFile(
    const std::string& path,
    const engine::Engine& eng = engine::Engine::Serial(),
    const MomentStoreOptions& options = {},
    std::vector<int>* labels = nullptr, std::string* dataset_name = nullptr);

/// Builds (or rebuilds) the .umom moment sidecar for a binary dataset file
/// in one bounded-memory pass: decoded moment batches -> SidecarWriter,
/// into a temp sibling renamed into place on success.
/// Used by `dataset_gen --emit-moments`.
common::Status BuildMomentSidecar(
    const std::string& dataset_path, const std::string& sidecar_path,
    const engine::Engine& eng = engine::Engine::Serial(),
    std::size_t chunk_rows = 0,
    std::size_t batch_size = kDefaultBatchSize);

/// Re-streamable batch-at-a-time moment statistics over a binary dataset
/// file — the input side of the mini-batch CK-means driver (and any other
/// consumer that wants moment rows in bounded memory without materializing
/// a MomentStore). Each NextBatch() decodes one batch of records straight
/// into a reused flat scratch block, bit-identical to every other moment
/// path for any batch size and thread count. Rewind() restarts the record
/// cursor for multi-pass consumers (the underlying reader is forward-only,
/// so a rewind reopens the file).
class MomentBatchStream {
 public:
  /// `eng` dispatches the per-batch packing pass.
  explicit MomentBatchStream(
      const engine::Engine& eng = engine::Engine::Serial())
      : engine_(eng) {}

  /// Opens `path` and validates the header.
  common::Status Open(const std::string& path);

  /// Number of objects in the file.
  std::size_t size() const { return n_; }
  /// Dimensionality of every object.
  std::size_t dims() const { return m_; }
  /// Dataset name stored in the file.
  const std::string& name() const { return name_; }

  /// Restarts the stream at object 0 (reopens the record cursor).
  common::Status Rewind();

  /// Packs the next min(max_rows, remaining) objects' moments into the
  /// internal scratch block and returns the row count (0 at end of stream).
  /// `max_rows` must be > 0.
  common::Result<std::size_t> NextBatch(std::size_t max_rows);

  /// Absolute object index of row 0 of the current batch.
  std::size_t base_index() const { return base_index_; }
  /// Flat view over the current batch's moment rows (batch-local indices;
  /// valid until the next NextBatch/Rewind call).
  uncertain::MomentView batch_view() const {
    return uncertain::MomentView(batch_rows_, m_, cols_.mean.data(),
                                 cols_.mu2.data(), cols_.var.data(),
                                 cols_.total_var.data());
  }

  /// Reads the mean vector of one object by absolute index; `out` must have
  /// dims() elements. A fresh reader skips the records before it by their
  /// length prefixes (the format has no index), so it costs O(index) small
  /// reads and one decode — meant for rare lookups such as the CK-means
  /// empty-cluster reseed, not for bulk access.
  common::Status ReadMeanAt(std::size_t index, std::span<double> out) const;

  /// Reads the labels column (empty when the file is unlabeled).
  common::Status ReadLabels(std::vector<int>* labels);

 private:
  engine::Engine engine_;
  std::string path_;
  std::string name_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
  std::size_t base_index_ = 0;
  std::size_t next_index_ = 0;
  std::size_t batch_rows_ = 0;
  std::unique_ptr<BinaryDatasetReader> reader_;
  MomentColumns cols_;
};

}  // namespace uclust::io

#endif  // UCLUST_IO_INGEST_H_
