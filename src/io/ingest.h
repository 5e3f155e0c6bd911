// File-backed streaming ingestion: binary dataset file -> moment statistics
// in one bounded-memory pass.
//
// FileObjectSource adapts BinaryDatasetReader to the ObjectSource interface
// consumed by uncertain::DatasetBuilder, so file-backed and in-memory
// datasets share one ingestion path and produce bit-identical moments for
// any batch size and engine thread count (tests/test_io.cc).
//
// Two entry points sit on top:
//
//   * StreamMomentsFromFile — the classic fully-resident MomentMatrix; peak
//     memory is the O(n m) moment columns plus one batch of pdf objects.
//   * StreamMomentStoreFromFile — returns a MomentStore whose backend is
//     selected by EngineConfig::memory_budget_bytes: Resident when the
//     columns fit the budget (or it is unlimited), Mapped otherwise. On the
//     Mapped path the builder spills each batch straight into a .umom
//     sidecar (see moment_file.h), so peak memory is O(batch + chunk)
//     regardless of n, and a valid matching sidecar from an earlier run is
//     reused instead of rebuilt (OpenOrRebuildSidecar, sidecar_file.h).
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
#include "uncertain/dataset_builder.h"
#include "uncertain/moment_store.h"
#include "uncertain/moments.h"

namespace uclust::io {

/// ObjectSource over an open BinaryDatasetReader; holds exactly one batch of
/// deserialized objects at a time.
class FileObjectSource final : public uncertain::ObjectSource {
 public:
  /// `reader` must outlive the source and have a validated header.
  explicit FileObjectSource(BinaryDatasetReader* reader) : reader_(reader) {}

  /// Error state of the underlying stream; check once draining is done
  /// (NextBatch has no error channel, so read failures end the stream
  /// early and are reported here).
  const common::Status& status() const { return status_; }

  std::span<const uncertain::UncertainObject> NextBatch(
      std::size_t max) override;

 private:
  BinaryDatasetReader* reader_;
  std::vector<uncertain::UncertainObject> batch_;
  common::Status status_;
};

/// Streams `path` into moment statistics with O(batch) resident pdf objects.
/// `labels`/`dataset_name` (optional) receive the file's labels column and
/// stored name.
common::Result<uncertain::MomentMatrix> StreamMomentsFromFile(
    const std::string& path,
    const engine::Engine& eng = engine::Engine::Serial(),
    std::size_t batch_size = uncertain::DatasetBuilder::kDefaultBatchSize,
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
  std::size_t batch_size = uncertain::DatasetBuilder::kDefaultBatchSize;
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
/// in one bounded-memory pass: reader batches -> DatasetBuilder spill mode
/// -> SidecarWriter, into a temp sibling renamed into place on success.
/// Used by `dataset_gen --emit-moments`.
common::Status BuildMomentSidecar(
    const std::string& dataset_path, const std::string& sidecar_path,
    const engine::Engine& eng = engine::Engine::Serial(),
    std::size_t chunk_rows = 0,
    std::size_t batch_size = uncertain::DatasetBuilder::kDefaultBatchSize);

/// Re-streamable batch-at-a-time moment statistics over a binary dataset
/// file — the input side of the mini-batch CK-means driver (and any other
/// consumer that wants moment rows in bounded memory without materializing
/// a MomentStore). Each NextBatch() deserializes one batch of pdf objects
/// and packs their moments into a reused flat scratch block through the
/// canonical MomentMatrix::PackRow, so the served values are bit-identical
/// to a full ingestion via DatasetBuilder for any batch size and thread
/// count. Rewind() restarts the record cursor for multi-pass consumers
/// (the underlying reader is forward-only, so a rewind reopens the file).
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
    return uncertain::MomentView(batch_rows_, m_, mean_.data(), mu2_.data(),
                                 var_.data(), total_var_.data());
  }

  /// Reads the mean vector of one object by absolute index through a fresh
  /// forward scan (the format has no random access); `out` must have dims()
  /// elements. O(index) — intended for rare lookups such as the CK-means
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
  std::vector<uncertain::UncertainObject> objects_;
  std::vector<double> mean_, mu2_, var_, total_var_;
};

}  // namespace uclust::io

#endif  // UCLUST_IO_INGEST_H_
