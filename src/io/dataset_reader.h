// Reader for the binary dataset format (see binary_format.h).
//
// After Open() validates the header (magic, endianness canary, version), the
// object records are consumed strictly forward. Every record goes through
// one validating decoder, which yields either a moment row (packed through
// MomentMatrix::PackRow) or an UncertainObject of pdfs. It rejects, with a
// Status naming the object, a truncated or malformed pdf record
// (parameters outside the pdf constructors' domains, non-finite values
// included, an unknown tag, a discrete count larger than the record) and
// bytes left over after the m pdf records; a discrete count is checked
// against the record's size before anything is allocated from it.
// The moment-only consumers (the streamed ingestion in ingest.h, the .umom
// sidecar build, CK-means' MomentBatchStream) read moment rows straight
// from the record bytes and never build a pdf object.
//
// ReadUncertainDataset() reads the record bytes once into a page-backed
// snapshot, validates every record, and decodes it into the dataset's
// moment cache; the pdf objects are built from the snapshot only when an
// algorithm first asks for them (see data::UncertainDataset).
#ifndef UCLUST_IO_DATASET_READER_H_
#define UCLUST_IO_DATASET_READER_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"
#include "engine/engine.h"
#include "io/mmap_file.h"
#include "uncertain/uncertain_object.h"

namespace uclust::io {

struct RecordView;

/// Four row-major moment columns (mean, mu2, var: rows x m; total_var: one
/// value per row) that decoded rows are packed into.
struct MomentColumns {
  std::vector<double> mean, mu2, var, total_var;

  /// Sizes every column for `rows` rows of `m` dimensions.
  void Resize(std::size_t rows, std::size_t m) {
    mean.resize(rows * m);
    mu2.resize(rows * m);
    var.resize(rows * m);
    total_var.resize(rows);
  }
};

/// Reads one dataset file. Usage: Open(), then ReadBatch() or
/// ReadMomentRows() until remaining() is 0 (and optionally ReadLabels() at
/// any point after Open()).
class BinaryDatasetReader {
 public:
  BinaryDatasetReader() = default;
  ~BinaryDatasetReader();

  BinaryDatasetReader(const BinaryDatasetReader&) = delete;
  BinaryDatasetReader& operator=(const BinaryDatasetReader&) = delete;

  /// Opens `path` and validates the header. Rejects foreign-endian files,
  /// versions newer than kFormatVersion, and malformed headers.
  common::Status Open(const std::string& path);

  /// Number of objects in the file.
  std::size_t size() const { return n_; }
  /// Dimensionality of every object.
  std::size_t dims() const { return dims_; }
  /// Dataset name stored in the file.
  const std::string& name() const { return name_; }
  /// Number of reference classes (0 when unlabeled).
  int num_classes() const { return num_classes_; }
  /// True when the file carries a labels column.
  bool has_labels() const { return has_labels_; }
  /// Objects not yet consumed.
  std::size_t remaining() const { return n_ - cursor_; }
  /// Physical byte size of the open file — recorded into derived .umom
  /// moment sidecars as a cheap staleness guard for reuse.
  uint64_t file_bytes() const { return file_size_; }

  /// Deserializes the next min(max, remaining()) objects into `*out`
  /// (cleared first; empty at end of stream). `max` must be > 0.
  common::Status ReadBatch(std::size_t max,
                           std::vector<uncertain::UncertainObject>* out);

  /// Decodes the moments of the next min(max, remaining()) objects into
  /// rows [row, row + count) of `out` (which must hold them), packing rows
  /// in parallel over `eng`; returns count. `max` must be > 0.
  common::Result<std::size_t> ReadMomentRows(std::size_t max,
                                             const engine::Engine& eng,
                                             MomentColumns* out,
                                             std::size_t row);

  /// Skips the next `count` objects by their length prefixes, without
  /// reading their payloads.
  common::Status SkipRecords(std::size_t count);

  /// Reads the labels column (empty when the file is unlabeled). Seeks to
  /// the column and back, so batch streaming is unaffected.
  common::Status ReadLabels(std::vector<int>* labels);

 private:
  friend common::Result<data::UncertainDataset> ReadUncertainDataset(
      const std::string& path);

  common::Status Corrupt(const std::string& msg) const;
  // Copies the rest of the file into one page-backed snapshot (see
  // ReadFileRegion), checks every remaining record, and decodes their
  // moments into `*moments` (resized); record i starts at (*starts)[i].
  common::Status ReadSnapshot(MappedRegion* snapshot,
                              std::vector<std::size_t>* starts,
                              MomentColumns* moments);
  // Reads the next min(max, remaining()) records into batch_bytes_ /
  // batch_starts_.
  common::Status ReadRecords(std::size_t max);
  // Checks an untrusted length prefix against the bytes left in the file.
  common::Status CheckPayload(uint32_t payload) const;
  // Decodes every record of `records` (object first_object onward) into
  // rows [row, ...) of `out`, in parallel over `eng`.
  common::Status DecodeMomentRows(const RecordView& records,
                                  std::size_t first_object,
                                  const engine::Engine& eng,
                                  MomentColumns* out, std::size_t row) const;

  std::FILE* file_ = nullptr;
  std::string path_;
  std::string name_;
  std::size_t n_ = 0;
  std::size_t dims_ = 0;
  int num_classes_ = 0;
  bool has_labels_ = false;
  uint64_t labels_offset_ = 0;
  uint64_t file_size_ = 0;  // bounds-checks untrusted header/record sizes
  uint64_t offset_ = 0;     // file offset of the next record
  std::size_t cursor_ = 0;  // objects consumed so far
  // The current batch's records as stored, reused across batches.
  std::vector<unsigned char> batch_bytes_;
  std::vector<std::size_t> batch_starts_;
};

/// Reads the whole file into an UncertainDataset (labels included) whose
/// moments are decoded at once and whose pdf objects are built from a
/// page-backed snapshot of the record bytes on first use. Every record is
/// validated here, so a corrupt file fails this call, never a later one.
common::Result<data::UncertainDataset> ReadUncertainDataset(
    const std::string& path);

}  // namespace uclust::io

#endif  // UCLUST_IO_DATASET_READER_H_
