#include "io/ingest.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "io/moment_file.h"

namespace uclust::io {

namespace {

// Decodes every object of the opened `reader` into resident moment columns,
// then reads the labels and name the caller asked for.
common::Result<uncertain::MomentMatrix> BuildResidentMoments(
    BinaryDatasetReader* reader, const engine::Engine& eng,
    std::size_t batch_size, std::vector<int>* labels,
    std::string* dataset_name) {
  const std::size_t n = reader->size();
  const std::size_t m = reader->dims();
  // n and m are validated against the file size on Open.
  MomentColumns cols;
  cols.Resize(n, m);
  for (std::size_t row = 0; row < n;) {
    auto got = reader->ReadMomentRows(batch_size, eng, &cols, row);
    if (!got.ok()) return got.status();
    row += got.ValueOrDie();
  }
  if (labels != nullptr) UCLUST_RETURN_NOT_OK(reader->ReadLabels(labels));
  if (dataset_name != nullptr) *dataset_name = reader->name();
  return uncertain::MomentMatrix::FromColumns(
      n, m, std::move(cols.mean), std::move(cols.mu2), std::move(cols.var),
      std::move(cols.total_var));
}

// Writes the .umom sidecar of `dataset_path` straight to `sidecar_path`,
// one batch of decoded moment rows at a time.
common::Status WriteMomentSidecar(const std::string& dataset_path,
                                  const std::string& sidecar_path,
                                  const engine::Engine& eng,
                                  std::size_t chunk_rows,
                                  std::size_t batch_size) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(dataset_path));
  SidecarHeader header;
  header.m = reader.dims();
  header.chunk_rows = chunk_rows;
  UCLUST_RETURN_NOT_OK(StampSource(dataset_path, &header));
  SidecarWriter writer;
  UCLUST_RETURN_NOT_OK(writer.Open(kMomentSidecar, sidecar_path, header));
  MomentColumns cols;
  while (reader.remaining() > 0) {
    cols.Resize(std::min(batch_size, reader.remaining()), reader.dims());
    auto got = reader.ReadMomentRows(batch_size, eng, &cols, 0);
    if (!got.ok()) return got.status();
    const double* columns[] = {cols.mean.data(), cols.mu2.data(),
                               cols.var.data(), cols.total_var.data()};
    UCLUST_RETURN_NOT_OK(writer.AppendRows(got.ValueOrDie(), columns));
  }
  return writer.Finish();
}

}  // namespace

common::Result<uncertain::MomentMatrix> StreamMomentsFromFile(
    const std::string& path, const engine::Engine& eng,
    std::size_t batch_size, std::vector<int>* labels,
    std::string* dataset_name) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));
  return BuildResidentMoments(&reader, eng, batch_size, labels,
                              dataset_name);
}

common::Status BuildMomentSidecar(const std::string& dataset_path,
                                  const std::string& sidecar_path,
                                  const engine::Engine& eng,
                                  std::size_t chunk_rows,
                                  std::size_t batch_size) {
  return CommitSidecar(sidecar_path, [&](const std::string& tmp) {
    return WriteMomentSidecar(dataset_path, tmp, eng, chunk_rows, batch_size);
  });
}

common::Status MomentBatchStream::Open(const std::string& path) {
  path_ = path;
  reader_ = std::make_unique<BinaryDatasetReader>();
  UCLUST_RETURN_NOT_OK(reader_->Open(path));
  n_ = reader_->size();
  m_ = reader_->dims();
  name_ = reader_->name();
  base_index_ = 0;
  next_index_ = 0;
  batch_rows_ = 0;
  return common::Status::Ok();
}

common::Status MomentBatchStream::Rewind() {
  // The binary format is strictly forward-only; restarting means reopening
  // the record cursor on a fresh reader (the header re-validates for free).
  reader_ = std::make_unique<BinaryDatasetReader>();
  UCLUST_RETURN_NOT_OK(reader_->Open(path_));
  if (reader_->size() != n_ || reader_->dims() != m_) {
    return common::Status::Internal(
        path_ + ": dataset changed shape between streaming passes");
  }
  base_index_ = 0;
  next_index_ = 0;
  batch_rows_ = 0;
  return common::Status::Ok();
}

common::Result<std::size_t> MomentBatchStream::NextBatch(
    std::size_t max_rows) {
  if (reader_ == nullptr) return common::Status::Internal("stream not open");
  base_index_ = next_index_;
  batch_rows_ = 0;
  if (reader_->remaining() == 0) return std::size_t{0};
  cols_.Resize(std::min(max_rows, reader_->remaining()), m_);
  auto got = reader_->ReadMomentRows(max_rows, engine_, &cols_, 0);
  if (!got.ok()) return got.status();
  batch_rows_ = got.ValueOrDie();
  next_index_ = base_index_ + batch_rows_;
  return batch_rows_;
}

common::Status MomentBatchStream::ReadMeanAt(std::size_t index,
                                             std::span<double> out) const {
  if (index >= n_ || out.size() != m_) {
    return common::Status::InvalidArgument(
        path_ + ": ReadMeanAt index/shape out of range");
  }
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path_));
  UCLUST_RETURN_NOT_OK(reader.SkipRecords(index));
  MomentColumns row;
  row.Resize(1, m_);
  auto got = reader.ReadMomentRows(1, engine::Engine::Serial(), &row, 0);
  if (!got.ok()) return got.status();
  std::copy(row.mean.begin(), row.mean.end(), out.begin());
  return common::Status::Ok();
}

common::Status MomentBatchStream::ReadLabels(std::vector<int>* labels) {
  if (reader_ == nullptr) return common::Status::Internal("stream not open");
  return reader_->ReadLabels(labels);
}

common::Result<uncertain::MomentStorePtr> StreamMomentStoreFromFile(
    const std::string& path, const engine::Engine& eng,
    const MomentStoreOptions& options, std::vector<int>* labels,
    std::string* dataset_name) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));
  const std::size_t n = reader.size();
  const std::size_t m = reader.dims();

  // The header gives n and m before ingestion, so the backend decision
  // never requires materializing anything.
  const std::size_t row_bytes = SidecarRowBytes(kMomentSidecar, m, 1);
  if (!UseMappedBackend(options.backend, eng, n * row_bytes)) {
    auto mm = BuildResidentMoments(&reader, eng, options.batch_size, labels,
                                   dataset_name);
    if (!mm.ok()) return mm.status();
    return uncertain::MomentStorePtr(
        new uncertain::ResidentMomentStore(std::move(mm).ValueOrDie()));
  }

  SidecarHeader want;
  want.n = n;
  want.m = m;
  want.chunk_rows = options.chunk_rows != 0 ? options.chunk_rows
                                            : eng.moment_chunk_rows();
  UCLUST_RETURN_NOT_OK(StampSource(path, &want));
  auto sidecar = OpenOrRebuildSidecar(
      kMomentSidecar,
      options.sidecar_path.empty() ? path + kMomentSidecar.extension
                                   : options.sidecar_path,
      want, eng, options.reuse_sidecar,
      [&](const std::string& out, std::size_t chunk_rows) {
        return WriteMomentSidecar(path, out, eng, chunk_rows,
                                  options.batch_size);
      });
  if (!sidecar.ok()) return sidecar.status();
  if (labels != nullptr) UCLUST_RETURN_NOT_OK(reader.ReadLabels(labels));
  if (dataset_name != nullptr) *dataset_name = reader.name();
  return uncertain::MomentStorePtr(
      new MappedMomentStore(std::move(sidecar).ValueOrDie()));
}

}  // namespace uclust::io
