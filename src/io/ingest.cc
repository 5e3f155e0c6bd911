#include "io/ingest.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "engine/parallel_for.h"
#include "io/moment_file.h"

namespace uclust::io {

std::span<const uncertain::UncertainObject> FileObjectSource::NextBatch(
    std::size_t max) {
  if (!status_.ok() || reader_->remaining() == 0) return {};
  status_ = reader_->ReadBatch(max, &batch_);
  if (!status_.ok()) return {};
  return batch_;
}

namespace {

// Streams every object of the opened `reader` into resident moment columns,
// then reads the labels and name the caller asked for.
common::Result<uncertain::MomentMatrix> BuildResidentMoments(
    BinaryDatasetReader* reader, const std::string& path,
    const engine::Engine& eng, std::size_t batch_size,
    std::vector<int>* labels, std::string* dataset_name) {
  FileObjectSource source(reader);
  uncertain::MomentMatrix mm =
      uncertain::DatasetBuilder::BuildMoments(&source, eng, batch_size);
  UCLUST_RETURN_NOT_OK(source.status());
  if (mm.size() != reader->size()) {
    return common::Status::Internal(
        path + ": ingested " + std::to_string(mm.size()) + " of " +
        std::to_string(reader->size()) + " objects");
  }
  if (labels != nullptr) UCLUST_RETURN_NOT_OK(reader->ReadLabels(labels));
  if (dataset_name != nullptr) *dataset_name = reader->name();
  return mm;
}

// Writes the .umom sidecar of `dataset_path` straight to `sidecar_path`:
// reader batches -> DatasetBuilder spill mode -> SidecarWriter.
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
  MomentSidecarSink sink(&writer);
  FileObjectSource source(&reader);
  uncertain::DatasetBuilder builder(eng, &sink);
  builder.Consume(&source, batch_size);
  UCLUST_RETURN_NOT_OK(source.status());
  UCLUST_RETURN_NOT_OK(builder.status());
  if (builder.size() != reader.size()) {
    return common::Status::Internal(
        dataset_path + ": ingested " + std::to_string(builder.size()) +
        " of " + std::to_string(reader.size()) + " objects");
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
  return BuildResidentMoments(&reader, path, eng, batch_size, labels,
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
  UCLUST_RETURN_NOT_OK(reader_->ReadBatch(max_rows, &objects_));
  batch_rows_ = objects_.size();
  next_index_ = base_index_ + batch_rows_;
  mean_.resize(batch_rows_ * m_);
  mu2_.resize(batch_rows_ * m_);
  var_.resize(batch_rows_ * m_);
  total_var_.resize(batch_rows_);
  engine::ParallelFor(engine_, batch_rows_,
                      [&](const engine::BlockedRange& r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      const uncertain::UncertainObject& o = objects_[i];
      const std::size_t row = i * m_;
      uncertain::MomentMatrix::PackRow(o.mean(), o.second_moment(),
                                       o.variance(), mean_.data() + row,
                                       mu2_.data() + row, var_.data() + row,
                                       total_var_.data() + i);
    }
  });
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
  std::vector<uncertain::UncertainObject> batch;
  std::size_t skipped = 0;
  // Forward-skip in whole batches; only the batch holding `index` matters.
  constexpr std::size_t kSkipBatch = 1024;
  while (skipped + kSkipBatch <= index) {
    UCLUST_RETURN_NOT_OK(reader.ReadBatch(kSkipBatch, &batch));
    skipped += batch.size();
  }
  UCLUST_RETURN_NOT_OK(reader.ReadBatch(index - skipped + 1, &batch));
  if (skipped + batch.size() != index + 1) {
    return common::Status::Internal(path_ + ": short read in ReadMeanAt");
  }
  const auto mean = batch.back().mean();
  std::copy(mean.begin(), mean.end(), out.begin());
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
    auto mm = BuildResidentMoments(&reader, path, eng, options.batch_size,
                                   labels, dataset_name);
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
