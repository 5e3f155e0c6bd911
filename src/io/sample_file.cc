#include "io/sample_file.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "engine/parallel_for.h"
#include "io/dataset_reader.h"

namespace uclust::io {

common::Result<std::unique_ptr<MappedSampleStore>> MappedSampleStore::Open(
    const std::string& path) {
  auto sidecar = MappedSidecar::Open(kSampleSidecar, path);
  if (!sidecar.ok()) return sidecar.status();
  return std::make_unique<MappedSampleStore>(std::move(sidecar).ValueOrDie());
}

common::Status WriteSampleFile(const uncertain::SampleView& view,
                               const std::string& path, uint64_t seed,
                               std::size_t chunk_rows, uint64_t source_size) {
  if (view.size() > 0 && view.dims() == 0) {
    return common::Status::InvalidArgument(
        "cannot persist a zero-dimensional sample view");
  }
  SidecarHeader header;
  header.m = std::max<std::size_t>(view.dims(), 1);
  header.samples =
      static_cast<std::size_t>(std::max(view.samples_per_object(), 1));
  header.chunk_rows = chunk_rows;
  header.seed = seed;
  header.source_size = source_size;
  SidecarWriter writer;
  UCLUST_RETURN_NOT_OK(writer.Open(kSampleSidecar, path, header));
  for (std::size_t i = 0; i < view.size(); ++i) {
    const double* row = view.ObjectSamples(i).data();
    UCLUST_RETURN_NOT_OK(writer.AppendRows(1, &row));
  }
  return writer.Finish();
}

namespace {

// Draws the rows of `batch` (absolute object indices from `base`, so the
// bytes are independent of the batch partition and identical to the
// Resident backend's draws) and appends them to `writer`.
common::Status AppendSampleRows(
    std::span<const uncertain::UncertainObject> batch, std::size_t base,
    int samples_per_object, uint64_t seed, const engine::Engine& eng,
    std::vector<double>* scratch, SidecarWriter* writer) {
  const std::size_t row =
      static_cast<std::size_t>(samples_per_object) * writer->dims();
  scratch->resize(batch.size() * row);
  engine::ParallelFor(eng, batch.size(), [&](const engine::BlockedRange& r) {
    for (std::size_t i = r.begin; i < r.end; ++i) {
      uncertain::DrawObjectSamples(
          batch[i], seed, base + i, samples_per_object,
          std::span<double>(scratch->data() + i * row, row));
    }
  });
  const double* rows = scratch->data();
  return writer->AppendRows(batch.size(), &rows);
}

// Writes the .usmp sidecar of the dataset file `dataset_path` straight to
// `sidecar_path`, one reader batch at a time.
common::Status WriteSampleSidecar(const std::string& dataset_path,
                                  const std::string& sidecar_path,
                                  int samples_per_object, uint64_t seed,
                                  const engine::Engine& eng,
                                  std::size_t chunk_rows,
                                  std::size_t batch_size) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(dataset_path));
  SidecarHeader header;
  header.m = reader.dims();
  header.samples = static_cast<std::size_t>(samples_per_object);
  header.chunk_rows = chunk_rows;
  header.seed = seed;
  UCLUST_RETURN_NOT_OK(StampSource(dataset_path, &header));
  SidecarWriter writer;
  UCLUST_RETURN_NOT_OK(writer.Open(kSampleSidecar, sidecar_path, header));
  std::vector<uncertain::UncertainObject> batch;
  std::vector<double> scratch;
  while (reader.remaining() > 0) {
    UCLUST_RETURN_NOT_OK(reader.ReadBatch(batch_size, &batch));
    if (batch.empty()) break;
    UCLUST_RETURN_NOT_OK(AppendSampleRows(batch, writer.written(),
                                          samples_per_object, seed, eng,
                                          &scratch, &writer));
  }
  if (writer.written() != reader.size()) {
    return common::Status::Internal(
        dataset_path + ": sampled " + std::to_string(writer.written()) +
        " of " + std::to_string(reader.size()) + " objects");
  }
  return writer.Finish();
}

}  // namespace

common::Status BuildSampleSidecar(const std::string& dataset_path,
                                  const std::string& sidecar_path,
                                  int samples_per_object, uint64_t seed,
                                  const engine::Engine& eng,
                                  std::size_t chunk_rows,
                                  std::size_t batch_size) {
  if (samples_per_object <= 0) {
    return common::Status::InvalidArgument("samples_per_object must be > 0");
  }
  if (batch_size == 0) {
    return common::Status::InvalidArgument("batch_size must be > 0");
  }
  return CommitSidecar(sidecar_path, [&](const std::string& tmp) {
    return WriteSampleSidecar(dataset_path, tmp, samples_per_object, seed,
                              eng, chunk_rows, batch_size);
  });
}

std::string DefaultSampleSidecarPath(const std::string& dataset_path,
                                     int samples_per_object, uint64_t seed) {
  char suffix[64];
  std::snprintf(suffix, sizeof(suffix), ".s%d-%016llx.usmp",
                samples_per_object,
                static_cast<unsigned long long>(seed));
  return dataset_path + suffix;
}

common::Result<uncertain::SampleStorePtr> MakeSampleStore(
    const data::UncertainDataset& data, int samples_per_object, uint64_t seed,
    const engine::Engine& eng, const SampleStoreOptions& options) {
  if (samples_per_object <= 0) {
    return common::Status::InvalidArgument("samples_per_object must be > 0");
  }
  SidecarHeader want;
  want.n = data.size();
  want.m = data.dims();
  want.samples = static_cast<std::size_t>(samples_per_object);
  want.seed = seed;
  const std::size_t row_bytes =
      SidecarRowBytes(kSampleSidecar, want.m, want.samples);
  if (want.n == 0 ||
      !UseMappedBackend(options.backend, eng, want.n * row_bytes)) {
    return uncertain::SampleStorePtr(new uncertain::ResidentSampleStore(
        data.objects(), samples_per_object, seed, eng));
  }
  if (options.batch_size == 0) {
    return common::Status::InvalidArgument("batch_size must be > 0");
  }

  // Sidecar location: an explicit option wins, then the dataset's annotated
  // sidecar (service registry), then a param-encoded sibling of the source
  // file, then a self-deleting temp spill (in-memory dataset, nothing
  // durable to key a reusable file off).
  const std::string& source = data.source_path();
  std::string sidecar = options.sidecar_path;
  if (sidecar.empty() && !data.samples_sidecar_path().empty()) {
    // The annotated sidecar is one pinned artifact drawn with one (S, seed);
    // every sampled algorithm carries a distinct default seed, so honoring
    // the pin for a mismatched request would rebuild-overwrite the shared
    // file on every alternating job — exactly the churn the param-encoded
    // default path exists to avoid. Use the pin only when its draw
    // parameters match the request.
    auto pinned = ReadSidecarHeader(kSampleSidecar, data.samples_sidecar_path());
    if (pinned.ok() && pinned.ValueOrDie().samples == want.samples &&
        pinned.ValueOrDie().seed == seed) {
      sidecar = data.samples_sidecar_path();
    }
  }
  if (sidecar.empty() && !source.empty()) {
    sidecar = DefaultSampleSidecarPath(source, samples_per_object, seed);
  }
  if (!source.empty()) UCLUST_RETURN_NOT_OK(StampSource(source, &want));
  want.chunk_rows = options.chunk_rows != 0 ? options.chunk_rows
                                            : eng.sample_chunk_rows();

  auto opened = OpenOrRebuildSidecar(
      kSampleSidecar, sidecar, want, eng, options.reuse_sidecar,
      [&](const std::string& out, std::size_t chunk_rows) -> common::Status {
        if (!source.empty()) {
          return WriteSampleSidecar(source, out, samples_per_object, seed,
                                    eng, chunk_rows, options.batch_size);
        }
        // In-memory dataset: draw straight from the resident objects
        // (standalone, so the source guard stays zero).
        SidecarHeader header = want;
        header.chunk_rows = chunk_rows;
        SidecarWriter writer;
        UCLUST_RETURN_NOT_OK(writer.Open(kSampleSidecar, out, header));
        const std::span<const uncertain::UncertainObject> objects =
            data.objects();
        std::vector<double> scratch;
        for (std::size_t base = 0; base < objects.size();
             base += options.batch_size) {
          UCLUST_RETURN_NOT_OK(AppendSampleRows(
              objects.subspan(base, std::min(options.batch_size,
                                             objects.size() - base)),
              base, samples_per_object, seed, eng, &scratch, &writer));
        }
        return writer.Finish();
      });
  if (!opened.ok()) return opened.status();
  return uncertain::SampleStorePtr(
      new MappedSampleStore(std::move(opened).ValueOrDie()));
}

uncertain::SampleStorePtr MakeSampleStoreOrResident(
    const data::UncertainDataset& data, int samples_per_object, uint64_t seed,
    const engine::Engine& eng) {
  auto store = MakeSampleStore(data, samples_per_object, seed, eng);
  if (store.ok()) return std::move(store).ValueOrDie();
  std::fprintf(stderr,
               "sample store: %s; falling back to the resident backend\n",
               store.status().ToString().c_str());
  return uncertain::SampleStorePtr(new uncertain::ResidentSampleStore(
      data.objects(), samples_per_object, seed, eng));
}

}  // namespace uclust::io
