#include "io/moment_file.h"

#include <algorithm>
#include <vector>

namespace uclust::io {

common::Status MomentSidecarSink::AppendRows(std::size_t count,
                                             std::size_t m,
                                             const double* mean,
                                             const double* mu2,
                                             const double* var,
                                             const double* total_var) {
  if (m != writer_->dims()) {
    return common::Status::InvalidArgument(
        "moment rows have " + std::to_string(m) + " dims, file has " +
        std::to_string(writer_->dims()));
  }
  const double* columns[] = {mean, mu2, var, total_var};
  return writer_->AppendRows(count, columns);
}

common::Result<std::unique_ptr<MappedMomentStore>> MappedMomentStore::Open(
    const std::string& path) {
  auto sidecar = MappedSidecar::Open(kMomentSidecar, path);
  if (!sidecar.ok()) return sidecar.status();
  return std::make_unique<MappedMomentStore>(std::move(sidecar).ValueOrDie());
}

common::Status WriteMomentFile(const uncertain::MomentView& view,
                               const std::string& path,
                               std::size_t chunk_rows, uint64_t source_size) {
  if (view.size() > 0 && view.dims() == 0) {
    return common::Status::InvalidArgument(
        "cannot persist a zero-dimensional moment view");
  }
  SidecarHeader header;
  header.m = std::max<std::size_t>(view.dims(), 1);
  header.chunk_rows = chunk_rows;
  header.source_size = source_size;
  SidecarWriter writer;
  UCLUST_RETURN_NOT_OK(writer.Open(kMomentSidecar, path, header));
  MomentSidecarSink sink(&writer);
  if (!view.chunked() && view.size() > 0) {
    // Flat views are contiguous: one bulk append (the scalar total-variance
    // column is re-gathered because the view exposes it element-wise).
    std::vector<double> tv(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      tv[i] = view.total_variance(i);
    }
    UCLUST_RETURN_NOT_OK(sink.AppendRows(
        view.size(), view.dims(), view.mean(0).data(),
        view.second_moment(0).data(), view.variance(0).data(), tv.data()));
  } else {
    for (std::size_t i = 0; i < view.size(); ++i) {
      const double tv = view.total_variance(i);
      UCLUST_RETURN_NOT_OK(sink.AppendRows(
          1, view.dims(), view.mean(i).data(), view.second_moment(i).data(),
          view.variance(i).data(), &tv));
    }
  }
  return writer.Finish();
}

}  // namespace uclust::io
