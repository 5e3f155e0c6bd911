#include "io/moment_file.h"

#include <algorithm>
#include <vector>

namespace uclust::io {

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
  if (!view.chunked() && view.size() > 0) {
    // Flat views are contiguous: one bulk append (the scalar total-variance
    // column is re-gathered because the view exposes it element-wise).
    std::vector<double> tv(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) {
      tv[i] = view.total_variance(i);
    }
    const double* columns[] = {view.mean(0).data(),
                               view.second_moment(0).data(),
                               view.variance(0).data(), tv.data()};
    UCLUST_RETURN_NOT_OK(writer.AppendRows(view.size(), columns));
  } else {
    for (std::size_t i = 0; i < view.size(); ++i) {
      const double tv = view.total_variance(i);
      const double* columns[] = {view.mean(i).data(),
                                 view.second_moment(i).data(),
                                 view.variance(i).data(), &tv};
      UCLUST_RETURN_NOT_OK(writer.AppendRows(1, columns));
    }
  }
  return writer.Finish();
}

}  // namespace uclust::io
