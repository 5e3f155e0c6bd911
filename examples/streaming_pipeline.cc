// Streaming pipeline: write an uncertain dataset to the binary format,
// stream it back into moment statistics in bounded memory, and cluster.
//
//   $ ./streaming_pipeline [--path=/tmp/demo.ubin]
//
// Walks through the dataset I/O layer added for large-n workloads:
//   1. BinaryDatasetWriter — serialize objects one at a time (O(m) memory),
//   2. StreamMomentsFromFile — BinaryDatasetReader batches decoded straight
//      into moment rows, so no pdf object is ever built,
//   3. UK-means / UCPC on the streamed MomentMatrix via RunOnMoments,
//   4. the bit-identity guarantee: streamed moments equal the classic
//      in-memory path exactly, for any batch size and thread count.
#include <cstdio>
#include <vector>

#include "clustering/ucpc.h"
#include "clustering/ukmeans.h"
#include "common/cli.h"
#include "common/rng.h"
#include "data/dataset.h"
#include "io/dataset_writer.h"
#include "io/ingest.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/uniform_pdf.h"

int main(int argc, char** argv) {
  using namespace uclust;  // NOLINT: example brevity
  const common::ArgParser args(argc, argv);
  const std::string path = args.GetString("path", "/tmp/uclust_demo.ubin");
  args.RejectUnknownFlags();

  // 1. Generate two noisy groups and serialize them object by object. A
  // real producer (tools/dataset_gen.cc) never holds more than one object.
  io::BinaryDatasetWriter writer;
  common::Status st = writer.Open(path, /*dims=*/2, "demo", /*num_classes=*/2,
                                  /*with_labels=*/true);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  common::Rng rng(7);
  std::vector<uncertain::UncertainObject> kept;  // for the bit-identity demo
  for (int i = 0; i < 200; ++i) {
    const int group = i % 2;
    const double cx = group == 0 ? 0.0 : 5.0;
    std::vector<uncertain::PdfPtr> dims;
    for (int j = 0; j < 2; ++j) {
      const double center = cx + rng.Normal(0.0, 0.3);
      dims.push_back(group == 0
                         ? uncertain::TruncatedNormalPdf::Make(center, 0.25)
                         : uncertain::UniformPdf::Centered(center, 0.4));
    }
    uncertain::UncertainObject object(std::move(dims));
    st = writer.Append(object, group);
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    kept.push_back(std::move(object));
  }
  st = writer.Finish();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu objects to %s\n", writer.written(), path.c_str());

  // 2. Stream the file back: batches of 32 objects feed the builder; the
  // full pdf set is never resident at once.
  std::vector<int> labels;
  auto streamed = io::StreamMomentsFromFile(path, engine::Engine::Serial(),
                                            /*batch_size=*/32, &labels);
  if (!streamed.ok()) {
    std::fprintf(stderr, "%s\n", streamed.status().ToString().c_str());
    return 1;
  }
  const uncertain::MomentMatrix mm = std::move(streamed).ValueOrDie();
  std::printf("streamed n=%zu m=%zu (batch size 32)\n", mm.size(), mm.dims());

  // 3. The fast algorithms consume the matrix directly.
  const auto ukm = clustering::Ukmeans::RunOnMoments(mm, /*k=*/2, /*seed=*/42);
  const auto ucpc = clustering::Ucpc::RunOnMoments(mm, /*k=*/2, /*seed=*/42);
  std::printf("UK-means: objective=%.4f iterations=%d\n", ukm.objective,
              ukm.iterations);
  std::printf("UCPC:     objective=%.4f passes=%d\n", ucpc.objective,
              ucpc.passes);

  // 4. Streamed ingestion is bit-identical to the in-memory path.
  const data::UncertainDataset in_memory("demo", std::move(kept),
                                         std::move(labels), 2);
  const uncertain::MomentMatrix& reference = in_memory.moments();
  bool identical = reference.size() == mm.size();
  for (std::size_t i = 0; identical && i < mm.size(); ++i) {
    for (std::size_t j = 0; j < mm.dims(); ++j) {
      identical = identical && reference.mean(i)[j] == mm.mean(i)[j] &&
                  reference.second_moment(i)[j] == mm.second_moment(i)[j] &&
                  reference.variance(i)[j] == mm.variance(i)[j];
    }
  }
  std::printf("streamed == in-memory moments: %s\n",
              identical ? "bit-identical" : "MISMATCH!");
  std::remove(path.c_str());
  return identical ? 0 : 1;
}
