// Sensor/moving-object scenario (the paper's introductory motivation):
// readings are imprecise, and positions are stale by the time they are
// processed. Raw (perturbed) readings are clustered with plain K-means-like
// processing, then the same data is clustered *with* its uncertainty model;
// the uncertainty-aware clustering recovers the true deployment groups more
// faithfully.
//
//   $ ./sensor_tracking [--sensors=400] [--groups=5] [--noise=0.15]
#include <cstdio>

#include "clustering/ucpc.h"
#include "clustering/ukmeans.h"
#include "common/cli.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "eval/external.h"

int main(int argc, char** argv) {
  const uclust::common::ArgParser args(argc, argv);
  const std::size_t sensors =
      static_cast<std::size_t>(args.GetInt("sensors", 400));
  const int groups = static_cast<int>(args.GetInt("groups", 5));
  // Default noise where uncertainty-awareness visibly pays off (raw noisy
  // snapshots stop being clusterable around 1/3 of the field size).
  const double noise = args.GetDouble("noise", 0.35);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 7));
  const int runs = static_cast<int>(args.GetInt("runs", 10));
  args.RejectUnknownFlags();

  // True deployment: `groups` spatial clusters of sensors in the unit square.
  uclust::data::MixtureParams mix;
  mix.n = sensors;
  mix.dims = 2;
  mix.classes = groups;
  mix.sigma_min = 0.02;
  mix.sigma_max = 0.05;
  const uclust::data::DeterministicDataset truth =
      uclust::data::MakeGaussianMixture(mix, seed, "deployment");

  // Each reported position carries Normal measurement noise whose magnitude
  // varies per sensor (signal quality, staleness, ...).
  uclust::data::UncertaintyParams up;
  up.family = uclust::data::PdfFamily::kNormal;
  up.min_scale_frac = noise / 3.0;
  up.max_scale_frac = noise;
  const uclust::data::UncertaintyModel model(truth, up, seed + 1);

  // Pipeline A (uncertainty-oblivious): cluster noisy snapshots as if they
  // were exact. Pipeline B (uncertainty-aware): cluster the uncertain
  // objects with UCPC. Both averaged over several runs — initialization and
  // snapshot noise are random, exactly like the paper's protocol.
  const uclust::data::UncertainDataset uncertain = model.Uncertain();
  const uclust::clustering::Ukmeans ukm;
  const uclust::clustering::Ucpc ucpc;
  double f_oblivious = 0.0;
  double f_aware = 0.0;
  double aware_ms = 0.0;
  for (int r = 0; r < runs; ++r) {
    const uclust::data::DeterministicDataset snapshot =
        model.Perturbed(seed + 100 + r);
    const auto snapshot_ds =
        uclust::data::UncertainDataset::FromDeterministic(snapshot);
    f_oblivious += uclust::eval::FMeasure(
        truth.labels, ukm.Cluster(snapshot_ds, groups, seed + r).labels);
    const auto aware = ucpc.Cluster(uncertain, groups, seed + r);
    f_aware += uclust::eval::FMeasure(truth.labels, aware.labels);
    aware_ms += aware.online_ms;
  }
  f_oblivious /= runs;
  f_aware /= runs;

  std::printf("sensor_tracking: %zu sensors, %d groups, noise up to %.0f%% "
              "of the field, %d runs\n",
              sensors, groups, noise * 100.0, runs);
  std::printf("  K-means on noisy snapshots    : F = %.3f\n", f_oblivious);
  std::printf("  UCPC on the uncertainty model : F = %.3f\n", f_aware);
  std::printf("  Theta (aware - oblivious)     : %+.3f\n",
              f_aware - f_oblivious);
  std::printf("  UCPC online time              : %.2f ms/run\n",
              aware_ms / runs);
  return 0;
}
