// Microbench for the SIMD kernel layer (src/clustering/simd/): per-ISA
// throughput of the four hot inner loops — the closed-form ED^ tile
// accumulation, the moment-column packing, the CK-means reduced-moment
// nearest-two center sweep, and the UCPC/MMVar center-major distance sweep
// — plus a runtime cross-check that every compiled
// vector path reproduces the scalar reference bit for bit on this machine's
// actual hardware.
//
// Output:
//   - a human-readable table (evals/s, GB/s, speedup vs forced scalar),
//   - `DISPATCH best=<isa>` — what auto dispatch resolves to here,
//   - `KERNEL RESULT=OK|FAIL` — greppable smoke marker: OK iff every
//     available vector path's tile outputs match the scalar reference
//     bitwise (the bit-exactness contract, checked at runtime, on real
//     inputs, with remainder lanes),
//   - BENCH_kernel_throughput.json with everything above per ISA.
//
// Flags:
//   --m=D           dimensions per object             (default 64)
//   --tile_rows=R   rows per ED^ tile                 (default 64)
//   --n=N           objects (tile columns / sweep points) (default 2048)
//   --k=K           centers for both center sweeps    (default 16)
//   --min_ms=T      min measured wall ms per kernel   (default 200)
//   --seed=S        input generator seed              (default 1)
//   --json_out=PATH JSON path (default BENCH_kernel_throughput.json)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"
#include "bench_util.h"
#include "clustering/simd/simd.h"
#include "common/cli.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity
namespace simd = clustering::simd;

// Defeats dead-code elimination of the timed loops without perturbing them:
// every measured repetition folds its result into this sink.
double g_sink = 0.0;

struct Inputs {
  std::size_t m = 0;
  std::size_t tile_rows = 0;
  std::size_t n = 0;
  int k = 0;
  std::vector<double> means;      // n x m
  std::vector<double> mu2;        // n x m
  std::vector<double> var;        // n x m
  std::vector<double> total_var;  // n
  std::vector<double> centroids;  // k x m
  std::vector<double> centers_cm;  // the same centers, m x k (center-major)
};

Inputs MakeInputs(std::size_t m, std::size_t tile_rows, std::size_t n, int k,
                  uint64_t seed) {
  Inputs in;
  in.m = m;
  in.tile_rows = tile_rows;
  in.n = n;
  in.k = k;
  common::Rng rng(seed);
  in.means.resize(n * m);
  in.mu2.resize(n * m);
  in.var.resize(n * m);
  in.total_var.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double tv = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const double mean = rng.Uniform(-10.0, 10.0);
      const double variance = rng.Uniform(0.0, 4.0);
      in.means[i * m + j] = mean;
      in.var[i * m + j] = variance;
      in.mu2[i * m + j] = variance + mean * mean;
      tv += variance;
    }
    in.total_var[i] = tv;
  }
  in.centroids.resize(static_cast<std::size_t>(k) * m);
  for (double& c : in.centroids) c = rng.Uniform(-10.0, 10.0);
  in.centers_cm.resize(in.centroids.size());
  for (int c = 0; c < k; ++c) {
    for (std::size_t j = 0; j < m; ++j) {
      in.centers_cm[j * k + c] = in.centroids[c * m + j];
    }
  }
  return in;
}

// One ED^ tile pass in FillRowTile's shape: rows x n closed-form kernel
// evaluations through the table's ed2. Returns the number of evaluations.
std::size_t Ed2Tile(const simd::KernelTable& t, const Inputs& in,
                    std::vector<double>* out) {
  const std::size_t m = in.m;
  std::size_t evals = 0;
  for (std::size_t r = 0; r < in.tile_rows; ++r) {
    double* row = out->data() + r * in.n;
    const double* mean_r = in.means.data() + r * m;
    const double tv_r = in.total_var[r];
    for (std::size_t j = 0; j < in.n; ++j) {
      row[j] = t.ed2(mean_r, in.means.data() + j * m, m, tv_r,
                     in.total_var[j]);
      ++evals;
    }
  }
  return evals;
}

// One packing pass: every object's three moment columns through pack_row.
void PackPass(const simd::KernelTable& t, const Inputs& in,
              std::vector<double>* mean_out, std::vector<double>* mu2_out,
              std::vector<double>* var_out, std::vector<double>* tv_out) {
  const std::size_t m = in.m;
  for (std::size_t i = 0; i < in.n; ++i) {
    t.pack_row(in.means.data() + i * m, in.mu2.data() + i * m,
               in.var.data() + i * m, m, mean_out->data() + i * m,
               mu2_out->data() + i * m, var_out->data() + i * m,
               tv_out->data() + i);
  }
}

// One assignment sweep: every object against all k centers via nearest_two.
std::size_t SweepPass(const simd::KernelTable& t, const Inputs& in,
                      std::vector<int>* labels) {
  const std::size_t m = in.m;
  for (std::size_t i = 0; i < in.n; ++i) {
    int best = 0;
    double best_d2 = 0.0;
    double second_d2 = 0.0;
    t.nearest_two(in.means.data() + i * m, in.centroids.data(), in.k, m, -1,
                  0.0, &best, &best_d2, &second_d2);
    (*labels)[i] = best;
    g_sink += best_d2 - second_d2;
  }
  return in.n * static_cast<std::size_t>(in.k);
}

// One relocation sweep: every object's squared distances to all k centers
// via center_sq_distances, into out (n x k).
std::size_t CenterSweepPass(const simd::KernelTable& t, const Inputs& in,
                            std::vector<double>* out) {
  for (std::size_t i = 0; i < in.n; ++i) {
    t.center_sq_distances(in.means.data() + i * in.m, in.centers_cm.data(),
                          in.k, in.m, out->data() + i * in.k);
  }
  return in.n * static_cast<std::size_t>(in.k);
}

// Repeats fn until at least min_ms of wall time is covered; returns
// (repetitions, elapsed seconds).
template <typename Fn>
std::pair<std::size_t, double> Measure(double min_ms, Fn&& fn) {
  std::size_t reps = 0;
  common::Stopwatch sw;
  do {
    fn();
    ++reps;
  } while (sw.ElapsedMs() < min_ms);
  return {reps, sw.ElapsedSeconds()};
}

struct IsaResults {
  std::string name;
  double ed2_evals_per_s = 0.0;
  double ed2_gb_per_s = 0.0;
  double pack_gb_per_s = 0.0;
  double sweep_evals_per_s = 0.0;
  double center_sweep_evals_per_s = 0.0;
  bool cross_check_ok = true;
};

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const std::size_t m = static_cast<std::size_t>(args.GetInt("m", 64));
  const std::size_t tile_rows =
      static_cast<std::size_t>(args.GetInt("tile_rows", 64));
  const std::size_t n = static_cast<std::size_t>(args.GetInt("n", 2048));
  const int k = static_cast<int>(args.GetInt("k", 16));
  const double min_ms = args.GetDouble("min_ms", 200.0);
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string json_out =
      args.GetString("json_out", "BENCH_kernel_throughput.json");
  args.RejectUnknownFlags();

  const Inputs in = MakeInputs(m, tile_rows, n, k, seed);
  const simd::Isa best = simd::DetectBestIsa();
  std::printf("=== SIMD kernel throughput (m=%zu, tile=%zux%zu, k=%d) ===\n",
              m, tile_rows, n, k);
  std::printf("DISPATCH best=%s\n\n", simd::IsaName(best).c_str());

  // Scalar reference outputs for the runtime cross-check.
  const simd::KernelTable* scalar = simd::TableFor(simd::Isa::kScalar);
  std::vector<double> ref_tile(tile_rows * n);
  std::vector<double> ref_mean(n * m), ref_mu2(n * m), ref_var(n * m),
      ref_tv(n);
  std::vector<int> ref_labels(n);
  std::vector<double> ref_d2(n * k);
  Ed2Tile(*scalar, in, &ref_tile);
  PackPass(*scalar, in, &ref_mean, &ref_mu2, &ref_var, &ref_tv);
  SweepPass(*scalar, in, &ref_labels);
  CenterSweepPass(*scalar, in, &ref_d2);

  const simd::Isa kCandidates[] = {simd::Isa::kScalar, simd::Isa::kAvx2,
                                   simd::Isa::kNeon};
  std::vector<IsaResults> results;
  bool all_ok = true;
  for (const simd::Isa isa : kCandidates) {
    const simd::KernelTable* table = simd::TableFor(isa);
    if (table == nullptr) continue;
    IsaResults r;
    r.name = simd::IsaName(isa);

    // Cross-check first (bitwise, memcmp over the output buffers): the
    // throughput numbers of a path that produces different bits would be
    // meaningless.
    if (isa != simd::Isa::kScalar) {
      std::vector<double> tile(tile_rows * n);
      std::vector<double> mean(n * m), mu2(n * m), var(n * m), tv(n);
      std::vector<int> labels(n);
      std::vector<double> d2(n * k);
      Ed2Tile(*table, in, &tile);
      PackPass(*table, in, &mean, &mu2, &var, &tv);
      SweepPass(*table, in, &labels);
      CenterSweepPass(*table, in, &d2);
      r.cross_check_ok =
          std::memcmp(tile.data(), ref_tile.data(),
                      tile.size() * sizeof(double)) == 0 &&
          std::memcmp(mean.data(), ref_mean.data(),
                      mean.size() * sizeof(double)) == 0 &&
          std::memcmp(mu2.data(), ref_mu2.data(),
                      mu2.size() * sizeof(double)) == 0 &&
          std::memcmp(var.data(), ref_var.data(),
                      var.size() * sizeof(double)) == 0 &&
          std::memcmp(tv.data(), ref_tv.data(),
                      tv.size() * sizeof(double)) == 0 &&
          std::memcmp(labels.data(), ref_labels.data(),
                      labels.size() * sizeof(int)) == 0 &&
          std::memcmp(d2.data(), ref_d2.data(), d2.size() * sizeof(double)) ==
              0;
      all_ok = all_ok && r.cross_check_ok;
    }

    // ED^ tile: each eval reads two mean rows (2 m doubles); GB/s counts
    // those reads (writes are one double per eval, negligible next to them).
    {
      std::vector<double> tile(tile_rows * n);
      std::size_t evals = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        evals += Ed2Tile(*table, in, &tile);
      });
      (void)reps;
      r.ed2_evals_per_s = static_cast<double>(evals) / secs;
      r.ed2_gb_per_s = r.ed2_evals_per_s * (2.0 * static_cast<double>(m)) *
                       sizeof(double) / 1e9;
      g_sink += tile[0];
    }
    // Moment packing: 3 m doubles read + 3 m + 1 written per row.
    {
      std::vector<double> mean(n * m), mu2(n * m), var(n * m), tv(n);
      std::size_t rows = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        PackPass(*table, in, &mean, &mu2, &var, &tv);
        rows += n;
      });
      (void)reps;
      const double bytes_per_row =
          (6.0 * static_cast<double>(m) + 1.0) * sizeof(double);
      r.pack_gb_per_s = static_cast<double>(rows) * bytes_per_row / secs / 1e9;
      g_sink += tv[0];
    }
    // Nearest-two sweep: n x k squared-distance evaluations per pass.
    {
      std::vector<int> labels(n);
      std::size_t evals = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        evals += SweepPass(*table, in, &labels);
      });
      (void)reps;
      r.sweep_evals_per_s = static_cast<double>(evals) / secs;
      g_sink += labels[0];
    }
    // Center-major sweep: n x k squared distances per pass.
    {
      std::vector<double> d2(n * k);
      std::size_t evals = 0;
      const auto [reps, secs] = Measure(min_ms, [&] {
        evals += CenterSweepPass(*table, in, &d2);
      });
      (void)reps;
      r.center_sweep_evals_per_s = static_cast<double>(evals) / secs;
      g_sink += d2[0];
    }
    results.push_back(std::move(r));
  }

  double scalar_ed2 = 0.0;
  for (const IsaResults& r : results) {
    if (r.name == "scalar") scalar_ed2 = r.ed2_evals_per_s;
  }
  std::printf("%-8s %14s %10s %10s %14s %15s %9s %6s\n", "isa",
              "ed2 evals/s", "ed2 GB/s", "pack GB/s", "sweep evals/s",
              "csweep evals/s", "vs scalar", "bits");
  for (const IsaResults& r : results) {
    std::printf("%-8s %14.3g %10.2f %10.2f %14.3g %15.3g %8.2fx %6s\n",
                r.name.c_str(), r.ed2_evals_per_s, r.ed2_gb_per_s,
                r.pack_gb_per_s, r.sweep_evals_per_s,
                r.center_sweep_evals_per_s,
                scalar_ed2 > 0 ? r.ed2_evals_per_s / scalar_ed2 : 0.0,
                r.name == "scalar" ? "ref"
                                   : (r.cross_check_ok ? "ok" : "DIFF"));
  }

  common::JsonWriter json;
  json.BeginObject();
  json.KV("bench", "kernel_throughput");
  json.Key("config");
  json.BeginObject();
  json.KV("m", m);
  json.KV("tile_rows", tile_rows);
  json.KV("n", n);
  json.KV("k", k);
  json.KV("min_ms", min_ms);
  json.KV("seed", static_cast<int64_t>(seed));
  json.KV("hardware_threads",
          static_cast<int64_t>(bench::HardwareThreads()));
  json.KV("dispatch_best", simd::IsaName(best));
  json.EndObject();
  json.Key("isas");
  json.BeginArray();
  for (const IsaResults& r : results) {
    json.BeginObject();
    json.KV("isa", r.name);
    json.KV("ed2_evals_per_s", r.ed2_evals_per_s);
    json.KV("ed2_gb_per_s", r.ed2_gb_per_s);
    json.KV("pack_gb_per_s", r.pack_gb_per_s);
    json.KV("sweep_evals_per_s", r.sweep_evals_per_s);
    json.KV("center_sweep_evals_per_s", r.center_sweep_evals_per_s);
    json.KV("ed2_speedup_vs_scalar",
            scalar_ed2 > 0 ? r.ed2_evals_per_s / scalar_ed2 : 0.0);
    json.KV("cross_check_ok", r.cross_check_ok);
    json.EndObject();
  }
  json.EndArray();
  json.KV("cross_check_ok", all_ok);
  json.EndObject();
  if (json.WriteFile(json_out)) {
    std::printf("\n[wrote %s]\n", json_out.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", json_out.c_str());
  }

  // Greppable smoke marker (CI gates this, not the speedup ratio, so
  // non-AVX2 runners stay green).
  std::printf("KERNEL RESULT=%s\n", all_ok ? "OK" : "FAIL");
  if (g_sink == 12345.6789) std::printf("(sink %f)\n", g_sink);
  return all_ok ? 0 : 1;
}
