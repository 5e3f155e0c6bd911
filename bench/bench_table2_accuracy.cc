// Reproduces Table 2: accuracy (external Theta and internal Q criteria) on
// the benchmark datasets x {Uniform, Normal, Exponential} pdfs x 7
// algorithms, averaged over multiple runs.
//
// Defaults are scaled for a laptop run (fewer runs than the paper's 50, and
// the O(n^2)-class baselines are evaluated on a subsample — printed per
// row). Flags:
//   --runs=N        protocol repetitions per cell            (default 3)
//   --scale=F       dataset size scale in (0, 1]             (default 1.0)
//   --slow_cap=N    max objects for UKmed/UAHC/FDB/FOPT      (default 400)
//   --datasets=A,B  comma-separated subset of dataset names  (default all)
//   --umin=F        min uncertainty scale (fraction of range, default 0.05)
//   --umax=F        max uncertainty scale (fraction of range, default 0.25)
//   --seed=S        master seed                              (default 1)
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "clustering/fdbscan.h"
#include "clustering/foptics.h"
#include "clustering/mmvar.h"
#include "clustering/uahc.h"
#include "clustering/ucpc.h"
#include "clustering/ukmeans.h"
#include "clustering/ukmedoids.h"
#include "common/cli.h"
#include "common/csv.h"
#include "data/benchmark_gen.h"
#include "data/uncertainty_model.h"
#include "engine/engine.h"
#include "eval/protocol.h"

namespace {

using namespace uclust;  // NOLINT: bench brevity

struct AlgoEntry {
  std::unique_ptr<clustering::Clusterer> algo;
  bool slow;  // quadratic-or-worse: runs on the subsampled dataset
};

std::vector<AlgoEntry> MakeAlgorithms(const engine::Engine& eng) {
  std::vector<AlgoEntry> out;
  out.push_back({std::make_unique<clustering::Fdbscan>(), true});
  out.push_back({std::make_unique<clustering::Foptics>(), true});
  out.push_back({std::make_unique<clustering::Uahc>(), true});
  out.push_back({std::make_unique<clustering::UkMedoids>(), true});
  out.push_back({std::make_unique<clustering::Ukmeans>(), false});
  out.push_back({std::make_unique<clustering::Mmvar>(), false});
  out.push_back({std::make_unique<clustering::Ucpc>(), false});
  for (auto& e : out) e.algo->set_engine(eng);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const common::ArgParser args(argc, argv);
  const int runs = static_cast<int>(args.GetInt("runs", 3));
  const double scale = args.GetDouble("scale", 1.0);
  const std::size_t slow_cap =
      static_cast<std::size_t>(args.GetInt("slow_cap", 400));
  const uint64_t seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  const std::string only = args.GetString("datasets", "");
  const double umin = args.GetDouble("umin", 0.08);
  const double umax = args.GetDouble("umax", 0.40);

  const auto algorithms = MakeAlgorithms(
      engine::Engine(bench::EngineConfigFromFlagsOrDie(args, "table2")));
  args.RejectUnknownFlags();
  const data::PdfFamily families[] = {data::PdfFamily::kUniform,
                                      data::PdfFamily::kNormal,
                                      data::PdfFamily::kExponential};

  std::printf("=== Table 2: accuracy on benchmark datasets "
              "(runs=%d, scale=%.2f, slow_cap=%zu, seed=%llu) ===\n",
              runs, scale, slow_cap,
              static_cast<unsigned long long>(seed));
  std::printf("Theta = F(uncertain) - F(perturbed), higher is better; "
              "Q = inter - intra in [-1,1].\n\n");
  std::printf("%-9s %-4s | ", "dataset", "pdf");
  for (const auto& e : algorithms) {
    std::printf("%10s ", e.algo->name().c_str());
  }
  std::printf("\n");

  // Per (family, algorithm) running means for the paper's summary rows.
  std::map<std::string, std::map<std::string, std::pair<double, int>>>
      theta_avg;  // family -> algo -> (sum, count)
  std::map<std::string, std::pair<double, int>> theta_overall;
  std::map<std::string, std::map<std::string, std::pair<double, int>>> q_avg;
  std::map<std::string, std::pair<double, int>> q_overall;
  std::map<std::string, std::pair<double, int>> f2_overall;

  for (const auto& spec : data::PaperBenchmarkSpecs()) {
    if (!only.empty() &&
        only.find(spec.name) == std::string::npos) {
      continue;
    }
    const auto full =
        data::MakeBenchmarkDataset(spec.name, seed, scale).ValueOrDie();
    const auto small = data::Subsample(full, slow_cap, seed + 1);
    for (const auto family : families) {
      data::UncertaintyParams up;
      up.family = family;
      up.min_scale_frac = umin;
      up.max_scale_frac = umax;
      const char* fam_tag = family == data::PdfFamily::kUniform ? "U"
                            : family == data::PdfFamily::kNormal ? "N"
                                                                 : "E";
      // Theta row.
      std::printf("%-9s %-4s | ", spec.name, fam_tag);
      std::vector<double> qs;
      for (const auto& entry : algorithms) {
        const auto& source = entry.slow ? small : full;
        const eval::ThetaSummary s = eval::RunThetaProtocol(
            source, up, *entry.algo, spec.classes, runs, seed + 7);
        std::printf("%+10.3f ", s.theta);
        qs.push_back(s.q_case2);
        auto& t = theta_avg[data::PdfFamilyName(family)]
                           [entry.algo->name()];
        t.first += s.theta;
        t.second += 1;
        auto& to = theta_overall[entry.algo->name()];
        to.first += s.theta;
        to.second += 1;
        auto& qa = q_avg[data::PdfFamilyName(family)][entry.algo->name()];
        qa.first += s.q_case2;
        qa.second += 1;
        auto& qo = q_overall[entry.algo->name()];
        qo.first += s.q_case2;
        qo.second += 1;
        auto& fo = f2_overall[entry.algo->name()];
        fo.first += s.f_case2;
        fo.second += 1;
      }
      std::printf("  [Theta]\n%-9s %-4s | ", "", "");
      for (double q : qs) std::printf("%+10.3f ", q);
      std::printf("  [Q]\n");
    }
  }

  std::printf("\n--- average Theta per pdf family ---\n");
  for (const auto& [family, per_algo] : theta_avg) {
    std::printf("%-12s | ", family.c_str());
    for (const auto& entry : algorithms) {
      const auto& [sum, count] = per_algo.at(entry.algo->name());
      std::printf("%+10.3f ", sum / count);
    }
    std::printf("\n");
  }
  std::printf("--- overall average Theta (paper: UCPC best, then MMVar) "
              "---\n%-12s | ",
              "all");
  double ucpc_theta = 0.0;
  for (const auto& entry : algorithms) {
    const auto& [sum, count] = theta_overall.at(entry.algo->name());
    const double avg = sum / count;
    if (entry.algo->name() == "UCPC") ucpc_theta = avg;
    std::printf("%+10.3f ", avg);
  }
  std::printf("\n--- overall average gain of UCPC ---\n%-12s | ", "gain");
  for (const auto& entry : algorithms) {
    const auto& [sum, count] = theta_overall.at(entry.algo->name());
    std::printf("%+10.3f ", ucpc_theta - sum / count);
  }
  std::printf("\n\n--- overall average F on the uncertain datasets (Case 2; "
              "absolute accuracy) ---\n%-12s | ",
              "all");
  for (const auto& entry : algorithms) {
    const auto& [sum, count] = f2_overall.at(entry.algo->name());
    std::printf("%+10.3f ", sum / count);
  }
  std::printf("\n\n--- overall average Q ---\n%-12s | ", "all");
  double ucpc_q = 0.0;
  for (const auto& entry : algorithms) {
    const auto& [sum, count] = q_overall.at(entry.algo->name());
    const double avg = sum / count;
    if (entry.algo->name() == "UCPC") ucpc_q = avg;
    std::printf("%+10.3f ", avg);
  }
  std::printf("\n--- overall average Q gain of UCPC ---\n%-12s | ", "gain");
  for (const auto& entry : algorithms) {
    const auto& [sum, count] = q_overall.at(entry.algo->name());
    std::printf("%+10.3f ", ucpc_q - sum / count);
  }
  std::printf("\n");
  return 0;
}
