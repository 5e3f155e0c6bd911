// End-to-end benchmark: a generated .ubin on disk -> canonical result JSON in
// hand, through the entry points users call (io::ReadUncertainDataset plus a
// registry Cluster(), CkMeans::ClusterFile, ClusteringService over loopback
// HTTP). See perfbench/README.md for the workloads and metrics.
//
//   perfbench_e2e --generate --workload W --seed S --data_dir D
//   perfbench_e2e --workload W --seed S --seconds T --trace 0|1 --data_dir D
//                 [--trace_out FILE]
//
// --generate writes the workload's inputs and exits; it runs in its own
// process so that generation never shows in the measuring process's peak
// RSS. --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced run. The last stdout line is one JSON object.
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "clustering/ckmeans.h"
#include "clustering/fdbscan.h"
#include "clustering/mmvar.h"
#include "clustering/registry.h"
#include "clustering/result_json.h"
#include "clustering/simd/simd.h"
#include "clustering/ucpc.h"
#include "clustering/ukmedoids.h"
#include "common/json.h"
#include "common/rng.h"
#include "data/synthetic_gen.h"
#include "eval/external.h"
#include "harness.h"
#include "io/dataset_reader.h"
#include "io/ingest.h"
#include "io/sample_file.h"
#include "metrics.h"
#include "service/http_client.h"
#include "service/log.h"
#include "service/service.h"

namespace perfbench {
namespace {

using namespace uclust;  // NOLINT: benchmark brevity

// setup_s is the median of several set-ups: at least kMinSetups, more while
// they take under kSetupBudgetS in total, at most kMaxSetups.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 48;
constexpr double kSetupBudgetS = 2.0;
constexpr int kTracedJobs = 6;        // jobs per traced/untraced pass
constexpr int kServiceTracedJobs = 48;
constexpr int kCkmeansMaxIters = 1000;  // converge; never time the cap
// Every run clusters several generated datasets with several clustering
// seeds each, so that one draw of either cannot set a run's median.
constexpr int kDatasets = 16;
constexpr int kSeedsPerDataset = 4;
// Engine threads of every clustering call, service jobs included. One: on a
// shared 4-vCPU host, every thread that waits at the engine's barriers adds
// the scheduler's wake-up delays to the job. Over ten seeds, job_p50_ms
// spread by 33% on centroid_resident at two threads (n=2,500) and by 11% on
// the one-thread sampled workload, whose per-thread mapped-window caches
// also thrash at two or more. The speedup probes still compare 1 thread
// with every core.
constexpr int kCallThreads = 1;
// peak_rss_mb is read after this many cycles of timed jobs: the service
// keeps every finished job's result, so its RSS grows with the job count.
constexpr int kRssMarkCycles = 2;

struct Options {
  std::string workload;
  std::string data_dir;
  std::string trace_out;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool generate = false;
};

volatile double g_sink = 0;

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// VmHWM of this process in MiB (0 when /proc is unavailable).
double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// What one result is checked against: algorithm, input and clustering seed.
struct Spec {
  std::string algorithm;
  int dataset = 0;
  uint64_t seed = 0;
  std::string Key() const {
    return algorithm + "/" + std::to_string(dataset) + "/" +
           std::to_string(seed);
  }
};

/// One clustering result a job produced, with what the gate checks.
struct ResultRecord {
  Spec spec;
  uint64_t fingerprint = 0;
  int iterations = 0;
  int cap = 0;  // iteration cap of the run; 0 = the algorithm has none
  double f_measure = 0;
  std::size_t n = 0;
  std::size_t json_bytes = 0;
  clustering::ClusteringResult counters;  // labels dropped
};

struct JobRecord {
  double latency_ms = 0;
  bool failed = false;
  std::string error;
  std::vector<ResultRecord> results;
  // Service jobs only.
  int polls = 0;
  double queue_wait_ms = 0, run_ms = 0, http_overhead_ms = 0;
};

/// The outcome of a job that must succeed, such as a warm-up job.
common::Status StatusOf(const JobRecord& job) {
  return job.failed ? common::Status::Internal(job.error)
                    : common::Status::Ok();
}

/// Facts the traced run gathers outside spans (labels and layer counters).
struct LayerFacts {
  std::map<std::string, double> values;
  std::map<std::string, std::string> labels;
};

// ---------------------------------------------------------------- workloads --

class Workload {
 public:
  Workload(const std::string& data_dir, uint64_t seed)
      : seed_(seed), cores_(HardwareThreads()) {
    for (int d = 0; d < kDatasets; ++d) {
      paths_.push_back(data_dir + "/input-" + std::to_string(d) + ".ubin");
    }
  }
  virtual ~Workload() = default;

  virtual data::SyntheticGenParams GenParams() const = 0;
  /// Clusters requested per job.
  virtual int k() const = 0;

  common::Status Generate() const {
    data::SyntheticGenParams p = GenParams();
    p.family = data::GenFamily::kMix;
    for (int d = 0; d < kDatasets; ++d) {
      p.seed = common::DeriveSeed(seed_, 1 + static_cast<uint64_t>(d));
      UCLUST_RETURN_NOT_OK(
          data::WriteSyntheticDataset(p, paths_[d], "perfbench"));
    }
    return common::Status::Ok();
  }

  /// Reads what verification needs (reference labels, sizes); untimed.
  common::Status Prepare() {
    references_.resize(kDatasets);
    for (int d = 0; d < kDatasets; ++d) {
      io::BinaryDatasetReader reader;
      UCLUST_RETURN_NOT_OK(reader.Open(paths_[d]));
      n_ = reader.size();
      file_bytes_ += static_cast<double>(reader.file_bytes()) / kDatasets;
      UCLUST_RETURN_NOT_OK(reader.ReadLabels(&references_[d]));
    }
    return common::Status::Ok();
  }

  /// Everything before the first timed job; timed as setup_s. Repeat
  /// `rep` ends with warm-up job -1-rep, so the repeats warm up on different
  /// inputs and their median does not hang on one draw.
  virtual common::Status Setup(int rep, Tracer* t) = 0;

  /// Runs jobs until `deadline_ms` (WallMs clock; 0 = none) or `max_jobs`
  /// (-1 = none), appending one record per job.
  virtual void Run(double deadline_ms, int max_jobs, Tracer* t,
                   std::vector<JobRecord>* out) {
    for (int j = 0; max_jobs < 0 || j < max_jobs; ++j) {
      if (deadline_ms > 0 && WallMs() >= deadline_ms) break;
      out->push_back(Job(j, t));
      Finish();
    }
  }

  /// Jobs in one cycle: job j repeats the work of job j - cycle().
  virtual int cycle() const { return kDatasets * kSeedsPerDataset; }

  /// Reads VmHWM when the `jobs`-th job run by Run() completes, so that
  /// peak_rss_mb covers the same work however fast the host runs.
  void SetRssMark(int jobs) { rss_mark_jobs_ = jobs; }
  /// VmHWM at the mark in MiB; 0 if fewer jobs completed.
  double rss_at_mark() const { return rss_at_mark_; }

  /// The reference fingerprint of one spec, computed layer by layer.
  virtual common::Result<uint64_t> Oracle(const Spec& spec, Tracer* t) = 0;

  /// Trace-only measurements of single layers.
  virtual void Probe(Tracer* t, LayerFacts* facts) = 0;

  virtual void Teardown() {}

  std::size_t n() const { return n_; }
  double file_bytes() const { return file_bytes_; }
  int cores() const { return cores_; }

 protected:
  virtual JobRecord Job(int /*j*/, Tracer* /*t*/) { return JobRecord(); }

  /// Counts a finished job; the job that completes the RSS mark reads
  /// VmHWM.
  void Finish() {
    if (completed_.fetch_add(1) + 1 == rss_mark_jobs_) {
      rss_at_mark_ = PeakRssMiB();
    }
  }

  /// Clustering seed number i. Kept below 2^53 so that it survives a JSON
  /// number unchanged on the service path.
  uint64_t InitSeed(int i) const {
    return common::DeriveSeed(seed_, 1000 + static_cast<uint64_t>(i)) &
           ((uint64_t{1} << 53) - 1);
  }
  /// Job j's dataset and clustering seed: the datasets take turns, and each
  /// cycles through its seeds. Warm-up jobs (j < 0) use seeds no timed job
  /// uses.
  int DatasetOf(int j) const { return (j < 0 ? -1 - j : j) % kDatasets; }
  uint64_t SeedOf(int j) const {
    return InitSeed(j < 0 ? kSeedsPerDataset - 1 - j
                          : (j / kDatasets) % kSeedsPerDataset);
  }
  Spec SpecOf(const std::string& algorithm, int j) const {
    return Spec{algorithm, DatasetOf(j), SeedOf(j)};
  }

  /// Builds the gate's record of one in-process result (untimed: the
  /// F-measure belongs to eval, which the benchmark does not time).
  ResultRecord Record(Spec spec, clustering::ClusteringResult r, int cap,
                      std::size_t json_bytes) const {
    ResultRecord rec;
    rec.fingerprint = clustering::ResultFingerprint(r.labels, r.objective);
    rec.iterations = r.iterations;
    rec.cap = cap;
    rec.f_measure = eval::FMeasure(references_[spec.dataset], r.labels);
    rec.n = r.labels.size();
    rec.json_bytes = json_bytes;
    rec.spec = std::move(spec);
    r.labels.clear();
    r.labels.shrink_to_fit();
    rec.counters = std::move(r);
    return rec;
  }

  /// ReadUncertainDataset inside an "io.read" span.
  common::Result<data::UncertainDataset> Read(int dataset, int j,
                                              Tracer* t) const {
    ScopedSpan s(t, "io.read", j);
    return io::ReadUncertainDataset(paths_[dataset]);
  }

  /// Clusters `ds` with `c` and serializes the result, inside spans.
  clustering::ClusteringResult ClusterAndSerialize(
      const clustering::Clusterer& c, const std::string& span,
      const data::UncertainDataset& ds, uint64_t init_seed, int j, Tracer* t,
      std::size_t* json_bytes) const {
    clustering::ClusteringResult r;
    {
      ScopedSpan s(t, span, j, kCallThreads);
      r = c.Cluster(ds, k(), init_seed);
    }
    ScopedSpan s(t, "common.result_json", j);
    *json_bytes = clustering::ResultToJson(r, true).size();
    return r;
  }

  /// Times Cluster() of one seed at 1 thread and on every core, as
  /// "<span>_probe" spans, for the speedup metrics.
  void ProbeSpeedup(const std::string& algorithm, const std::string& span,
                    const data::UncertainDataset& ds, Tracer* t) const {
    for (int threads : {1, cores_}) {
      engine::EngineConfig cfg = engine_config_;
      cfg.num_threads = threads;
      auto c = clustering::MakeClusterer(algorithm, engine::Engine(cfg));
      if (!c.ok()) return;
      ScopedSpan s(t, span + "_probe", -1, threads);
      c.ValueOrDie()->Cluster(ds, k(), InitSeed(0));
    }
  }

  /// Times the closed-form ED^ kernel on the workload's m.
  void ProbeSimd(std::size_t m, LayerFacts* facts) const {
    constexpr std::size_t kPoints = 256;
    std::vector<double> means(kPoints * m);
    common::Rng rng(seed_);
    for (double& v : means) v = rng.Uniform();
    double sink = 0;
    std::size_t evals = 0;
    const double t0 = WallMs();
    do {
      for (std::size_t a = 0; a < kPoints; ++a) {
        for (std::size_t b = 0; b < kPoints; ++b) {
          sink += clustering::simd::Ed2(&means[a * m], &means[b * m], m, 0.5,
                                        0.25);
        }
      }
      evals += kPoints * kPoints;
    } while (WallMs() - t0 < 200);
    const double secs = (WallMs() - t0) / 1e3;
    const double gevals = static_cast<double>(evals) / secs / 1e9;
    // Computed traffic: two m-vectors of means plus two totals per eval.
    const double bytes = static_cast<double>((2 * m + 2) * sizeof(double));
    facts->values["clustering.simd.ed2_gevals_per_s"] = gevals;
    facts->values["clustering.simd.ed2_computed_gb_per_s"] = gevals * bytes;
    facts->labels["clustering.simd.isa"] =
        clustering::simd::IsaName(clustering::simd::ActiveIsa());
    g_sink = sink;  // keeps the loop's results observable
  }

  /// Times StreamMomentStoreFromFile at 1 thread and on every core.
  void ProbeMomentIngest(Tracer* t) const {
    for (int threads : {1, cores_}) {
      engine::EngineConfig cfg;
      cfg.num_threads = threads;
      engine::Engine eng(cfg);
      ScopedSpan s(t, "io.moment_ingest_probe", -1, threads);
      auto store = io::StreamMomentStoreFromFile(paths_[0], eng);
      if (!store.ok()) {
        std::fprintf(stderr, "perfbench: moment ingest: %s\n",
                     store.status().ToString().c_str());
      }
    }
  }

  /// The moment store of one dataset, streamed from its file once (oracles).
  common::Result<const uncertain::MomentStore*> Moments(
      int dataset, const engine::Engine& eng, Tracer* t) {
    if (moments_.empty()) moments_.resize(kDatasets);
    if (!moments_[dataset]) {
      ScopedSpan s(t, "io.moment_ingest", -1, eng.num_threads());
      auto store = io::StreamMomentStoreFromFile(paths_[dataset], eng);
      if (!store.ok()) return store.status();
      moments_[dataset] = std::move(store).ValueOrDie();
    }
    return moments_[dataset].get();
  }

  uint64_t seed_;
  int cores_;
  std::atomic<int> completed_{0};
  int rss_mark_jobs_ = -1;
  double rss_at_mark_ = 0;
  std::vector<std::string> paths_;
  std::size_t n_ = 0;
  double file_bytes_ = 0;  // mean over the datasets
  std::vector<std::vector<int>> references_;
  engine::EngineConfig engine_config_;
  std::vector<uncertain::MomentStorePtr> moments_;
};

// UCPC, then MMVar, on one resident read: the paper's algorithm against its
// closest baseline, where the clustering loop does most of the work.
class CentroidResident final : public Workload {
 public:
  using Workload::Workload;
  data::SyntheticGenParams GenParams() const override {
    data::SyntheticGenParams p;
    p.n = 2500;
    p.m = 16;
    p.classes = 16;
    return p;
  }
  int k() const override { return 16; }

  common::Status Setup(int rep, Tracer* t) override {
    engine_config_.num_threads = kCallThreads;
    engine_ = engine::Engine(engine_config_);
    auto ucpc = clustering::MakeClusterer("UCPC", engine_);
    auto mmvar = clustering::MakeClusterer("MMVar", engine_);
    if (!ucpc.ok()) return ucpc.status();
    if (!mmvar.ok()) return mmvar.status();
    ucpc_ = std::move(ucpc).ValueOrDie();
    mmvar_ = std::move(mmvar).ValueOrDie();
    return StatusOf(Job(-1 - rep, t));
  }

  common::Result<uint64_t> Oracle(const Spec& spec, Tracer* t) override {
    auto moments = Moments(spec.dataset, engine_, t);
    if (!moments.ok()) return moments.status();
    const uncertain::MomentView view = moments.ValueOrDie()->view();
    clustering::LocalSearchOutcome out;
    if (spec.algorithm == "UCPC") {
      ScopedSpan s(t, "clustering.ucpc_on_moments", -1, kCallThreads);
      out = clustering::Ucpc::RunOnMoments(view, k(), spec.seed,
                                           clustering::Ucpc::Params(), engine_);
    } else {
      ScopedSpan s(t, "clustering.mmvar_on_moments", -1, kCallThreads);
      out = clustering::Mmvar::RunOnMoments(
          view, k(), spec.seed, clustering::Mmvar::Params(), engine_);
    }
    return clustering::ResultFingerprint(out.labels, out.objective);
  }

  void Probe(Tracer* t, LayerFacts* facts) override {
    auto read = io::ReadUncertainDataset(paths_[0]);
    if (read.ok()) {
      ProbeSpeedup("UCPC", "clustering.ucpc", read.ValueOrDie(), t);
      ProbeSpeedup("MMVar", "clustering.mmvar", read.ValueOrDie(), t);
    }
    ProbeMomentIngest(t);
    ProbeSimd(GenParams().m, facts);
  }

 protected:
  JobRecord Job(int j, Tracer* t) override {
    JobRecord rec;
    const Spec ucpc_spec = SpecOf("UCPC", j), mmvar_spec = SpecOf("MMVar", j);
    const int cap = clustering::Ucpc::Params().max_passes;
    clustering::ClusteringResult ucpc, mmvar;
    std::size_t ucpc_bytes = 0, mmvar_bytes = 0;
    {
      ScopedSpan job(t, "bench.job", j);
      const double t0 = WallMs();
      common::Result<data::UncertainDataset> read =
          Read(ucpc_spec.dataset, j, t);
      if (!read.ok()) {
        rec.failed = true;
        rec.error = read.status().ToString();
        return rec;
      }
      const data::UncertainDataset& ds = read.ValueOrDie();
      {
        ScopedSpan s(t, "uncertain.moments", j);
        ds.moments();
      }
      ucpc = ClusterAndSerialize(*ucpc_, "clustering.ucpc", ds, ucpc_spec.seed,
                                 j, t, &ucpc_bytes);
      mmvar = ClusterAndSerialize(*mmvar_, "clustering.mmvar", ds,
                                  mmvar_spec.seed, j, t, &mmvar_bytes);
      rec.latency_ms = WallMs() - t0;
    }
    rec.results.push_back(Record(ucpc_spec, std::move(ucpc), cap, ucpc_bytes));
    rec.results.push_back(
        Record(mmvar_spec, std::move(mmvar), cap, mmvar_bytes));
    return rec;
  }

 private:
  engine::Engine engine_;
  std::unique_ptr<clustering::Clusterer> ucpc_, mmvar_;
};

// UK-medoids, then FDBSCAN, under a memory budget below the sample blocks:
// the mapped sample store, the tiled pairwise store, the spatial index and
// the sampled kernels, with a working set larger than the window caches.
class SampledOutOfCore final : public Workload {
 public:
  using Workload::Workload;
  static constexpr std::size_t kBudgetBytes = 384 * 1024;

  data::SyntheticGenParams GenParams() const override {
    data::SyntheticGenParams p;
    p.n = 300;
    p.m = 8;
    p.classes = 8;
    return p;
  }
  int k() const override { return 8; }

  common::Status Setup(int rep, Tracer* t) override {
    engine_config_.num_threads = kCallThreads;
    engine_config_.memory_budget_bytes = kBudgetBytes;
    engine_ = engine::Engine(engine_config_);
    auto ukmedoids = clustering::MakeClusterer("UK-medoids", engine_);
    auto fdbscan = clustering::MakeClusterer("FDBSCAN", engine_);
    if (!ukmedoids.ok()) return ukmedoids.status();
    if (!fdbscan.ok()) return fdbscan.status();
    ukmedoids_ = std::move(ukmedoids).ValueOrDie();
    fdbscan_ = std::move(fdbscan).ValueOrDie();
    // Prebuild every .usmp sidecar through the factory the algorithms call,
    // so the jobs reuse them. Removing them first makes every set-up repeat
    // do the same work.
    for (const std::string& path : paths_) {
      auto read = io::ReadUncertainDataset(path);
      if (!read.ok()) return read.status();
      for (const auto& [samples, sample_seed] : SampleParams()) {
        std::filesystem::remove(
            io::DefaultSampleSidecarPath(path, samples, sample_seed));
        ScopedSpan s(t, "io.sample_sidecar_prebuild", -1, kCallThreads);
        auto store = io::MakeSampleStore(read.ValueOrDie(), samples,
                                         sample_seed, engine_);
        if (!store.ok()) return store.status();
      }
    }
    return StatusOf(Job(-1 - rep, t));
  }

  common::Result<uint64_t> Oracle(const Spec& spec, Tracer* t) override {
    // Unbudgeted: resident samples and the dense pairwise table — the other
    // side of every backend choice the timed jobs make. Untimed, so it runs
    // on every core (results do not depend on the thread count).
    engine::EngineConfig cfg = engine_config_;
    cfg.memory_budget_bytes = 0;
    cfg.num_threads = cores_;
    const engine::Engine eng(cfg);
    if (resident_.empty()) resident_.resize(kDatasets);
    if (!resident_[spec.dataset]) {
      auto read = io::ReadUncertainDataset(paths_[spec.dataset]);
      if (!read.ok()) return read.status();
      resident_[spec.dataset] = std::move(read).ValueOrDie();
    }
    auto c = clustering::MakeClusterer(spec.algorithm, eng);
    if (!c.ok()) return c.status();
    ScopedSpan s(t, "clustering.dense_reference", -1, cores_);
    const clustering::ClusteringResult r =
        c.ValueOrDie()->Cluster(*resident_[spec.dataset], k(), spec.seed);
    return clustering::ResultFingerprint(r.labels, r.objective);
  }

  void Probe(Tracer* t, LayerFacts* facts) override {
    const std::string& path = paths_[0];
    auto read = io::ReadUncertainDataset(path);
    if (!read.ok()) return;
    const data::UncertainDataset& ds = read.ValueOrDie();
    const auto [samples, sample_seed] = SampleParams().front();
    // Open over the prebuilt sidecar: the backend choice plus the open.
    std::size_t chunk_rows = 0;
    {
      ScopedSpan s(t, "uncertain.sample_store_open", -1, kCallThreads);
      auto store = io::MakeSampleStore(ds, samples, sample_seed, engine_);
      if (store.ok()) {
        facts->labels["uncertain.sample_store_backend"] =
            uncertain::SampleBackendName(store.ValueOrDie()->backend());
        if (auto* mapped = dynamic_cast<const io::MappedSampleStore*>(
                store.ValueOrDie().get())) {
          chunk_rows = mapped->chunk_rows();
        }
      }
    }
    // A fresh build of the same sidecar into a sibling file.
    const std::string probe_path = path + ".probe.usmp";
    {
      ScopedSpan s(t, "io.sample_sidecar_build", -1, kCallThreads);
      const common::Status st = io::BuildSampleSidecar(
          path, probe_path, samples, sample_seed, engine_, chunk_rows);
      if (!st.ok()) {
        std::fprintf(stderr, "perfbench: sidecar build: %s\n",
                     st.ToString().c_str());
      }
    }
    std::error_code ec;
    std::filesystem::remove(probe_path, ec);
    double sidecar_bytes = 0;
    for (const auto& [s_count, s_seed] : SampleParams()) {
      const auto size = std::filesystem::file_size(
          io::DefaultSampleSidecarPath(path, s_count, s_seed), ec);
      if (!ec) sidecar_bytes += static_cast<double>(size);
    }
    facts->values["io.sidecar_bytes"] = sidecar_bytes;
    ProbeSpeedup("UK-medoids", "clustering.ukmedoids", ds, t);
    ProbeSpeedup("FDBSCAN", "clustering.fdbscan", ds, t);
    ProbeSimd(GenParams().m, facts);
  }

  void Teardown() override {
    std::error_code ec;
    for (const std::string& path : paths_) {
      for (const auto& [samples, sample_seed] : SampleParams()) {
        std::filesystem::remove(
            io::DefaultSampleSidecarPath(path, samples, sample_seed), ec);
      }
    }
  }

 protected:
  JobRecord Job(int j, Tracer* t) override {
    JobRecord rec;
    const Spec medoids_spec = SpecOf("UK-medoids", j);
    const Spec density_spec = SpecOf("FDBSCAN", j);
    clustering::ClusteringResult medoids, density;
    std::size_t medoids_bytes = 0, density_bytes = 0;
    {
      ScopedSpan job(t, "bench.job", j);
      const double t0 = WallMs();
      common::Result<data::UncertainDataset> read =
          Read(medoids_spec.dataset, j, t);
      if (!read.ok()) {
        rec.failed = true;
        rec.error = read.status().ToString();
        return rec;
      }
      const data::UncertainDataset& ds = read.ValueOrDie();
      medoids = ClusterAndSerialize(*ukmedoids_, "clustering.ukmedoids", ds,
                                    medoids_spec.seed, j, t, &medoids_bytes);
      density = ClusterAndSerialize(*fdbscan_, "clustering.fdbscan", ds,
                                    density_spec.seed, j, t, &density_bytes);
      rec.latency_ms = WallMs() - t0;
    }
    rec.results.push_back(Record(medoids_spec, std::move(medoids),
                                 clustering::UkMedoids::Params().max_iters,
                                 medoids_bytes));
    rec.results.push_back(
        Record(density_spec, std::move(density), 0, density_bytes));
    return rec;
  }

 private:
  /// (samples per object, sample seed) of UK-medoids, then FDBSCAN — the
  /// registry algorithms' own defaults.
  static std::vector<std::pair<int, uint64_t>> SampleParams() {
    return {{clustering::UkMedoids::Params().samples,
             clustering::UkMedoids::Params().sample_seed},
            {clustering::Fdbscan::Params().samples,
             clustering::Fdbscan::Params().sample_seed}};
  }

  engine::Engine engine_;
  std::unique_ptr<clustering::Clusterer> ukmedoids_, fdbscan_;
  std::vector<std::optional<data::UncertainDataset>> resident_;
};

// A seeded UCPC / UK-means / MMVar mix behind the REST service: a closed
// loop of one client per core, each waiting for its reply. The only
// workload with queueing, HTTP and JSON parsing.
class ServiceMixed final : public Workload {
 public:
  using Workload::Workload;
  static constexpr int kExecutors = 2;
  static constexpr int kSeedsPerSpec = 2;

  data::SyntheticGenParams GenParams() const override {
    data::SyntheticGenParams p;
    p.n = 5000;
    p.m = 8;
    p.classes = 8;
    return p;
  }
  int k() const override { return 8; }

  common::Status Setup(int rep, Tracer* t) override {
    service::SetLogEnabled(false);
    if (service_) service_->Stop();
    service_.reset();
    if (schedule_.empty()) {
      // A balanced mix: every (algorithm, dataset, seed) once per cycle, in
      // a seeded order.
      for (const char* algorithm : {"UCPC", "UK-means", "MMVar"}) {
        for (int d = 0; d < kDatasets; ++d) {
          for (int s = 0; s < kSeedsPerSpec; ++s) {
            schedule_.push_back(Spec{algorithm, d, InitSeed(s)});
          }
        }
      }
      common::Rng rng(common::DeriveSeed(seed_, 2));
      rng.Shuffle(&schedule_);
    }
    service::ServiceConfig cfg;
    cfg.http.port = 0;
    cfg.jobs.executors = kExecutors;
    service_ = std::make_unique<service::ClusteringService>(std::move(cfg));
    UCLUST_RETURN_NOT_OK(service_->Start());
    dataset_ids_.clear();
    for (const std::string& path : paths_) {
      common::JsonWriter body;
      body.BeginObject();
      body.KV("path", path);
      body.EndObject();
      auto reg = service::HttpFetch(service_->port(), "POST", "/v1/datasets",
                                    body.str());
      if (!reg.ok()) return reg.status();
      auto parsed = common::ParseJson(reg.ValueOrDie().body);
      if (reg.ValueOrDie().status != 201 || !parsed.ok() ||
          parsed.ValueOrDie().Find("id") == nullptr) {
        return common::Status::Internal("dataset registration failed: " +
                                        reg.ValueOrDie().body);
      }
      dataset_ids_.push_back(parsed.ValueOrDie().Find("id")->AsString());
    }
    return StatusOf(ClientJob(rep, -1 - rep, t));
  }

  void Run(double deadline_ms, int max_jobs, Tracer* t,
           std::vector<JobRecord>* out) override {
    const int clients = cores_;
    std::atomic<int> next{0};
    std::vector<std::vector<JobRecord>> per_client(clients);
    std::vector<Tracer> tracers(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (;;) {
          if (deadline_ms > 0 && WallMs() >= deadline_ms) break;
          const int j = next.fetch_add(1);
          if (max_jobs >= 0 && j >= max_jobs) break;
          per_client[c].push_back(
              ClientJob(j, j, t ? &tracers[c] : nullptr));
          Finish();
        }
      });
    }
    for (std::thread& th : threads) th.join();
    for (int c = 0; c < clients; ++c) {
      for (JobRecord& r : per_client[c]) out->push_back(std::move(r));
      if (t) t->Merge(tracers[c]);
    }
  }

  int cycle() const override { return static_cast<int>(schedule_.size()); }

  common::Result<uint64_t> Oracle(const Spec& spec, Tracer* t) override {
    // The service runner's two paths, called directly. Untraced, the oracle
    // runs on every core (results do not depend on the thread count); traced,
    // on the jobs' own threads, because its spans give the per-layer times.
    engine::EngineConfig cfg;
    cfg.num_threads = t != nullptr ? kCallThreads : cores_;
    const engine::Engine eng(cfg);
    clustering::ClusteringResult r;
    if (spec.algorithm == "UK-means") {
      clustering::CkMeans::Params params;
      params.max_iters = kCkmeansMaxIters;
      ScopedSpan s(t, "clustering.ckmeans_file", -1, kCallThreads);
      auto file = clustering::CkMeans::ClusterFile(paths_[spec.dataset], k(),
                                                   spec.seed, params, eng);
      if (!file.ok()) return file.status();
      r = std::move(file).ValueOrDie();
    } else {
      common::Result<data::UncertainDataset> read = Read(spec.dataset, -1, t);
      if (!read.ok()) return read.status();
      auto c = clustering::MakeClusterer(spec.algorithm, eng);
      if (!c.ok()) return c.status();
      std::size_t json_bytes = 0;
      r = ClusterAndSerialize(*c.ValueOrDie(),
                              spec.algorithm == "UCPC" ? "clustering.ucpc"
                                                       : "clustering.mmvar",
                              read.ValueOrDie(), spec.seed, -1, t, &json_bytes);
    }
    return clustering::ResultFingerprint(r.labels, r.objective);
  }

  void Probe(Tracer* t, LayerFacts* facts) override {
    ProbeLloyd(t, facts);
    ProbeMomentIngest(t);
    auto m = service::HttpFetch(service_->port(), "GET", "/v1/metrics");
    if (!m.ok()) return;
    auto parsed = common::ParseJson(m.ValueOrDie().body);
    if (!parsed.ok()) return;
    for (const char* key : {"rejected", "admission_waits"}) {
      if (const common::JsonValue* v = parsed.ValueOrDie().Find(key)) {
        facts->values[std::string("service.") + key] = v->AsDouble();
      }
    }
    ProbeSimd(GenParams().m, facts);
  }

  void Teardown() override {
    if (service_) service_->Stop();
  }

 private:
  /// One REST caller's job: submit, poll until terminal, fetch the result.
  JobRecord ClientJob(int schedule_index, int j, Tracer* t) {
    JobRecord rec;
    const Spec& spec =
        schedule_[static_cast<std::size_t>(schedule_index) % schedule_.size()];
    common::JsonWriter body;
    body.BeginObject();
    body.KV("dataset_id", dataset_ids_[spec.dataset]);
    body.KV("algorithm", spec.algorithm);
    body.KV("k", k());
    body.KV("seed", static_cast<int64_t>(spec.seed));
    body.KV("max_iters", kCkmeansMaxIters);
    body.KV("include_labels", true);
    body.Key("engine");
    body.BeginObject();
    body.KV("threads", kCallThreads);
    body.EndObject();
    body.EndObject();
    const int port = service_->port();
    auto fail = [&](const std::string& what) {
      rec.failed = true;
      rec.error = what;
      return rec;
    };

    std::optional<common::JsonValue> status, result;
    std::size_t result_bytes = 0;
    {
      ScopedSpan job(t, "bench.job", j);
      const double t0 = WallMs();
      common::Result<service::HttpClientResponse> submit = [&] {
        ScopedSpan s(t, "service.submit", j);
        return service::HttpFetch(port, "POST", "/v1/jobs", body.str());
      }();
      if (!submit.ok() || submit.ValueOrDie().status != 202) {
        return fail("submit rejected: " +
                    (submit.ok() ? submit.ValueOrDie().body
                                 : submit.status().ToString()));
      }
      auto submitted = common::ParseJson(submit.ValueOrDie().body);
      if (!submitted.ok() || submitted.ValueOrDie().Find("job_id") == nullptr) {
        return fail("bad submit body");
      }
      const std::string id = submitted.ValueOrDie().Find("job_id")->AsString();
      std::string state;
      while (WallMs() - t0 < 120000) {
        ++rec.polls;
        common::Result<service::HttpClientResponse> poll = [&] {
          ScopedSpan s(t, "service.poll", j);
          return service::HttpFetch(port, "GET", "/v1/jobs/" + id);
        }();
        if (!poll.ok()) return fail(poll.status().ToString());
        auto parsed = common::ParseJson(poll.ValueOrDie().body);
        if (!parsed.ok() || parsed.ValueOrDie().Find("state") == nullptr) {
          return fail("bad status body");
        }
        state = parsed.ValueOrDie().Find("state")->AsString();
        if (state != "queued" && state != "running") {
          status = std::move(parsed).ValueOrDie();
          break;
        }
        ::usleep(2000);
      }
      if (state != "done") return fail("job " + id + " ended " + state);
      common::Result<service::HttpClientResponse> fetched = [&] {
        ScopedSpan s(t, "service.result", j);
        return service::HttpFetch(port, "GET", "/v1/jobs/" + id + "/result");
      }();
      if (!fetched.ok() || fetched.ValueOrDie().status != 200) {
        return fail("result fetch failed");
      }
      result_bytes = fetched.ValueOrDie().body.size();
      {
        ScopedSpan s(t, "common.parse_json", j);
        auto parsed = common::ParseJson(fetched.ValueOrDie().body);
        if (!parsed.ok()) return fail("result body is not JSON");
        result = std::move(parsed).ValueOrDie();
      }
      rec.latency_ms = WallMs() - t0;
    }
    const double queued = status->Find("queued_ms")->AsDouble();
    const double started = status->Find("started_ms")->AsDouble();
    const double finished = status->Find("finished_ms")->AsDouble();
    rec.queue_wait_ms = started - queued;
    rec.run_ms = finished - started;
    rec.http_overhead_ms = rec.latency_ms - (finished - queued);

    const common::JsonValue* payload = result->Find("result");
    if (payload == nullptr || payload->Find("fingerprint") == nullptr ||
        payload->Find("labels") == nullptr) {
      return fail("result lacks fingerprint or labels");
    }
    ResultRecord r;
    r.spec = spec;
    r.fingerprint = std::strtoull(
        payload->Find("fingerprint")->AsString().c_str(), nullptr, 16);
    r.iterations = static_cast<int>(payload->Find("iterations")->AsInt());
    r.cap = spec.algorithm == "UK-means"
                ? kCkmeansMaxIters
                : clustering::Ucpc::Params().max_passes;
    std::vector<int> labels;
    for (const common::JsonValue& v : payload->Find("labels")->items()) {
      labels.push_back(static_cast<int>(v.AsInt()));
    }
    r.n = labels.size();
    r.json_bytes = result_bytes;
    r.f_measure = eval::FMeasure(references_[spec.dataset], labels);
    rec.results.push_back(std::move(r));
    return rec;
  }

  /// The Lloyd loop of the UK-means jobs, on moment stores streamed from
  /// the files: timed at the jobs' thread count on a few datasets, with its
  /// iterations and bound counters, and at 1 thread versus every core.
  void ProbeLloyd(Tracer* t, LayerFacts* facts) {
    constexpr int kDatasetsProbed = 4;
    clustering::CkMeans::Params params;
    params.max_iters = kCkmeansMaxIters;
    engine::EngineConfig cfg;
    cfg.num_threads = kCallThreads;
    const engine::Engine eng(cfg);
    std::vector<double> iterations;
    double evals = 0, skipped = 0;
    for (int d = 0; d < kDatasetsProbed; ++d) {
      auto moments = Moments(d, eng, t);
      if (!moments.ok()) return;
      ScopedSpan s(t, "clustering.ckmeans_lloyd", -1, kCallThreads);
      const clustering::CkMeans::Outcome out =
          clustering::CkMeans::RunOnMoments(moments.ValueOrDie()->view(), k(),
                                            InitSeed(d), params, eng);
      iterations.push_back(out.iterations);
      evals += static_cast<double>(out.center_distance_evals);
      skipped += static_cast<double>(out.bounds_skipped);
    }
    facts->values["clustering.ckmeans_lloyd_iterations"] = Median(iterations);
    facts->values["clustering.center_distance_evals"] = evals / kDatasetsProbed;
    facts->values["clustering.bounds_skipped"] = skipped / kDatasetsProbed;
    facts->values["clustering.bound_skip_ratio"] =
        evals + skipped > 0 ? skipped / (evals + skipped) : 0;
    for (int threads : {1, cores_}) {
      engine::EngineConfig probe_cfg;
      probe_cfg.num_threads = threads;
      const engine::Engine probe_eng(probe_cfg);
      auto moments = Moments(0, probe_eng, t);
      if (!moments.ok()) return;
      ScopedSpan s(t, "clustering.ckmeans_lloyd_probe", -1, threads);
      clustering::CkMeans::RunOnMoments(moments.ValueOrDie()->view(), k(),
                                        InitSeed(0), params, probe_eng);
    }
  }

  std::unique_ptr<service::ClusteringService> service_;
  std::vector<std::string> dataset_ids_;
  std::vector<Spec> schedule_;
};

std::unique_ptr<Workload> MakeWorkload(const Options& o) {
  if (o.workload == "centroid_resident") {
    return std::make_unique<CentroidResident>(o.data_dir, o.seed);
  }
  if (o.workload == "sampled_out_of_core") {
    return std::make_unique<SampledOutOfCore>(o.data_dir, o.seed);
  }
  if (o.workload == "service_mixed") {
    return std::make_unique<ServiceMixed>(o.data_dir, o.seed);
  }
  return nullptr;
}

// ------------------------------------------------------------------- gate --

struct GateOutcome {
  long long attempted = 0;
  long long failed = 0;
  long long wrong_fingerprints = 0;
  long long capped = 0;
  long long results = 0;
  bool oracle_ok = true;
};

/// Checks every job's fingerprints against the layer-by-layer oracle of its
/// spec. A mismatch counts the job as failed; it never aborts the run.
GateOutcome Verify(Workload* w, std::vector<JobRecord>* jobs, Tracer* t) {
  GateOutcome g;
  std::map<std::string, uint64_t> oracle;
  for (JobRecord& job : *jobs) {
    ++g.attempted;
    bool bad = job.failed;
    for (const ResultRecord& r : job.results) {
      ++g.results;
      const std::string key = r.spec.Key();
      if (r.cap > 0 && r.iterations >= r.cap) {
        ++g.capped;
        std::printf("[perfbench] convergence guard: %s hit its cap (%d)\n",
                    key.c_str(), r.cap);
      }
      auto it = oracle.find(key);
      if (it == oracle.end()) {
        common::Result<uint64_t> fp = w->Oracle(r.spec, t);
        if (!fp.ok()) {
          std::fprintf(stderr, "perfbench: oracle %s: %s\n", key.c_str(),
                       fp.status().ToString().c_str());
          g.oracle_ok = false;
          bad = true;
          continue;
        }
        it = oracle.emplace(key, fp.ValueOrDie()).first;
      }
      if (it->second != r.fingerprint) {
        ++g.wrong_fingerprints;
        std::fprintf(stderr,
                     "perfbench: %s fingerprint %016llx != oracle %016llx\n",
                     key.c_str(), static_cast<unsigned long long>(r.fingerprint),
                     static_cast<unsigned long long>(it->second));
        bad = true;
      }
    }
    if (job.failed) {
      std::fprintf(stderr, "perfbench: job failed: %s\n", job.error.c_str());
    }
    job.failed = bad;
    if (bad) ++g.failed;
  }
  return g;
}

// ---------------------------------------------------------------- metrics --

/// Median duration of the spans named `name` that ran on `threads` threads
/// (any thread count when threads == 0); 0 when there are none.
double MedianSpanMs(const std::vector<Span>& spans, const std::string& name,
                    int threads = 0) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.name == name && (threads == 0 || s.threads == threads)) {
      d.push_back(s.duration_ms());
    }
  }
  return Median(d);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Where the traced passes sit in the span list, and what they cost.
struct TracedPasses {
  std::size_t span_begin = 0, span_end = 0;
  double wall_ms = 0;      // all traced passes
  double cpu_ms = 0;       // process CPU time during them
  double overhead_ms = 0;  // per pass: traced minus untraced wall time
};

/// Derives the per-layer metrics from the traced pass, the oracle and the
/// probes.
std::map<std::string, double> LayerMetrics(const Workload& w,
                                           const std::vector<Span>& spans,
                                           const TracedPasses& passes,
                                           const std::vector<JobRecord>& jobs,
                                           const LayerFacts& facts) {
  std::map<std::string, double> m;
  m["io.read_ms"] = MedianSpanMs(spans, "io.read");
  m["io.read_mb_per_s"] = Ratio(w.file_bytes() / 1e6, m["io.read_ms"] / 1e3);
  m["io.moment_ingest_ms"] =
      MedianSpanMs(spans, "io.moment_ingest", kCallThreads);
  m["io.moment_ingest_speedup"] =
      Ratio(MedianSpanMs(spans, "io.moment_ingest_probe", 1),
            MedianSpanMs(spans, "io.moment_ingest_probe", w.cores()));
  m["io.sample_sidecar_build_ms"] = MedianSpanMs(spans, "io.sample_sidecar_build");
  m["uncertain.moments_ms"] = MedianSpanMs(spans, "uncertain.moments");
  m["uncertain.sample_store_open_ms"] =
      MedianSpanMs(spans, "uncertain.sample_store_open");

  // Cluster() of each algorithm at the workload's own thread count, and the
  // 1-thread versus all-core probe for the speedup.
  const std::vector<std::pair<std::string, std::string>> algos = {
      {"ucpc", "UCPC"},          {"mmvar", "MMVar"},
      {"ckmeans_lloyd", ""},     {"ukmedoids", "UK-medoids"},
      {"fdbscan", "FDBSCAN"}};
  for (const auto& [key, algorithm] : algos) {
    const std::string span = "clustering." + key;
    const double at_n = MedianSpanMs(spans, span, kCallThreads);
    m[span + "_ms"] = at_n;
    m[span + "_speedup"] =
        Ratio(MedianSpanMs(spans, span + "_probe", 1),
              MedianSpanMs(spans, span + "_probe", w.cores()));
    if (algorithm.empty()) continue;
    std::vector<double> its;
    for (const JobRecord& job : jobs) {
      for (const ResultRecord& r : job.results) {
        if (r.spec.algorithm == algorithm) its.push_back(r.iterations);
      }
    }
    m[span + "_iterations"] = Median(its);
  }
  m["clustering.ckmeans_file_ms"] =
      MedianSpanMs(spans, "clustering.ckmeans_file", kCallThreads);

  // Work counters: mean per result.
  double evals = 0, skipped = 0, ed = 0, pairs = 0, table_peak = 0, hits = 0,
         misses = 0, pruned = 0, cand = 0, tests = 0, base = 0;
  double json_bytes = 0;
  std::size_t results = 0, json_n = 0;
  for (const JobRecord& job : jobs) {
    for (const ResultRecord& r : job.results) {
      const clustering::ClusteringResult& c = r.counters;
      ++results;
      evals += static_cast<double>(c.center_distance_evals);
      skipped += static_cast<double>(c.bounds_skipped);
      ed += static_cast<double>(c.ed_evaluations);
      pairs += static_cast<double>(c.pair_evaluations);
      table_peak = std::max(table_peak, static_cast<double>(c.table_bytes_peak));
      hits += static_cast<double>(c.tile_warm_hits);
      misses += static_cast<double>(c.tile_warm_misses);
      pruned += static_cast<double>(c.pairs_pruned);
      cand += static_cast<double>(c.index_candidates);
      tests += static_cast<double>(c.index_bound_tests);
      if (c.index_candidates > 0) {
        const double n = static_cast<double>(r.n);
        base += n * (n - 1) / 2;
      }
      if (r.json_bytes > 0) {
        json_bytes += static_cast<double>(r.json_bytes);
        ++json_n;
      }
    }
  }
  const double per = results > 0 ? 1.0 / static_cast<double>(results) : 0;
  m["clustering.center_distance_evals"] = evals * per;
  m["clustering.bounds_skipped"] = skipped * per;
  m["clustering.bound_skip_ratio"] = Ratio(skipped, evals + skipped);
  m["clustering.ed_evaluations"] = ed * per;
  m["clustering.pairwise_store.pair_evaluations"] = pairs * per;
  m["clustering.pairwise_store.table_bytes_peak"] = table_peak;
  m["clustering.pairwise_store.warm_hit_ratio"] = Ratio(hits, hits + misses);
  m["clustering.pairwise_store.pairs_pruned"] = pruned * per;
  m["clustering.spatial_index.candidates"] = cand * per;
  m["clustering.spatial_index.bound_tests"] = tests * per;
  m["clustering.spatial_index.selectivity"] = Ratio(cand, base);

  // Service timings straight from the job routes.
  std::vector<double> wait, run, http, polls;
  for (const JobRecord& job : jobs) {
    if (job.polls == 0) continue;
    wait.push_back(job.queue_wait_ms);
    run.push_back(job.run_ms);
    http.push_back(job.http_overhead_ms);
    polls.push_back(job.polls);
  }
  m["service.queue_wait_ms"] = Median(wait);
  m["service.run_ms"] = Median(run);
  m["service.http_overhead_ms"] = Median(http);
  m["service.polls_per_job"] =
      polls.empty() ? 0
                    : std::accumulate(polls.begin(), polls.end(), 0.0) /
                          static_cast<double>(polls.size());

  m["common.result_json_ms"] = MedianSpanMs(spans, "common.result_json");
  m["common.result_json_bytes"] =
      json_n > 0 ? json_bytes / static_cast<double>(json_n) : 0;

  // Self time per layer over the traced pass, per job.
  const std::vector<Span> traced(
      spans.begin() + static_cast<long>(passes.span_begin),
      spans.begin() + static_cast<long>(passes.span_end));
  const std::map<std::string, double> self =
      SelfTimeByLayer(spans, passes.span_begin, passes.span_end);
  const double per_job = jobs.empty() ? 0 : 1.0 / static_cast<double>(jobs.size());
  for (const char* layer :
       {"io", "uncertain", "clustering", "service", "common", "bench"}) {
    auto it = self.find(layer);
    m[std::string(layer) + ".self_ms"] =
        it == self.end() ? 0 : it->second * per_job;
  }

  // CPU use of the engine's parallel calls. Behind the service those calls
  // run in the server's executors, out of the client's sight, so there the
  // whole traced pass is measured against every core.
  double cpu = 0, capacity = 0;
  for (const Span& s : traced) {
    if (LayerOf(s.name) == "clustering" || LayerOf(s.name) == "io") {
      cpu += s.cpu_ms;
      capacity += s.duration_ms() * s.threads;
    }
  }
  if (capacity == 0) {
    cpu = passes.cpu_ms;
    capacity = passes.wall_ms * w.cores();
  }
  m["engine.threads"] = kCallThreads;
  m["engine.cpu_util"] = Ratio(cpu, capacity);
  m["trace.overhead_ms"] = passes.overhead_ms;
  m["trace.spans"] = static_cast<double>(spans.size());
  // Probe facts last: they replace what the job results leave at 0.
  for (const auto& [name, value] : facts.values) m[name] = value;
  return m;
}

// ------------------------------------------------------------------- main --

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--generate") {
      o->generate = true;
      continue;
    }
    if (a != "--workload" && a != "--seed" && a != "--seconds" &&
        a != "--trace" && a != "--data_dir" && a != "--trace_out") {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", a.c_str());
      return false;
    }
    if ((v = value()) == nullptr) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", a.c_str());
      return false;
    }
    char* end = nullptr;
    if (a == "--workload") o->workload = v;
    if (a == "--data_dir") o->data_dir = v;
    if (a == "--trace_out") o->trace_out = v;
    if (a == "--seed") o->seed = std::strtoull(v, &end, 10);
    if (a == "--seconds") o->seconds = std::strtod(v, &end);
    if (a == "--trace") o->trace = std::strtol(v, &end, 10) != 0;
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", a.c_str(), v);
      return false;
    }
  }
  if (o->workload.empty() || o->data_dir.empty() || o->seconds <= 0) {
    std::fprintf(stderr, "perfbench: --workload, --data_dir and a positive "
                         "--seconds are required\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return 2;
  std::unique_ptr<Workload> w = MakeWorkload(o);
  if (!w) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  if (o.generate) {
    const common::Status st = w->Generate();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: generate: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (const common::Status st = w->Prepare(); !st.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("[perfbench] workload=%s seed=%llu n=%zu threads=%d cores=%d "
              "isa=%s trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              w->n(), kCallThreads, w->cores(),
              clustering::simd::IsaName(clustering::simd::ActiveIsa()).c_str(),
              o.trace ? 1 : 0);

  Tracer tracer;
  Tracer* t = o.trace ? &tracer : nullptr;
  std::vector<double> setup_s;
  double setup_total = 0;
  for (int rep = 0;; ++rep) {
    if (o.trace ? rep == 1
                : rep >= kMaxSetups ||
                      (rep >= kMinSetups && setup_total >= kSetupBudgetS)) {
      break;
    }
    const double t0 = WallMs();
    const common::Status st = w->Setup(rep, t);
    setup_s.push_back((WallMs() - t0) / 1e3);
    setup_total += setup_s.back();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup: %s\n", st.ToString().c_str());
      w->Teardown();
      return 1;
    }
  }

  std::vector<JobRecord> jobs;
  std::vector<Metric> metrics;
  GateOutcome gate;
  if (!o.trace) {
    w->SetRssMark(kRssMarkCycles * w->cycle());
    const double t0 = WallMs();
    w->Run(t0 + o.seconds * 1e3, -1, nullptr, &jobs);
    const double wall_s = (WallMs() - t0) / 1e3;
    // Before the oracle allocates.
    const double peak =
        w->rss_at_mark() > 0 ? w->rss_at_mark() : PeakRssMiB();
    gate = Verify(w.get(), &jobs, nullptr);
    std::vector<double> lat;
    double objects = 0, f_sum = 0;
    std::size_t f_n = 0;
    for (const JobRecord& job : jobs) {
      lat.push_back(job.latency_ms);
      for (const ResultRecord& r : job.results) {
        f_sum += r.f_measure;
        ++f_n;
        if (!job.failed) objects += static_cast<double>(r.n);
      }
    }
    const std::map<std::string, double> e2e = {
        {"setup_s", Median(setup_s)},
        {"job_p50_ms", Median(lat)},
        {"objects_per_s", Ratio(objects, wall_s)},
        {"peak_rss_mb", peak},
        {"f_measure", f_n > 0 ? f_sum / static_cast<double>(f_n) : 0},
    };
    for (const MetricSpec& spec : EndToEndMetrics()) {
      metrics.push_back({spec.name, spec.unit, e2e.at(spec.name)});
    }
    std::printf("[perfbench] setup_s = %.4f s (median of %zu set-ups)\n",
                Median(setup_s), setup_s.size());
    std::printf("[perfbench] job_p50_ms = %.3f ms (%zu jobs, %zu cycles of %d "
                "distinct jobs)\n",
                Median(lat), lat.size(), lat.size() / w->cycle(), w->cycle());
    // The tail is printed, not gated: across runs it moves with the host's
    // load far more than the median does.
    std::printf("[perfbench] job_p90_ms = %.3f ms (%zu jobs, %zu beyond p90%s)\n",
                Percentile(lat, 90), lat.size(), SamplesBeyond(lat.size(), 90),
                PercentileResolved(lat.size(), 90)
                    ? ""
                    : "; fewer than 10, so read it as a high-water mark");
    std::printf("[perfbench] objects_per_s = %.1f objects/s (%.0f objects in "
                "%.3f s)\n",
                Ratio(objects, wall_s), objects, wall_s);
    std::printf("[perfbench] peak_rss_mb = %.2f MiB (VmHWM after %zu jobs)\n",
                peak,
                w->rss_at_mark() > 0
                    ? static_cast<std::size_t>(kRssMarkCycles * w->cycle())
                    : jobs.size());
    std::printf("[perfbench] f_measure = %.6f F (mean of %zu results)\n",
                f_n > 0 ? f_sum / static_cast<double>(f_n) : 0, f_n);
  } else {
    // Rounds of the same jobs untraced, traced, traced, untraced, for
    // --seconds: the traced wall time minus the untraced one is the tracing
    // overhead, and the symmetric order cancels drift between passes. The
    // traced oracle and the probes follow.
    const int count = o.workload == "service_mixed" ? kServiceTracedJobs
                                                    : kTracedJobs;
    TracedPasses passes;
    passes.span_begin = tracer.spans().size();
    double untraced_ms = 0, traced_ms = 0;
    int rounds = 0;
    const double start = WallMs();
    do {
      for (const bool traced : {false, true, true, false}) {
        std::vector<JobRecord> untraced;
        const double t0 = WallMs(), cpu0 = ProcessCpuMs();
        w->Run(0, count, traced ? t : nullptr, traced ? &jobs : &untraced);
        (traced ? traced_ms : untraced_ms) += WallMs() - t0;
        if (traced) passes.cpu_ms += ProcessCpuMs() - cpu0;
      }
      ++rounds;
    } while (WallMs() - start < o.seconds * 1e3);
    passes.span_end = tracer.spans().size();
    passes.wall_ms = traced_ms;
    passes.overhead_ms = (traced_ms - untraced_ms) / (2 * rounds);
    gate = Verify(w.get(), &jobs, t);
    LayerFacts facts;
    w->Probe(t, &facts);
    const std::map<std::string, double> layer =
        LayerMetrics(*w, tracer.spans(), passes, jobs, facts);
    for (const MetricSpec& spec : PerLayerMetrics()) {
      auto it = layer.find(spec.name);
      metrics.push_back(
          {spec.name, spec.unit, it == layer.end() ? 0 : it->second});
      std::printf("[perfbench] %s = %.6g %s\n", spec.name,
                  metrics.back().value, spec.unit);
    }
    for (const auto& [name, label] : facts.labels) {
      std::printf("[perfbench] %s = %s (label)\n", name.c_str(), label.c_str());
    }
    if (!o.trace_out.empty() && !WriteSpans(tracer.spans(), o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
    }
  }
  w->Teardown();
  std::printf("[perfbench] error_rate = %.6f (%lld failed of %lld jobs; %lld "
              "wrong fingerprints)\n",
              Ratio(static_cast<double>(gate.failed),
                    static_cast<double>(gate.attempted)),
              gate.failed, gate.attempted, gate.wrong_fingerprints);
  std::printf("[perfbench] convergence guard: %lld of %lld results at their "
              "iteration cap\n",
              gate.capped, gate.results);
  const bool correct =
      gate.attempted > 0 && gate.failed == 0 && gate.oracle_ok;
  std::printf("%s\n",
              ResultLine(correct, gate.attempted, gate.failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
