// Tests for the service layer: JobSpec validation, the dataset registry,
// admission control (serialization of over-budget jobs, rejection at
// submit), job lifecycle + cancellation, the canonical ClusteringResult
// serialization against its golden file, and the full REST route surface
// through ClusteringService::Handle (socket-free) — including a
// fingerprint match between a service job and a direct in-process run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "clustering/ckmeans.h"
#include "clustering/registry.h"
#include "clustering/result_json.h"
#include "common/json.h"
#include "data/synthetic_gen.h"
#include "service/dataset_registry.h"
#include "service/job_manager.h"
#include "service/job_spec.h"
#include "service/log.h"
#include "service/service.h"

namespace uclust::service {
namespace {

// One small labeled dataset file shared by every test in this binary.
const std::string& TestDatasetPath() {
  static const std::string path = [] {
    const std::string p = testing::TempDir() + "/uclust_service_test.ubin";
    data::SyntheticGenParams params;
    params.n = 120;
    params.m = 4;
    params.classes = 3;
    params.seed = 7;
    const common::Status st =
        data::WriteSyntheticDataset(params, p, "service-test");
    if (!st.ok()) {
      std::fprintf(stderr, "fixture dataset: %s\n", st.ToString().c_str());
      std::abort();
    }
    return p;
  }();
  return path;
}

// ------------------------------------------------------------- JobSpec --

TEST(JobSpec, MinimalValidBody) {
  auto spec = JobSpec::FromJson("{\"dataset_id\": \"ds-1\", \"k\": 3}");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.ValueOrDie().dataset_id, "ds-1");
  EXPECT_EQ(spec.ValueOrDie().k, 3);
  EXPECT_EQ(spec.ValueOrDie().algorithm, "CK-means");
  EXPECT_EQ(spec.ValueOrDie().max_iters, 100);
  EXPECT_TRUE(spec.ValueOrDie().include_labels);
}

TEST(JobSpec, FullBodyWithEngineKnobs) {
  auto spec = JobSpec::FromJson(
      "{\"dataset_id\": \"ds-2\", \"algorithm\": \"UK-means\", \"k\": 8,"
      " \"seed\": 42, \"max_iters\": 25, \"include_labels\": false,"
      " \"engine\": {\"threads\": 4, \"memory_budget_mb\": 64,"
      "              \"block_size\": 256}}");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const JobSpec& s = spec.ValueOrDie();
  EXPECT_EQ(s.algorithm, "UK-means");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.max_iters, 25);
  EXPECT_FALSE(s.include_labels);
  EXPECT_EQ(s.engine.num_threads, 4);
  EXPECT_EQ(s.engine.memory_budget_bytes, 64u * 1024 * 1024);
  EXPECT_EQ(s.engine.block_size, 256u);
  EXPECT_EQ(s.engine_knobs.size(), 3u);
}

TEST(JobSpec, RejectsInvalidBodies) {
  EXPECT_FALSE(JobSpec::FromJson("not json").ok());
  EXPECT_FALSE(JobSpec::FromJson("[]").ok());  // must be an object
  EXPECT_FALSE(JobSpec::FromJson("{\"k\": 3}").ok());  // no dataset_id
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\"}").ok());  // no k
  EXPECT_FALSE(
      JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 0}").ok());
  EXPECT_FALSE(
      JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": -2}").ok());
  // Unknown top-level keys are errors, not silently ignored.
  EXPECT_FALSE(
      JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3, \"kk\": 1}")
          .ok());
  // Unknown algorithm.
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3,"
                                 " \"algorithm\": \"Z-means\"}")
                   .ok());
  // Unknown engine knob, and a fractional value for an integer knob.
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3,"
                                 " \"engine\": {\"warp_drive\": 1}}")
                   .ok());
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3,"
                                 " \"engine\": {\"threads\": 1.5}}")
                   .ok());
  EXPECT_FALSE(JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3,"
                                 " \"engine\": {\"threads\": 1e30}}")
                   .ok());
}

// The exactness-preserving A/B toggles and the chunk/batch size hints (the
// memory budget sizes those) are gone from the knob table; a request still
// naming one fails validation and says which key.
TEST(JobSpec, RejectsRemovedEngineKnobs) {
  for (const char* knob :
       {"pairwise_gather_tiles", "pairwise_warm_rows", "pairwise_pruned_sweeps",
        "ukmeans_ckmeans_reduction", "ukmeans_bound_pruning",
        "spatial_index", "moment_chunk_rows", "sample_chunk_rows",
        "ukmeans_minibatch_size"}) {
    auto spec = JobSpec::FromJson(
        std::string("{\"dataset_id\": \"d\", \"k\": 3, \"engine\": {\"") +
        knob + "\": true}}");
    ASSERT_FALSE(spec.ok()) << knob;
    EXPECT_EQ(spec.status().code(), common::StatusCode::kInvalidArgument)
        << knob;
    EXPECT_NE(spec.status().message().find(knob), std::string::npos)
        << spec.status().ToString();
  }
}

TEST(JobSpec, ToJsonRoundTrips) {
  auto spec = JobSpec::FromJson(
      "{\"dataset_id\": \"ds-1\", \"k\": 5, \"seed\": 9,"
      " \"engine\": {\"threads\": 2}}");
  ASSERT_TRUE(spec.ok());
  auto reparsed = JobSpec::FromJson(spec.ValueOrDie().ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.ValueOrDie().dataset_id, "ds-1");
  EXPECT_EQ(reparsed.ValueOrDie().k, 5);
  EXPECT_EQ(reparsed.ValueOrDie().seed, 9u);
  EXPECT_EQ(reparsed.ValueOrDie().engine.num_threads, 2);
}

TEST(JobSpec, SeedRangeIsExactUpToTwoToThe53) {
  const auto with_seed = [](const std::string& seed) {
    return JobSpec::FromJson("{\"dataset_id\": \"d\", \"k\": 3, \"seed\": " +
                             seed + "}");
  };
  // 2^53 is the largest accepted seed and round-trips through ToJson.
  auto top = with_seed("9007199254740992");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  EXPECT_EQ(top.ValueOrDie().seed, uint64_t{1} << 53);
  auto reparsed = JobSpec::FromJson(top.ValueOrDie().ToJson());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.ValueOrDie().seed, uint64_t{1} << 53);
  // Above it a double cannot hold the seed: 2^53 + 1 would silently
  // cluster with 2^53, and INT64_MAX would round to 2^63.
  for (const char* seed :
       {"9007199254740993", "9223372036854775807", "99999999999999999999",
        "1e19", "-1"}) {
    auto r = with_seed(seed);
    ASSERT_FALSE(r.ok()) << seed;
    EXPECT_EQ(r.status().code(), common::StatusCode::kOutOfRange) << seed;
  }
}

// ----------------------------------------------------- DatasetRegistry --

TEST(DatasetRegistry, RegisterValidatesAndDedupes) {
  DatasetRegistry registry;
  auto first = registry.Register(TestDatasetPath());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  const DatasetInfo& info = first.ValueOrDie();
  EXPECT_EQ(info.id, "ds-1");
  EXPECT_EQ(info.n, 120u);
  EXPECT_EQ(info.m, 4u);
  EXPECT_EQ(info.num_classes, 3);
  EXPECT_TRUE(info.has_labels);
  EXPECT_GT(info.file_bytes, 0u);

  // Same path again: same id, updated sidecar.
  auto again = registry.Register(TestDatasetPath(),
                                 TestDatasetPath() + ".umom");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.ValueOrDie().id, "ds-1");
  EXPECT_EQ(again.ValueOrDie().moments_path, TestDatasetPath() + ".umom");
  EXPECT_EQ(registry.size(), 1u);

  auto got = registry.Get("ds-1");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.ValueOrDie().path, TestDatasetPath());
  EXPECT_FALSE(registry.Get("ds-99").ok());
  EXPECT_EQ(registry.List().size(), 1u);
}

TEST(DatasetRegistry, RejectsBadInputs) {
  DatasetRegistry registry;
  EXPECT_FALSE(registry.Register("/nonexistent/file.ubin").ok());
  // A sidecar path must carry the .umom extension.
  EXPECT_FALSE(
      registry.Register(TestDatasetPath(), "/tmp/not_a_sidecar.bin").ok());
  EXPECT_EQ(registry.size(), 0u);
}

// ---------------------------------------------------------- JobManager --

JobSpec SpecFor(const std::string& dataset_id, std::size_t budget = 0) {
  JobSpec spec;
  spec.dataset_id = dataset_id;
  spec.k = 3;
  spec.engine.memory_budget_bytes = budget;
  return spec;
}

// A runner that blocks until released, tracking concurrency. The latch
// lets tests hold jobs "running" deterministically.
struct BlockingRunner {
  std::mutex mu;
  std::condition_variable cv;
  bool released = false;
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};

  JobManagerConfig::Runner AsRunner() {
    return [this](const JobSpec&, const DatasetInfo&,
                  const engine::EngineConfig&) {
      const int now = ++concurrent;
      int prev = peak.load();
      while (prev < now && !peak.compare_exchange_weak(prev, now)) {
      }
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [this] { return released; });
      }
      --concurrent;
      return common::Result<clustering::ClusteringResult>(
          clustering::ClusteringResult{});
    };
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu);
    released = true;
    cv.notify_all();
  }
};

TEST(JobManager, OverBudgetConcurrentJobsSerialize) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  constexpr std::size_t kPool = 1u << 20;
  JobManagerConfig cfg;
  cfg.executors = 2;
  cfg.global_budget_bytes = kPool;
  // Each job wants 3/4 of the pool: two can never run together.
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  cfg.runner_override = [&](const JobSpec&, const DatasetInfo&,
                            const engine::EngineConfig& engine_cfg)
      -> common::Result<clustering::ClusteringResult> {
    // Admission wrote the granted budget into the job's engine config.
    EXPECT_EQ(engine_cfg.memory_budget_bytes, kPool * 3 / 4);
    const int now = ++concurrent;
    int prev = peak.load();
    while (prev < now && !peak.compare_exchange_weak(prev, now)) {
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    --concurrent;
    return clustering::ClusteringResult{};
  };
  JobManager manager(&registry, cfg);
  manager.Start();

  auto a = manager.Submit(SpecFor("ds-1", kPool * 3 / 4), "r-a");
  auto b = manager.Submit(SpecFor("ds-1", kPool * 3 / 4), "r-b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(manager.Wait(a.ValueOrDie(), 10000));
  EXPECT_TRUE(manager.Wait(b.ValueOrDie(), 10000));

  const JobMetrics metrics = manager.Metrics();
  EXPECT_EQ(metrics.completed, 2u);
  EXPECT_EQ(metrics.max_running_concurrent, 1u);  // serialized
  EXPECT_EQ(peak.load(), 1);
  EXPECT_GE(metrics.admission_waits, 1u);
  EXPECT_EQ(metrics.budget_in_use_bytes, 0u);
  manager.Stop();
}

TEST(JobManager, WithinBudgetJobsRunConcurrently) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.executors = 2;
  cfg.global_budget_bytes = 1u << 20;
  BlockingRunner runner;
  cfg.runner_override = runner.AsRunner();
  JobManager manager(&registry, cfg);
  manager.Start();

  // Two jobs at 1/4 pool each fit together.
  auto a = manager.Submit(SpecFor("ds-1", 1u << 18), "r-a");
  auto b = manager.Submit(SpecFor("ds-1", 1u << 18), "r-b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Wait until both are held inside the runner, then release.
  for (int i = 0; i < 500 && runner.concurrent.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(runner.concurrent.load(), 2);
  runner.Release();
  EXPECT_TRUE(manager.Wait(a.ValueOrDie(), 10000));
  EXPECT_TRUE(manager.Wait(b.ValueOrDie(), 10000));
  EXPECT_EQ(manager.Metrics().max_running_concurrent, 2u);
  manager.Stop();
}

TEST(JobManager, OverGlobalBudgetRejectedAtSubmit) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.global_budget_bytes = 1u << 20;
  JobManager manager(&registry, cfg);
  manager.Start();

  auto r = manager.Submit(SpecFor("ds-1", 1u << 21), "r-big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kOutOfRange);
  EXPECT_EQ(manager.Metrics().rejected, 1u);
  EXPECT_EQ(manager.Metrics().submitted, 0u);
  manager.Stop();
}

TEST(JobManager, UnbudgetedJobClaimsWholePool) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.executors = 1;
  cfg.global_budget_bytes = 1u << 20;
  BlockingRunner runner;
  cfg.runner_override = runner.AsRunner();
  JobManager manager(&registry, cfg);
  manager.Start();

  auto id = manager.Submit(SpecFor("ds-1", 0), "r-whole");
  ASSERT_TRUE(id.ok());
  auto snap = manager.Get(id.ValueOrDie());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.ValueOrDie().effective_budget_bytes, 1u << 20);
  runner.Release();
  EXPECT_TRUE(manager.Wait(id.ValueOrDie(), 10000));
  manager.Stop();
}

TEST(JobManager, QueueFullRejects) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.executors = 1;
  cfg.queue_capacity = 1;
  BlockingRunner runner;
  cfg.runner_override = runner.AsRunner();
  JobManager manager(&registry, cfg);
  manager.Start();

  // First job occupies the lane; wait until it is actually running so the
  // queue is empty again.
  auto running = manager.Submit(SpecFor("ds-1"), "r-1");
  ASSERT_TRUE(running.ok());
  for (int i = 0; i < 500 && runner.concurrent.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Second fills the queue; third must be rejected.
  ASSERT_TRUE(manager.Submit(SpecFor("ds-1"), "r-2").ok());
  auto overflow = manager.Submit(SpecFor("ds-1"), "r-3");
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), common::StatusCode::kOutOfRange);
  EXPECT_NE(overflow.status().message().find("queue full"),
            std::string::npos);
  runner.Release();
  manager.Stop();
}

TEST(JobManager, CancelSemantics) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.executors = 1;
  BlockingRunner runner;
  cfg.runner_override = runner.AsRunner();
  JobManager manager(&registry, cfg);
  manager.Start();

  auto running = manager.Submit(SpecFor("ds-1"), "r-run");
  auto queued = manager.Submit(SpecFor("ds-1"), "r-queued");
  ASSERT_TRUE(running.ok());
  ASSERT_TRUE(queued.ok());
  for (int i = 0; i < 500 && runner.concurrent.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Unknown id.
  EXPECT_EQ(manager.Cancel("j-99").code(), common::StatusCode::kNotFound);
  // Running: refused (the API maps this to 409).
  EXPECT_EQ(manager.Cancel(running.ValueOrDie()).code(),
            common::StatusCode::kInvalidArgument);
  // Queued: cancelled, and cancelling again is an idempotent no-op.
  EXPECT_TRUE(manager.Cancel(queued.ValueOrDie()).ok());
  EXPECT_TRUE(manager.Cancel(queued.ValueOrDie()).ok());
  auto snap = manager.Get(queued.ValueOrDie());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.ValueOrDie().state, JobState::kCancelled);
  EXPECT_EQ(manager.Metrics().cancelled, 1u);

  runner.Release();
  EXPECT_TRUE(manager.Wait(running.ValueOrDie(), 10000));
  manager.Stop();
}

TEST(JobManager, FailedJobCarriesError) {
  DatasetRegistry registry;
  ASSERT_TRUE(registry.Register(TestDatasetPath()).ok());

  JobManagerConfig cfg;
  cfg.runner_override = [](const JobSpec&, const DatasetInfo&,
                           const engine::EngineConfig&)
      -> common::Result<clustering::ClusteringResult> {
    return common::Status::Internal("synthetic failure");
  };
  JobManager manager(&registry, cfg);
  manager.Start();

  auto id = manager.Submit(SpecFor("ds-1"), "r-fail");
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(manager.Wait(id.ValueOrDie(), 10000));
  auto snap = manager.Get(id.ValueOrDie());
  ASSERT_TRUE(snap.ok());
  EXPECT_EQ(snap.ValueOrDie().state, JobState::kFailed);
  EXPECT_NE(snap.ValueOrDie().error.find("synthetic failure"),
            std::string::npos);
  EXPECT_EQ(manager.Metrics().failed, 1u);
  manager.Stop();
}

TEST(JobManager, UnknownDatasetRejectedAtSubmit) {
  DatasetRegistry registry;
  JobManager manager(&registry, JobManagerConfig{});
  manager.Start();
  auto r = manager.Submit(SpecFor("ds-1"), "r-x");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), common::StatusCode::kNotFound);
  manager.Stop();
}

// ----------------------------------------------------------- golden file --

TEST(ResultJson, MatchesGoldenFile) {
  clustering::ClusteringResult r;
  r.labels = {0, 1, 2, 0, 1, 2, 0, 1};
  r.k_requested = 3;
  r.clusters_found = 3;
  r.iterations = 12;
  r.objective = 352.23825496742165;
  r.online_ms = 4.5;
  r.offline_ms = 1.25;
  r.ed_evaluations = 960;
  r.noise_objects = 0;
  r.pairwise_backend = "tiled";
  r.table_bytes_peak = 8192;
  r.pair_evaluations = 28;
  r.tile_warm_hits = 11;
  r.tile_warm_misses = 3;
  r.pairs_pruned = 7;
  r.center_distance_evals = 288;
  r.bounds_skipped = 96;
  r.index_candidates = 18;
  r.pairs_pruned_by_index = 10;
  r.index_bound_tests = 42;

  const std::string golden_path =
      std::string(UCLUST_GOLDEN_DIR) + "/clustering_result.json";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file: " << golden_path;
  std::ostringstream contents;
  contents << in.rdbuf();

  // Byte-for-byte: field order, formatting, and the fingerprint are all
  // part of the canonical serialization contract.
  EXPECT_EQ(clustering::ResultToJson(r, /*include_labels=*/true),
            contents.str());

  // And the document must stay parseable by our own parser.
  auto parsed = common::ParseJson(contents.str());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.ValueOrDie().Find("k_requested")->AsInt(), 3);
  EXPECT_EQ(parsed.ValueOrDie().Find("labels")->items().size(), 8u);
}

// ------------------------------------------------------------- service --

HttpRequest Req(const std::string& method, const std::string& target,
                const std::string& body = "") {
  HttpRequest req;
  req.method = method;
  req.target = target;
  req.version = "HTTP/1.1";
  req.body = body;
  return req;
}

TEST(ClusteringService, EndToEndMatchesDirectRun) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  ClusteringService svc(cfg);
  svc.jobs().Start();

  // Routes that need no state.
  EXPECT_EQ(svc.Handle(Req("GET", "/healthz")).status, 200);
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/algorithms")).status, 200);
  EXPECT_EQ(svc.Handle(Req("GET", "/nope")).status, 404);
  EXPECT_EQ(svc.Handle(Req("POST", "/v1/jobs", "{oops")).status, 400);
  // An out-of-range spec value is a validation error, not a capacity 429.
  EXPECT_EQ(svc.Handle(Req("POST", "/v1/jobs",
                           "{\"dataset_id\": \"d\", \"k\": 3,"
                           " \"seed\": 9007199254740993}"))
                .status,
            400);
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/j-404")).status, 404);

  // Register the fixture dataset.
  HttpResponse reg = svc.Handle(
      Req("POST", "/v1/datasets", "{\"path\": \"" + TestDatasetPath() + "\"}"));
  ASSERT_EQ(reg.status, 201) << reg.body;
  auto reg_json = common::ParseJson(reg.body);
  ASSERT_TRUE(reg_json.ok());
  const std::string ds_id = reg_json.ValueOrDie().Find("id")->AsString();
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/datasets/" + ds_id)).status, 200);

  // Submit a CK-means job.
  HttpResponse submit = svc.Handle(Req(
      "POST", "/v1/jobs",
      "{\"dataset_id\": \"" + ds_id +
          "\", \"algorithm\": \"CK-means\", \"k\": 3, \"seed\": 11,"
          " \"max_iters\": 30}"));
  ASSERT_EQ(submit.status, 202) << submit.body;
  auto submit_json = common::ParseJson(submit.body);
  ASSERT_TRUE(submit_json.ok());
  const std::string job_id =
      submit_json.ValueOrDie().Find("job_id")->AsString();

  ASSERT_TRUE(svc.jobs().Wait(job_id, 30000));
  HttpResponse status = svc.Handle(Req("GET", "/v1/jobs/" + job_id));
  ASSERT_EQ(status.status, 200);
  auto status_json = common::ParseJson(status.body);
  ASSERT_TRUE(status_json.ok());
  ASSERT_EQ(status_json.ValueOrDie().Find("state")->AsString(), "done")
      << status.body;

  HttpResponse result = svc.Handle(Req("GET", "/v1/jobs/" + job_id +
                                       "/result"));
  ASSERT_EQ(result.status, 200) << result.body;
  auto result_json = common::ParseJson(result.body);
  ASSERT_TRUE(result_json.ok());
  const common::JsonValue* res = result_json.ValueOrDie().Find("result");
  ASSERT_NE(res, nullptr);
  const std::string service_fp = res->Find("fingerprint")->AsString();

  // The same job run directly in-process must be bit-identical.
  clustering::CkMeans::Params params;
  params.max_iters = 30;
  auto direct = clustering::CkMeans::ClusterFile(TestDatasetPath(), 3, 11,
                                                 params);
  ASSERT_TRUE(direct.ok());
  const std::string direct_fp =
      clustering::FingerprintHex(clustering::ResultFingerprint(
          direct.ValueOrDie().labels, direct.ValueOrDie().objective));
  EXPECT_EQ(service_fp, direct_fp);

  // Metrics reflect the run.
  HttpResponse metrics = svc.Handle(Req("GET", "/v1/metrics"));
  ASSERT_EQ(metrics.status, 200);
  auto metrics_json = common::ParseJson(metrics.body);
  ASSERT_TRUE(metrics_json.ok());
  EXPECT_GE(metrics_json.ValueOrDie().Find("completed")->AsInt(), 1);

  svc.Stop();
  SetLogEnabled(true);
}

// k is checked against the registered dataset's n at submit, for every
// algorithm: k = n is accepted, k = n + 1 is a 400 counted as rejected.
// (Several algorithms guard k <= n only with a release-compiled-out assert,
// so an unchecked job could crash the server.)
TEST(ClusteringService, RejectsKAboveDatasetSizeForEveryAlgorithm) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  cfg.jobs.runner_override = [](const JobSpec&, const DatasetInfo&,
                                const engine::EngineConfig&) {
    return common::Result<clustering::ClusteringResult>(
        clustering::ClusteringResult{});
  };
  ClusteringService svc(cfg);
  svc.jobs().Start();

  HttpResponse reg = svc.Handle(
      Req("POST", "/v1/datasets", "{\"path\": \"" + TestDatasetPath() + "\"}"));
  ASSERT_EQ(reg.status, 201) << reg.body;
  const common::JsonValue info = common::ParseJson(reg.body).ValueOrDie();
  const std::string ds_id = info.Find("id")->AsString();
  const int64_t n = info.Find("n")->AsInt();
  ASSERT_EQ(n, 120);

  const std::vector<std::string> names = clustering::RegisteredClusterers();
  for (const std::string& name : names) {
    const auto body = [&](int64_t k) {
      return "{\"dataset_id\": \"" + ds_id + "\", \"algorithm\": \"" +
             name + "\", \"k\": " + std::to_string(k) + "}";
    };
    HttpResponse ok = svc.Handle(Req("POST", "/v1/jobs", body(n)));
    EXPECT_EQ(ok.status, 202) << name << ": " << ok.body;
    HttpResponse too_many = svc.Handle(Req("POST", "/v1/jobs", body(n + 1)));
    EXPECT_EQ(too_many.status, 400) << name << ": " << too_many.body;
  }
  EXPECT_EQ(svc.jobs().Metrics().rejected, names.size());

  svc.Stop();
  SetLogEnabled(true);
}

TEST(ClusteringService, ResultBeforeDoneAndCancelConflicts) {
  SetLogEnabled(false);
  ServiceConfig cfg;
  cfg.jobs.executors = 1;
  BlockingRunner runner;
  cfg.jobs.runner_override = runner.AsRunner();
  ClusteringService svc(cfg);
  svc.jobs().Start();

  HttpResponse reg = svc.Handle(
      Req("POST", "/v1/datasets", "{\"path\": \"" + TestDatasetPath() + "\"}"));
  ASSERT_EQ(reg.status, 201);
  const std::string ds_id =
      common::ParseJson(reg.body).ValueOrDie().Find("id")->AsString();

  HttpResponse submit = svc.Handle(
      Req("POST", "/v1/jobs",
          "{\"dataset_id\": \"" + ds_id + "\", \"k\": 3}"));
  ASSERT_EQ(submit.status, 202);
  const std::string job_id =
      common::ParseJson(submit.body).ValueOrDie().Find("job_id")->AsString();
  for (int i = 0; i < 500 && runner.concurrent.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // The job is held "running": result is 409, as is cancelling it.
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/" + job_id + "/result")).status,
            409);
  EXPECT_EQ(svc.Handle(Req("DELETE", "/v1/jobs/" + job_id)).status, 409);

  runner.Release();
  ASSERT_TRUE(svc.jobs().Wait(job_id, 10000));
  EXPECT_EQ(svc.Handle(Req("GET", "/v1/jobs/" + job_id + "/result")).status,
            200);
  // Cancelling a terminal job is an idempotent success.
  EXPECT_EQ(svc.Handle(Req("DELETE", "/v1/jobs/" + job_id)).status, 200);

  svc.Stop();
  SetLogEnabled(true);
}

}  // namespace
}  // namespace uclust::service
