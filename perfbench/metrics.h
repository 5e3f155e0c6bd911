// The benchmark's metric catalogue, in BENCHMARK.json order. The self-test
// checks that BENCHMARK.json declares exactly these names, units and
// directions, so the file and the program cannot drift apart.
#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

#include <vector>

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
};

/// Printed with --trace 0, one process per workload.
inline const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s", "lower"},
      {"job_p50_ms", "ms", "lower"},
      {"objects_per_s", "objects/s", "higher"},
      {"peak_rss_mb", "MiB", "lower"},
      {"f_measure", "F", "higher"},
  };
  return kMetrics;
}

/// Printed with --trace 1. A layer the workload does not exercise reports 0.
inline const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"io.read_ms", "ms", "lower"},
      {"io.read_mb_per_s", "MB/s", "higher"},
      {"io.moment_ingest_ms", "ms", "lower"},
      {"io.moment_ingest_speedup", "x", "higher"},
      {"io.sample_sidecar_build_ms", "ms", "lower"},
      {"io.sidecar_bytes", "bytes", "lower"},
      {"io.self_ms", "ms", "lower"},
      {"uncertain.moments_ms", "ms", "lower"},
      {"uncertain.sample_store_open_ms", "ms", "lower"},
      {"uncertain.self_ms", "ms", "lower"},
      {"clustering.ucpc_ms", "ms", "lower"},
      {"clustering.ucpc_speedup", "x", "higher"},
      {"clustering.ucpc_iterations", "count", "lower"},
      {"clustering.mmvar_ms", "ms", "lower"},
      {"clustering.mmvar_speedup", "x", "higher"},
      {"clustering.mmvar_iterations", "count", "lower"},
      {"clustering.ckmeans_lloyd_ms", "ms", "lower"},
      {"clustering.ckmeans_lloyd_speedup", "x", "higher"},
      {"clustering.ckmeans_lloyd_iterations", "count", "lower"},
      {"clustering.ckmeans_file_ms", "ms", "lower"},
      {"clustering.ukmedoids_ms", "ms", "lower"},
      {"clustering.ukmedoids_speedup", "x", "higher"},
      {"clustering.ukmedoids_iterations", "count", "lower"},
      {"clustering.fdbscan_ms", "ms", "lower"},
      {"clustering.fdbscan_speedup", "x", "higher"},
      {"clustering.fdbscan_iterations", "count", "lower"},
      {"clustering.center_distance_evals", "count", "lower"},
      {"clustering.bounds_skipped", "count", "higher"},
      {"clustering.bound_skip_ratio", "ratio", "higher"},
      {"clustering.ed_evaluations", "count", "lower"},
      {"clustering.pairwise_store.pair_evaluations", "count", "lower"},
      {"clustering.pairwise_store.table_bytes_peak", "bytes", "lower"},
      {"clustering.pairwise_store.warm_hit_ratio", "ratio", "higher"},
      {"clustering.pairwise_store.pairs_pruned", "count", "higher"},
      {"clustering.spatial_index.candidates", "count", "lower"},
      {"clustering.spatial_index.bound_tests", "count", "lower"},
      {"clustering.spatial_index.selectivity", "ratio", "lower"},
      {"clustering.simd.ed2_gevals_per_s", "Geval/s", "higher"},
      {"clustering.simd.ed2_computed_gb_per_s", "GB/s", "higher"},
      {"clustering.self_ms", "ms", "lower"},
      {"engine.threads", "count", "higher"},
      {"engine.cpu_util", "ratio", "higher"},
      {"service.queue_wait_ms", "ms", "lower"},
      {"service.run_ms", "ms", "lower"},
      {"service.http_overhead_ms", "ms", "lower"},
      {"service.polls_per_job", "count", "lower"},
      {"service.rejected", "count", "lower"},
      {"service.admission_waits", "count", "lower"},
      {"service.self_ms", "ms", "lower"},
      {"common.result_json_ms", "ms", "lower"},
      {"common.result_json_bytes", "bytes", "lower"},
      {"common.self_ms", "ms", "lower"},
      {"bench.self_ms", "ms", "lower"},
      {"trace.overhead_ms", "ms", "lower"},
      {"trace.spans", "count", "lower"},
  };
  return kMetrics;
}

}  // namespace perfbench

#endif  // PERFBENCH_METRICS_H_
