// Execution-engine configuration and the shared Engine handle.
//
// Every compute path in the library (assignment sweeps, relocation passes,
// pairwise tables, sample drawing) dispatches through an Engine. An Engine
// is a cheap copyable handle: copies share one ThreadPool, so a whole
// algorithm registry can run on a single pool. The default-constructed
// Engine is serial and allocates no threads, which keeps single-threaded
// call sites (and unit tests) zero-overhead.
//
// Determinism contract: for a fixed EngineConfig::block_size, every kernel
// built on this engine produces bit-identical results for ANY num_threads,
// because reductions always combine per-block partials in block order (see
// parallel_for.h). Changing block_size may change floating-point rounding,
// never correctness.
#ifndef UCLUST_ENGINE_ENGINE_H_
#define UCLUST_ENGINE_ENGINE_H_

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/thread_pool.h"

namespace uclust::engine {

/// User-facing execution knobs.
struct EngineConfig {
  /// Total concurrency (pool workers + calling thread). 1 = serial;
  /// 0 = use the hardware concurrency.
  int num_threads = 1;
  /// Objects per block in blocked-range loops. Fixed block boundaries are
  /// what make reductions independent of the thread count.
  std::size_t block_size = 1024;
  /// Upper bound on the bytes a memory-hungry artifact may materialize at
  /// once. 0 = unlimited (dense n x n tables, fully resident moment columns
  /// — the classic behavior). A finite budget makes every PairwiseStore
  /// consumer (UK-medoids, UAHC, FOPTICS, FDBSCAN) switch to tiled or
  /// on-the-fly ED^ access, and makes file-backed moment ingestion
  /// (io::StreamMomentStoreFromFile) spill moment columns whose resident
  /// size exceeds the budget to an mmap-backed .umom sidecar; it also sizes
  /// the mapped sidecars' chunks and CkMeans::ClusterFile's streaming
  /// batches. Clusterings are bit-identical either way.
  std::size_t memory_budget_bytes = 0;
  /// SIMD instruction-set path for the inner-loop kernels
  /// (clustering/simd/): "auto" (best compiled-and-supported path — AVX2 on
  /// capable x86, NEON on aarch64, else scalar), or "scalar"/"avx2"/"neon"
  /// to force one. The selection is process-global (the kernels dispatch
  /// through one table; the last Engine constructed wins) and is a pure
  /// throughput knob: every path uses the same lane-blocked accumulation
  /// order, so results are bit-identical whichever path runs. Forcing an
  /// unavailable path falls back to auto with a warning on stderr.
  std::string simd_isa = "auto";
};

/// Copyable handle bundling an EngineConfig with a (shared) thread pool.
class Engine {
 public:
  /// Serial engine: no pool, every ParallelFor runs inline.
  Engine() = default;

  /// Engine honoring `config`; spawns a pool only when num_threads > 1.
  explicit Engine(const EngineConfig& config);

  /// Shared serial instance for default arguments.
  static const Engine& Serial();

  /// Effective concurrency (>= 1).
  int num_threads() const {
    return pool_ ? pool_->max_concurrency() : 1;
  }
  /// Block size for blocked-range loops (>= 1).
  std::size_t block_size() const { return block_size_; }
  /// Memory budget in bytes for pairwise tables and moment columns
  /// (0 = unlimited).
  std::size_t memory_budget_bytes() const { return memory_budget_bytes_; }
  /// The SIMD path this engine resolved at construction ("scalar"/"avx2"/
  /// "neon" — never "auto"; the default-constructed serial engine reports
  /// whatever the process-global dispatcher currently runs).
  std::string simd_isa() const;
  /// The pool, or nullptr when serial.
  ThreadPool* pool() const { return pool_.get(); }

 private:
  std::size_t block_size_ = 1024;
  std::size_t memory_budget_bytes_ = 0;
  std::shared_ptr<ThreadPool> pool_;
};

/// The canonical string-knob table. Every path from external strings to an
/// EngineConfig — bench/tool flags via common::ParseEngineFlags, the
/// service's JSON JobSpec — applies knobs through this one function, so
/// the accepted keys, value grammar, and defaults cannot drift per binary.
///
/// Keys (the `--key=value` flag spellings without dashes):
///   threads                   int >= 0 (0 = hardware concurrency)
///   block_size                int >= 1
///   memory_budget_bytes       int >= 0 (0 = unlimited)
///   memory_budget_mb          convenience form; sets the bytes field
///   simd_isa                  auto|scalar|avx2|neon (name validated here;
///                             availability resolves at Engine construction)
///
/// Returns InvalidArgument for an unknown key or an unparsable value;
/// `cfg` is unchanged on error. Later applications override earlier ones
/// (so memory_budget_bytes after memory_budget_mb wins, and vice versa).
common::Status ApplyEngineKnob(const std::string& key,
                               const std::string& value, EngineConfig* cfg);

/// The knob keys ApplyEngineKnob accepts, in canonical order
/// (memory_budget_mb before memory_budget_bytes, so flag parsing preserves
/// the historical "bytes win when both are given" rule).
const std::vector<std::string>& EngineKnobNames();

}  // namespace uclust::engine

#endif  // UCLUST_ENGINE_ENGINE_H_
