// The chunked-sidecar layer shared by the .umom moment and .usmp sample
// formats (layout: sidecar_format.h). One implementation of each part,
// driven by a SidecarFormat descriptor:
//
//   * SidecarWriter streams rows into fixed-size chunks through an
//     O(chunk) buffer and patches n into the header on Finish(), so building
//     a sidecar never holds more than one chunk in memory.
//   * ReadSidecarHeader validates a header (magic, endianness canary,
//     version, zero dimensions, the format's S range, power-of-two chunk
//     rows, and the overflow-safe exact-size check).
//   * MappedSidecar serves chunk windows through io::MapFileRegion, keeping
//     a small per-thread LRU of mapped windows (kSidecarWindowSlots per
//     thread and format), so address space stays bounded by threads x
//     windows x chunk bytes instead of O(n).
//   * OpenOrRebuildSidecar is the Mapped factories' shared path: derive the
//     chunk requirement, open the existing sidecar, test the header it read
//     against the request, and rebuild (unique temp sibling + rename) only
//     on a mismatch.
//
// MappedMomentStore (moment_file.h) and MappedSampleStore (sample_file.h)
// are thin adapters that serve a MappedSidecar's windows as the
// uncertain-layer chunk views.
#ifndef UCLUST_IO_SIDECAR_FILE_H_
#define UCLUST_IO_SIDECAR_FILE_H_

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "io/sidecar_format.h"

namespace uclust::io {

/// Mapped chunk windows each thread keeps alive at once, per format. Spans
/// served by a chunked view stay valid until the calling thread faults this
/// many OTHER chunks of the same format; every kernel in the library holds
/// at most two distinct rows at a time (see uncertain/moments.h and
/// uncertain/sample_store.h).
inline constexpr std::size_t kSidecarWindowSlots = 16;

/// Header fields of a sidecar. Formats without an S or seed field read as
/// samples = 1 and seed = 0.
struct SidecarHeader {
  std::size_t n = 0;
  std::size_t m = 0;
  std::size_t samples = 1;
  std::size_t chunk_rows = 0;
  uint64_t seed = 0;
  uint64_t source_size = 0;
  uint64_t source_mtime = 0;
  uint64_t source_probe = 0;
};

/// Reads and validates a sidecar header, including the exact-file-size
/// check. A missing file is NotFound; every other rejection is an IOError
/// naming the file.
common::Result<SidecarHeader> ReadSidecarHeader(const SidecarFormat& format,
                                                const std::string& path);

/// Records the staleness guard of the dataset file at `dataset_path` (byte
/// size, FileMTimeTicks, FileProbeHash) into `header`.
common::Status StampSource(const std::string& dataset_path,
                           SidecarHeader* header);

/// Writes one sidecar. Usage: Open() once, AppendRows() any number of
/// times, Finish() (which seals the header; a file without Finish() is
/// invalid).
class SidecarWriter {
 public:
  SidecarWriter() = default;
  ~SidecarWriter();

  SidecarWriter(const SidecarWriter&) = delete;
  SidecarWriter& operator=(const SidecarWriter&) = delete;

  /// Creates/truncates `path` and writes the provisional header. `header.n`
  /// is ignored (Finish() patches it); `header.chunk_rows` is a hint
  /// normalized via NormalizeChunkRows.
  common::Status Open(const SidecarFormat& format, const std::string& path,
                      const SidecarHeader& header);

  /// Appends `count` rows. `columns` holds one pointer per format column,
  /// each to count x width doubles, row-major.
  common::Status AppendRows(std::size_t count, const double* const* columns);

  /// Flushes the partial tail chunk, patches n into the header, and closes
  /// the file.
  common::Status Finish();

  /// Rows appended so far.
  std::size_t written() const { return header_.n; }
  /// Dimensionality m the file was opened with.
  std::size_t dims() const { return header_.m; }

 private:
  common::Status Fail(const std::string& msg);
  common::Status FlushChunk();

  const SidecarFormat* format_ = nullptr;
  std::FILE* file_ = nullptr;
  std::string path_;
  SidecarHeader header_;
  std::vector<std::size_t> widths_;          // doubles per row, per column
  std::vector<std::vector<double>> chunk_;   // pending chunk, per column
  std::size_t chunk_fill_ = 0;               // rows in the pending chunk
};

/// A validated sidecar served through chunk-granular mapped windows.
/// Thread-safe for concurrent Window() calls (each thread owns its LRU).
class MappedSidecar {
 public:
  /// Opens and validates `path`. The returned object owns the descriptor.
  static common::Result<std::unique_ptr<MappedSidecar>> Open(
      const SidecarFormat& format, const std::string& path);

  ~MappedSidecar();

  MappedSidecar(const MappedSidecar&) = delete;
  MappedSidecar& operator=(const MappedSidecar&) = delete;

  const SidecarHeader& header() const { return header_; }
  const std::string& path() const { return path_; }

  /// Rows in chunk `chunk` (chunk_rows except for a short tail chunk).
  std::size_t RowsInChunk(std::size_t chunk) const {
    const std::size_t begin = chunk * header_.chunk_rows;
    return header_.chunk_rows < header_.n - begin ? header_.chunk_rows
                                                  : header_.n - begin;
  }

  /// First double of chunk `chunk`'s payload, mapped into the calling
  /// thread's window LRU. Valid until that thread faults
  /// kSidecarWindowSlots other chunks of this format.
  const double* Window(std::size_t chunk) const;

  /// Peak bytes of chunk windows mapped simultaneously across all threads.
  std::size_t peak_window_bytes() const {
    return counters_->peak.load(std::memory_order_relaxed);
  }
  /// True when at least one window came from a real mmap (false means every
  /// window so far used the heap-read fallback).
  bool used_mmap() const {
    return counters_->mmap_windows.load(std::memory_order_relaxed) > 0;
  }

  /// Unlinks the file when this object is destroyed (temp spills).
  void set_delete_on_close(bool value) { delete_on_close_ = value; }

 private:
  // Cross-thread accounting, shared with per-thread window slots so
  // evictions that outlive the sidecar still decrement safely.
  struct Counters {
    std::atomic<std::size_t> bytes{0};
    std::atomic<std::size_t> peak{0};
    std::atomic<std::size_t> mmap_windows{0};
  };

  explicit MappedSidecar(const SidecarFormat& format) : format_(&format) {}

  const SidecarFormat* format_;
  std::string path_;
  int fd_ = -1;  // POSIX descriptor for mapping; -1 on portable fallback
  SidecarHeader header_;
  std::size_t row_bytes_ = 0;
  uint64_t serial_ = 0;  // unique per sidecar; keys the thread-local windows
  bool delete_on_close_ = false;
  std::shared_ptr<Counters> counters_ = std::make_shared<Counters>();
};

/// How a store factory picks its backend.
enum class BackendChoice {
  kAuto,      ///< Resident iff the rows fit eng.memory_budget_bytes()
              ///< (0 = unlimited = Resident, mirroring PairwiseStore).
  kResident,  ///< Force the flat in-memory rows.
  kMapped,    ///< Force the mmap-backed sidecar.
};

/// The one backend-selection rule: kAuto maps when a budget is set and the
/// `resident_bytes` of the flat rows exceed it.
inline bool UseMappedBackend(BackendChoice choice, const engine::Engine& eng,
                             std::size_t resident_bytes) {
  if (choice != BackendChoice::kAuto) return choice == BackendChoice::kMapped;
  const std::size_t budget = eng.memory_budget_bytes();
  return budget != 0 && resident_bytes > budget;
}

/// Runs `write(tmp)` on a unique temp sibling of `path` and renames the
/// result into place only on success: a rebuild that fails midway never
/// destroys a previously valid sidecar, a concurrent reader keeps its view
/// of the old inode, and concurrent rebuilds never interleave writes into
/// one shared temp file (see UniqueScratchSiblingPath).
common::Status CommitSidecar(
    const std::string& path,
    const std::function<common::Status(const std::string& tmp)>& write);

/// Writes a complete sidecar to `path` with the given chunk rows.
using SidecarBuildFn = std::function<common::Status(
    const std::string& path, std::size_t chunk_rows)>;

/// The open-or-rebuild path of both Mapped factories.
///
/// `want` carries the identity the sidecar must have (n, m, S, seed), the
/// source staleness guard (zeros for in-memory data), and in chunk_rows the
/// caller's chunk hint. With no hint and a memory budget set, chunks are
/// sized so threads x kSidecarWindowSlots windows fit the budget (floored
/// to a power of two, clamped to [format.min_budget_chunk_rows, default]).
///
/// With `reuse` on, an existing valid sidecar at `path` is served when its
/// header matches `want` exactly and its chunks are no larger than the
/// requirement (larger chunks would break the window-memory bound; smaller
/// ones only cost extra faults). Anything else is rebuilt through `build`
/// under CommitSidecar. An empty `path` spills to a unique temp file that
/// is deleted with the returned sidecar.
common::Result<std::unique_ptr<MappedSidecar>> OpenOrRebuildSidecar(
    const SidecarFormat& format, std::string path, SidecarHeader want,
    const engine::Engine& eng, bool reuse, const SidecarBuildFn& build);

}  // namespace uclust::io

#endif  // UCLUST_IO_SIDECAR_FILE_H_
