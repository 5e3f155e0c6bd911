// On-disk layout of the two chunked sidecar formats: ".umom" (per-object
// moment statistics) and ".usmp" (per-object Monte-Carlo realizations).
//
// Both persist one row of doubles per object of a source dataset so a
// Mapped store can serve them through mmap without materializing O(n)
// rows in heap memory. They share one framing:
//
//   offset  size  field
//   ------  ----  -----------------------------------------------------------
//        0     8  magic (per format)
//        8     4  u32 endian tag 0x01020304 (readers reject byte-swapped
//                 files instead of silently mis-parsing them)
//       12     4  u32 format version (readers reject newer)
//       16     8  u64 n — number of objects (patched on Finish())
//       24     8  u64 m — dimensionality
//        -     -  per-format fields (tables below), then the source guard:
//                 u64 source_size — byte size of the .ubin dataset the
//                   sidecar was derived from (0 = standalone),
//                 u64 source_mtime — its last-write time in filesystem-clock
//                   ticks (io::FileMTimeTicks; 0 = unknown),
//                 u64 source_probe — FNV-1a over its first and last 4 KiB
//                   plus its size (io::FileProbeHash; 0 = unknown)
//   header_bytes  ceil(n / chunk_rows) chunks back to back
//
// Rows are grouped into chunks of chunk_rows (a power of two). Chunk c
// covers rows [c * chunk_rows, min(n, (c+1) * chunk_rows)); with r rows in
// the chunk, its payload is the format's columns one after another, each
// r * width doubles (row-major). The total file size is exactly
// header_bytes + n * row_doubles * 8, which readers verify, rejecting
// truncated or padded files. All integers are little-endian; all reals are
// IEEE-754 binary64. Version history of both formats: 1 = initial layout.
//
// .umom ("uclustmm", 64-byte header; columns mean | mu2 | var | total_var of
// widths {m, m, m, 1} — the exact bytes MomentMatrix::PackRow produces):
//
//       32     8  u64 chunk_rows
//       40    24  source guard
//
// .usmp ("uclustsm", 96-byte header; one column of width S * m — object
// major, then sample, then dimension, the layout SampleView::ObjectSamples
// spans, drawn from the per-object sub-streams common::DeriveSeed(seed, i)):
//
//       32     8  u64 samples_per_object S
//       40     8  u64 chunk_rows
//       48     8  u64 seed — the master seed of the per-object sub-streams
//       56    24  source guard
//       80    16  reserved (zero)
#ifndef UCLUST_IO_SIDECAR_FORMAT_H_
#define UCLUST_IO_SIDECAR_FORMAT_H_

#include <cstddef>
#include <cstdint>

namespace uclust::io {

/// File magic, first 8 bytes of every moment sidecar.
inline constexpr char kMomentMagic[8] = {'u', 'c', 'l', 'u', 's', 't',
                                         'm', 'm'};
/// Current (and only) moment-sidecar format version.
inline constexpr uint32_t kMomentFormatVersion = 1;
/// Total bytes of the fixed .umom header (chunks follow immediately after).
inline constexpr std::size_t kMomentHeaderBytes = 64;
/// Default rows per .umom chunk. At m = 64 a chunk is ~6.3 MiB: small
/// enough to page in and out, large enough that chunk lookups vanish
/// against the per-row compute.
inline constexpr std::size_t kDefaultMomentChunkRows = 4096;

/// File magic, first 8 bytes of every sample sidecar.
inline constexpr char kSampleMagic[8] = {'u', 'c', 'l', 'u', 's', 't',
                                         's', 'm'};
/// Current (and only) sample-sidecar format version.
inline constexpr uint32_t kSampleFormatVersion = 1;
/// Total bytes of the fixed .usmp header (chunks follow immediately after).
inline constexpr std::size_t kSampleHeaderBytes = 96;
/// Default objects per .usmp chunk. A sample row is S * m doubles, an order
/// of magnitude wider than a moment row, so the default is proportionally
/// smaller: at S = 32, m = 64 a chunk is ~8 MiB.
inline constexpr std::size_t kDefaultSampleChunkRows = 512;

/// Everything the shared sidecar layer (sidecar_file.h) needs to know about
/// one format. n sits at offset 16 and m at 24 in every format.
struct SidecarFormat {
  const char* name;       ///< "moment" / "sample", used in messages
  const char* extension;  ///< ".umom" / ".usmp"
  const char* magic;      ///< 8 bytes, no terminator
  uint32_t version;
  std::size_t header_bytes;
  std::size_t chunk_rows_offset;
  std::size_t source_offset;   ///< source size, mtime, probe: 3 x u64
  std::size_t samples_offset;  ///< 0 = no S field (S is 1)
  std::size_t seed_offset;     ///< 0 = no seed field (seed is 0)
  /// Row layout: `wide_columns` columns of S * m doubles each, then
  /// `scalar_columns` columns of one double each.
  std::size_t wide_columns;
  std::size_t scalar_columns;
  std::size_t default_chunk_rows;
  /// Floor of budget-derived chunk rows (see ChunkRequirement).
  std::size_t min_budget_chunk_rows;
  /// Which per-thread window pool serves the format's chunks.
  std::size_t window_pool;
  /// Names the row-shape overflow in the size-check message.
  const char* row_overflow_what;
};

inline constexpr SidecarFormat kMomentSidecar = {
    "moment", ".umom", kMomentMagic, kMomentFormatVersion, kMomentHeaderBytes,
    /*chunk_rows_offset=*/32, /*source_offset=*/40, /*samples_offset=*/0,
    /*seed_offset=*/0, /*wide_columns=*/3, /*scalar_columns=*/1,
    kDefaultMomentChunkRows, /*min_budget_chunk_rows=*/64, /*window_pool=*/0,
    "dimensionality"};

// The budget floor is 4x smaller than the moment format's because a sample
// row is S times wider than a moment row.
inline constexpr SidecarFormat kSampleSidecar = {
    "sample", ".usmp", kSampleMagic, kSampleFormatVersion, kSampleHeaderBytes,
    /*chunk_rows_offset=*/40, /*source_offset=*/56, /*samples_offset=*/32,
    /*seed_offset=*/48, /*wide_columns=*/1, /*scalar_columns=*/0,
    kDefaultSampleChunkRows, /*min_budget_chunk_rows=*/16, /*window_pool=*/1,
    "row shape"};

/// Number of distinct window pools (one per format).
inline constexpr std::size_t kSidecarWindowPools = 2;

/// Normalizes a chunk-rows hint to the format's constraint: 0 becomes the
/// default, everything else is rounded up to the next power of two
/// (clamped to [1, 2^20]).
inline std::size_t NormalizeChunkRows(const SidecarFormat& format,
                                      std::size_t hint) {
  if (hint == 0) return format.default_chunk_rows;
  std::size_t rows = 1;
  while (rows < hint && rows < (std::size_t{1} << 20)) rows <<= 1;
  return rows;
}

/// Payload bytes of one row of dimensionality m with S samples per object
/// (S = 1 for formats without the field).
inline std::size_t SidecarRowBytes(const SidecarFormat& format, std::size_t m,
                                   std::size_t samples) {
  return (format.wide_columns * samples * m + format.scalar_columns) *
         sizeof(double);
}

}  // namespace uclust::io

#endif  // UCLUST_IO_SIDECAR_FORMAT_H_
