#include "io/sidecar_file.h"

#include <algorithm>
#include <array>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>

#include "io/binary_format.h"  // kEndianTag / kEndianTagSwapped
#include "io/mmap_file.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace uclust::io {

namespace {

constexpr std::size_t kNOffset = 16;
constexpr std::size_t kMOffset = 24;

void PutU64(unsigned char* header, std::size_t offset, uint64_t v) {
  std::memcpy(header + offset, &v, sizeof(v));
}

uint64_t GetU64(const unsigned char* header, std::size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, header + offset, sizeof(v));
  return v;
}

}  // namespace

// ------------------------------------------------------------------ header --

common::Result<SidecarHeader> ReadSidecarHeader(const SidecarFormat& format,
                                                const std::string& path) {
  const std::string name = format.name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return common::Status::NotFound("cannot open " + path);
  }
  const auto corrupt = [&](const std::string& msg) {
    return common::Status::IOError(path + ": " + msg);
  };
  // std::filesystem reports 64-bit sizes everywhere; a long-based ftell
  // would cap validatable sidecars at 2 GB on LLP64 platforms.
  std::error_code size_ec;
  const uint64_t file_size =
      static_cast<uint64_t>(std::filesystem::file_size(path, size_ec));
  std::vector<unsigned char> header(format.header_bytes);
  const bool complete =
      !size_ec && std::fread(header.data(), 1, header.size(), f) ==
                      header.size();
  std::fclose(f);
  if (size_ec) return corrupt("cannot determine file size");
  if (!complete) {
    return corrupt("file too short for a " + name + "-sidecar header");
  }
  if (std::memcmp(header.data(), format.magic, 8) != 0) {
    return corrupt("bad magic (not a uclust " + name + " sidecar)");
  }
  uint32_t endian = 0, version = 0;
  std::memcpy(&endian, header.data() + 8, sizeof(endian));
  std::memcpy(&version, header.data() + 12, sizeof(version));
  if (endian == kEndianTagSwapped) {
    return corrupt("sidecar was written on an opposite-endian machine");
  }
  if (endian != kEndianTag) {
    return corrupt("bad endianness canary (corrupt header)");
  }
  if (version == 0 || version > format.version) {
    return corrupt("unsupported " + name + "-format version " +
                   std::to_string(version) + " (reader supports up to " +
                   std::to_string(format.version) + ")");
  }
  const uint64_t n = GetU64(header.data(), kNOffset);
  const uint64_t m = GetU64(header.data(), kMOffset);
  const uint64_t samples =
      format.samples_offset == 0 ? 1
                                 : GetU64(header.data(), format.samples_offset);
  const uint64_t chunk_rows = GetU64(header.data(), format.chunk_rows_offset);
  if (m == 0) return corrupt("header declares zero dimensions");
  if (samples == 0 ||
      samples > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return corrupt("header samples_per_object out of range");
  }
  if (chunk_rows == 0 || (chunk_rows & (chunk_rows - 1)) != 0) {
    return corrupt("chunk_rows must be a power of two");
  }
  // The payload size is fully determined by n, S, and m; an exact check
  // rejects truncated and padded files alike. Overflow-safe in plain
  // uint64: headers whose fields would wrap the multiplication are rejected
  // before it happens.
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  if (m > (kMax / sizeof(double) - format.scalar_columns) /
              (format.wide_columns * samples)) {
    return corrupt(std::string("header ") + format.row_overflow_what +
                   " overflows the size check");
  }
  const uint64_t row_bytes =
      (format.wide_columns * samples * m + format.scalar_columns) *
      sizeof(double);
  if (n != 0 && row_bytes > (kMax - format.header_bytes) / n) {
    return corrupt("header object count overflows the size check");
  }
  if (format.header_bytes + n * row_bytes != file_size) {
    return corrupt(
        "physical size does not match header (truncated or padded sidecar)");
  }
  SidecarHeader h;
  h.n = static_cast<std::size_t>(n);
  h.m = static_cast<std::size_t>(m);
  h.samples = static_cast<std::size_t>(samples);
  h.chunk_rows = static_cast<std::size_t>(chunk_rows);
  if (format.seed_offset != 0) h.seed = GetU64(header.data(), format.seed_offset);
  h.source_size = GetU64(header.data(), format.source_offset);
  h.source_mtime = GetU64(header.data(), format.source_offset + 8);
  h.source_probe = GetU64(header.data(), format.source_offset + 16);
  return h;
}

common::Status StampSource(const std::string& dataset_path,
                           SidecarHeader* header) {
  std::error_code ec;
  header->source_size =
      static_cast<uint64_t>(std::filesystem::file_size(dataset_path, ec));
  if (ec) {
    return common::Status::IOError(dataset_path +
                                   ": cannot stat sidecar source");
  }
  header->source_mtime = FileMTimeTicks(dataset_path);
  header->source_probe = FileProbeHash(dataset_path);
  return common::Status::Ok();
}

// ------------------------------------------------------------------ writer --

SidecarWriter::~SidecarWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

common::Status SidecarWriter::Fail(const std::string& msg) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  return common::Status::IOError(path_ + ": " + msg);
}

common::Status SidecarWriter::Open(const SidecarFormat& format,
                                   const std::string& path,
                                   const SidecarHeader& header) {
  if (file_ != nullptr) {
    return common::Status::InvalidArgument(std::string(format.name) +
                                           " writer is already open");
  }
  if (header.m == 0) return common::Status::InvalidArgument("dims must be > 0");
  if (header.samples == 0) {
    return common::Status::InvalidArgument("samples_per_object must be > 0");
  }
  format_ = &format;
  path_ = path;
  header_ = header;
  header_.n = 0;  // patched by Finish()
  header_.chunk_rows = NormalizeChunkRows(format, header.chunk_rows);
  if (format.samples_offset == 0) header_.samples = 1;
  if (format.seed_offset == 0) header_.seed = 0;
  widths_.assign(format.wide_columns, header_.samples * header_.m);
  widths_.resize(format.wide_columns + format.scalar_columns, 1);
  chunk_.resize(widths_.size());
  for (std::size_t c = 0; c < widths_.size(); ++c) {
    chunk_[c].resize(header_.chunk_rows * widths_[c]);
  }
  chunk_fill_ = 0;
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return common::Status::IOError("cannot create " + path);

  std::vector<unsigned char> bytes(format.header_bytes, 0);
  std::memcpy(bytes.data(), format.magic, 8);
  const uint32_t endian = kEndianTag;
  std::memcpy(bytes.data() + 8, &endian, sizeof(endian));
  std::memcpy(bytes.data() + 12, &format.version, sizeof(format.version));
  PutU64(bytes.data(), kNOffset, 0);
  PutU64(bytes.data(), kMOffset, header_.m);
  PutU64(bytes.data(), format.chunk_rows_offset, header_.chunk_rows);
  if (format.samples_offset != 0) {
    PutU64(bytes.data(), format.samples_offset, header_.samples);
  }
  if (format.seed_offset != 0) {
    PutU64(bytes.data(), format.seed_offset, header_.seed);
  }
  PutU64(bytes.data(), format.source_offset, header_.source_size);
  PutU64(bytes.data(), format.source_offset + 8, header_.source_mtime);
  PutU64(bytes.data(), format.source_offset + 16, header_.source_probe);
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size()) {
    return Fail("short write on header");
  }
  return common::Status::Ok();
}

common::Status SidecarWriter::FlushChunk() {
  if (chunk_fill_ == 0) return common::Status::Ok();
  for (std::size_t c = 0; c < widths_.size(); ++c) {
    const std::size_t count = chunk_fill_ * widths_[c];
    if (std::fwrite(chunk_[c].data(), sizeof(double), count, file_) !=
        count) {
      return Fail(std::string("short write on ") + format_->name + " chunk");
    }
  }
  chunk_fill_ = 0;
  return common::Status::Ok();
}

common::Status SidecarWriter::AppendRows(std::size_t count,
                                         const double* const* columns) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument(
        std::string(format_ == nullptr ? "sidecar" : format_->name) +
        " writer is not open");
  }
  std::size_t done = 0;
  while (done < count) {
    const std::size_t take =
        std::min(count - done, header_.chunk_rows - chunk_fill_);
    for (std::size_t c = 0; c < widths_.size(); ++c) {
      std::memcpy(chunk_[c].data() + chunk_fill_ * widths_[c],
                  columns[c] + done * widths_[c],
                  take * widths_[c] * sizeof(double));
    }
    chunk_fill_ += take;
    done += take;
    header_.n += take;
    if (chunk_fill_ == header_.chunk_rows) UCLUST_RETURN_NOT_OK(FlushChunk());
  }
  return common::Status::Ok();
}

common::Status SidecarWriter::Finish() {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument(
        std::string(format_ == nullptr ? "sidecar" : format_->name) +
        " writer is not open");
  }
  UCLUST_RETURN_NOT_OK(FlushChunk());
  const uint64_t n = header_.n;
  if (std::fseek(file_, kNOffset, SEEK_SET) != 0 ||
      std::fwrite(&n, sizeof(n), 1, file_) != 1) {
    return Fail("failed to patch header");
  }
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return common::Status::IOError(path_ + ": close failed");
  return common::Status::Ok();
}

// ------------------------------------------------------------ mapped store --

namespace {

// Per-thread LRU of mapped chunk windows, shared across every live sidecar
// of one format (keyed by sidecar serial + chunk index). One array per
// thread and format keeps total address use bounded by kSidecarWindowSlots
// x chunk bytes per thread no matter how many sidecars come and go;
// windows of destroyed sidecars age out by normal LRU pressure, and the
// shared Counters keep their byte accounting safe after the sidecar is
// gone. The formats get separate pools: their chunks have very different
// sizes, and a workload faulting both must not let the wider sample rows
// evict the moment store's whole working set.
struct WindowSlot {
  uint64_t serial = 0;  // 0 = empty
  std::size_t chunk = 0;
  uint64_t tick = 0;
  MappedRegion region;
  std::shared_ptr<void> counters;  // type-erased; see Drop()
  std::atomic<std::size_t>* bytes = nullptr;
};

struct WindowCache {
  std::array<WindowSlot, kSidecarWindowSlots> slots;
  uint64_t tick = 0;

  static void Drop(WindowSlot* s) {
    if (s->bytes != nullptr && s->region.valid()) {
      s->bytes->fetch_sub(s->region.size(), std::memory_order_relaxed);
    }
    s->region = MappedRegion();
    s->counters.reset();
    s->bytes = nullptr;
    s->serial = 0;
    s->tick = 0;
  }

  ~WindowCache() {
    for (auto& s : slots) Drop(&s);
  }
};

WindowCache& LocalWindows(std::size_t pool) {
  thread_local std::array<WindowCache, kSidecarWindowPools> pools;
  return pools[pool];
}

uint64_t NextSidecarSerial() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

MappedSidecar::~MappedSidecar() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
  if (delete_on_close_) std::remove(path_.c_str());
}

common::Result<std::unique_ptr<MappedSidecar>> MappedSidecar::Open(
    const SidecarFormat& format, const std::string& path) {
  auto header = ReadSidecarHeader(format, path);
  if (!header.ok()) return header.status();
  std::unique_ptr<MappedSidecar> sidecar(new MappedSidecar(format));
  sidecar->path_ = path;
  sidecar->header_ = header.ValueOrDie();
  sidecar->row_bytes_ =
      SidecarRowBytes(format, sidecar->header_.m, sidecar->header_.samples);
  sidecar->serial_ = NextSidecarSerial();
#if defined(__unix__) || defined(__APPLE__)
  sidecar->fd_ = ::open(path.c_str(), O_RDONLY);
  if (sidecar->fd_ < 0) {
    return common::Status::IOError(path + ": cannot open for mapping");
  }
#endif
  return sidecar;
}

const double* MappedSidecar::Window(std::size_t chunk) const {
  WindowCache& wc = LocalWindows(format_->window_pool);
  ++wc.tick;
  WindowSlot* victim = &wc.slots[0];
  for (auto& s : wc.slots) {
    if (s.serial == serial_ && s.chunk == chunk && s.region.valid()) {
      s.tick = wc.tick;
      return reinterpret_cast<const double*>(s.region.data());
    }
    if (s.tick < victim->tick) victim = &s;
  }

  // Fault: evict the thread's least-recently-used window and map the chunk.
  WindowCache::Drop(victim);
  const uint64_t offset =
      format_->header_bytes +
      static_cast<uint64_t>(chunk) * header_.chunk_rows * row_bytes_;
  auto region =
      MapFileRegion(fd_, path_, offset, RowsInChunk(chunk) * row_bytes_);
  if (!region.ok()) {
    // The view API is exception- and status-free by design (it sits inside
    // allocation-free hot loops, possibly on pool threads). A chunk that can
    // neither be mapped nor read back is unrecoverable mid-kernel.
    std::fprintf(stderr, "mapped %s sidecar: %s\n", format_->name,
                 region.status().ToString().c_str());
    std::abort();
  }
  victim->serial = serial_;
  victim->chunk = chunk;
  victim->tick = wc.tick;
  victim->region = std::move(region).ValueOrDie();
  victim->counters = counters_;
  victim->bytes = &counters_->bytes;
  if (victim->region.mapped()) {
    counters_->mmap_windows.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t live =
      counters_->bytes.fetch_add(victim->region.size(),
                                 std::memory_order_relaxed) +
      victim->region.size();
  std::size_t peak = counters_->peak.load(std::memory_order_relaxed);
  while (live > peak && !counters_->peak.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return reinterpret_cast<const double*>(victim->region.data());
}

// ---------------------------------------------------------- open-or-rebuild --

common::Status CommitSidecar(
    const std::string& path,
    const std::function<common::Status(const std::string& tmp)>& write) {
  const std::string tmp = UniqueScratchSiblingPath(path);
  const common::Status written = write(tmp);
  if (!written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return common::Status::IOError(
        path + ": cannot move rebuilt sidecar into place: " + ec.message());
  }
  return common::Status::Ok();
}

namespace {

// Temp spill location for in-memory data: unique per (process, call) so
// concurrent stores never collide — two stores sharing a spill name would
// each unlink it on close, deleting the other's live file.
std::string TempSpillPath(const SidecarFormat& format) {
  static std::atomic<uint64_t> next{1};
  const uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  std::error_code ec;
  std::filesystem::path dir = std::filesystem::temp_directory_path(ec);
  if (ec) dir = ".";
  char name[96];
  std::snprintf(name, sizeof(name), "uclust-%ss-%llx-%llu%s", format.name,
                static_cast<unsigned long long>(ProcessUniqueToken()),
                static_cast<unsigned long long>(id), format.extension);
  return (dir / name).string();
}

// The fields that decide which bytes a sidecar holds.
bool SameIdentity(const SidecarHeader& a, const SidecarHeader& b) {
  return a.n == b.n && a.m == b.m && a.samples == b.samples &&
         a.seed == b.seed;
}

std::size_t ChunkRequirement(const SidecarFormat& format, std::size_t hint,
                             const engine::Engine& eng,
                             std::size_t row_bytes) {
  if (hint != 0 || eng.memory_budget_bytes() == 0) return hint;
  const std::size_t window_budget =
      eng.memory_budget_bytes() /
      (static_cast<std::size_t>(eng.num_threads()) * kSidecarWindowSlots);
  const std::size_t want = window_budget / row_bytes;
  std::size_t pow2 = 1;
  while (pow2 * 2 <= want && pow2 < format.default_chunk_rows) pow2 *= 2;
  return std::max(pow2, format.min_budget_chunk_rows);
}

}  // namespace

common::Result<std::unique_ptr<MappedSidecar>> OpenOrRebuildSidecar(
    const SidecarFormat& format, std::string path, SidecarHeader want,
    const engine::Engine& eng, bool reuse, const SidecarBuildFn& build) {
  const std::size_t chunk_rows =
      ChunkRequirement(format, want.chunk_rows, eng,
                       SidecarRowBytes(format, want.m, want.samples));
  const bool temp_spill = path.empty();
  if (temp_spill) path = TempSpillPath(format);
  if (reuse && !temp_spill) {
    auto existing = MappedSidecar::Open(format, path);
    if (existing.ok()) {
      const SidecarHeader& have = existing.ValueOrDie()->header();
      if (SameIdentity(have, want) && have.source_size == want.source_size &&
          have.source_mtime == want.source_mtime &&
          have.source_probe == want.source_probe &&
          (chunk_rows == 0 ||
           have.chunk_rows <= NormalizeChunkRows(format, chunk_rows))) {
        return existing;
      }
    }
  }
  UCLUST_RETURN_NOT_OK(CommitSidecar(path, [&](const std::string& tmp) {
    return build(tmp, chunk_rows);
  }));
  auto built = MappedSidecar::Open(format, path);
  if (!built.ok()) return built.status();
  built.ValueOrDie()->set_delete_on_close(temp_spill);
  if (!SameIdentity(built.ValueOrDie()->header(), want)) {
    return common::Status::Internal(path +
                                    ": sidecar shape does not match the data");
  }
  return built;
}

}  // namespace uclust::io
