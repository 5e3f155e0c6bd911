#include "io/dataset_reader.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>

#include "engine/parallel_for.h"
#include "io/binary_format.h"
#include "uncertain/dirac_pdf.h"
#include "uncertain/discrete_pdf.h"
#include "uncertain/exponential_pdf.h"
#include "uncertain/normal_pdf.h"
#include "uncertain/uniform_pdf.h"

namespace uclust::io {

// Object records as stored (u32 length prefix, then the payload), each
// starting at bytes + starts[i]. Non-owning; the prefixes must already be
// bounds-checked against the bytes.
struct RecordView {
  const unsigned char* bytes = nullptr;
  std::span<const std::size_t> starts;

  std::size_t size() const { return starts.size(); }
  // The payload of record i (its m pdf records).
  std::span<const unsigned char> record(std::size_t i) const {
    uint32_t payload = 0;
    std::memcpy(&payload, bytes + starts[i], sizeof(payload));
    return {bytes + starts[i] + sizeof(payload), payload};
  }
};

namespace {

// Bounds-checked cursor over one object record's bytes.
class RecordCursor {
 public:
  RecordCursor(const unsigned char* data, std::size_t size)
      : data_(data), size_(size) {}

  template <typename T>
  bool Get(T* out) {
    if (pos_ + sizeof(T) > size_) return false;
    std::memcpy(out, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool exhausted() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const unsigned char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// Smallest half-width the normal reconstruction accepts: well below it,
// 2*Phi(c) - 1 underflows to exactly 0 and the truncated-variance formula
// would silently produce -inf from a corrupt file.
constexpr double kMinNormalHalfWidth = 1e-12;

// Tolerance on a stored discrete weight sum: the writer persists normalized
// weights, so any legitimate file sums to 1 within a few ulps.
constexpr double kWeightSumTolerance = 1e-6;

// One pdf record's stored parameters.
struct PdfRecord {
  uint8_t tag = 0;
  double a = 0.0, b = 0.0, c = 0.0;     // per tag, binary_format.h order
  std::vector<double> values, weights;  // discrete only
};

// Reads and validates one pdf record into `*pdf`; false on malformed input
// (truncated payload or parameters outside the pdf constructors' domains —
// non-finite values included, so corrupt files are rejected rather than
// mis-parsed).
bool ParsePdf(RecordCursor* cur, PdfRecord* pdf) {
  if (!cur->Get(&pdf->tag)) return false;
  switch (pdf->tag) {
    case kPdfDirac:
      return cur->Get(&pdf->a) && std::isfinite(pdf->a);
    case kPdfUniform:
      return cur->Get(&pdf->a) && cur->Get(&pdf->b) &&
             std::isfinite(pdf->a) && std::isfinite(pdf->b) &&
             pdf->a < pdf->b;
    case kPdfNormal:
      return cur->Get(&pdf->a) && cur->Get(&pdf->b) && cur->Get(&pdf->c) &&
             std::isfinite(pdf->a) && std::isfinite(pdf->b) &&
             std::isfinite(pdf->c) && pdf->b > 0.0 &&
             pdf->c >= kMinNormalHalfWidth;
    case kPdfExponential:
      return cur->Get(&pdf->a) && cur->Get(&pdf->b) &&
             std::isfinite(pdf->a) && std::isfinite(pdf->b) && pdf->b > 0.0;
    case kPdfDiscrete: {
      uint32_t count = 0;
      if (!cur->Get(&count) || count == 0) return false;
      // The record must physically hold count values + count weights;
      // checking before allocating keeps an untrusted count field from
      // triggering a huge allocation (which a CI ulimit run would
      // misreport as the expected OOM).
      if (static_cast<std::size_t>(count) * 2 * sizeof(double) >
          cur->remaining()) {
        return false;
      }
      pdf->values.resize(count);
      pdf->weights.resize(count);
      for (double& v : pdf->values) {
        if (!cur->Get(&v) || !std::isfinite(v)) return false;
      }
      double sum = 0.0;
      for (double& w : pdf->weights) {
        if (!cur->Get(&w) || !std::isfinite(w) || !(w > 0.0)) return false;
        sum += w;
      }
      return std::fabs(sum - 1.0) <= kWeightSumTolerance;
    }
    default:
      return false;
  }
}

// Moments of a parsed pdf record: the pdf type's own Moments() on the
// stored parameters, exactly what its constructor runs.
uncertain::PdfMoments MomentsOf(const PdfRecord& pdf) {
  switch (pdf.tag) {
    case kPdfDirac:
      return uncertain::DiracPdf::Moments(pdf.a);
    case kPdfUniform:
      return uncertain::UniformPdf::Moments(pdf.a, pdf.b);
    case kPdfNormal:
      return uncertain::TruncatedNormalPdf::Moments(pdf.a, pdf.b, pdf.c);
    case kPdfExponential:
      return uncertain::TruncatedExponentialPdf::Moments(pdf.a, pdf.b);
    default:
      return uncertain::DiscretePdf::Moments(pdf.values, pdf.weights);
  }
}

// The pdf object of a parsed pdf record (moves a discrete record's arrays).
uncertain::PdfPtr MakePdf(PdfRecord* pdf) {
  switch (pdf->tag) {
    case kPdfDirac:
      return uncertain::DiracPdf::Make(pdf->a);
    case kPdfUniform:
      return std::make_shared<uncertain::UniformPdf>(pdf->a, pdf->b);
    case kPdfNormal:
      return uncertain::TruncatedNormalPdf::FromHalfWidth(pdf->a, pdf->b,
                                                          pdf->c);
    case kPdfExponential:
      return uncertain::TruncatedExponentialPdf::Make(pdf->a, pdf->b);
    default:
      return uncertain::DiscretePdf::FromNormalized(std::move(pdf->values),
                                                    std::move(pdf->weights));
  }
}

// The one validating decoder of object records. It holds reusable scratch,
// so each thread uses its own. Both Decode calls return nullptr on success
// and otherwise name the defect.
class RecordDecoder {
 public:
  explicit RecordDecoder(std::size_t dims)
      : dims_(dims), mean_(dims), mu2_(dims), var_(dims) {}

  // Decodes `record` into moment row `row` of `out` (already sized).
  const char* DecodeMoments(std::span<const unsigned char> record,
                            std::size_t row, MomentColumns* out);
  // Decodes `record` into an object appended to `*out`.
  const char* DecodeObject(std::span<const unsigned char> record,
                           std::vector<uncertain::UncertainObject>* out);

 private:
  // Parses the record's m pdf records into pdf_ in turn, calling on_pdf(j)
  // after each.
  template <typename OnPdf>
  const char* ForEachPdf(std::span<const unsigned char> record,
                         OnPdf&& on_pdf);

  std::size_t dims_;
  PdfRecord pdf_;
  std::vector<double> mean_, mu2_, var_;
};

template <typename OnPdf>
const char* RecordDecoder::ForEachPdf(std::span<const unsigned char> record,
                                      OnPdf&& on_pdf) {
  RecordCursor cur(record.data(), record.size());
  for (std::size_t j = 0; j < dims_; ++j) {
    if (!ParsePdf(&cur, &pdf_)) return "malformed pdf record";
    on_pdf(j);
  }
  return cur.exhausted() ? nullptr : "trailing bytes";
}

const char* RecordDecoder::DecodeMoments(std::span<const unsigned char> record,
                                         std::size_t row,
                                         MomentColumns* out) {
  const char* defect = ForEachPdf(record, [&](std::size_t j) {
    const uncertain::PdfMoments moments = MomentsOf(pdf_);
    mean_[j] = moments.mean;
    mu2_[j] = moments.second_moment;
    var_[j] = moments.variance();
  });
  if (defect != nullptr) return defect;
  const std::size_t at = row * dims_;
  uncertain::MomentMatrix::PackRow(mean_, mu2_, var_, out->mean.data() + at,
                                   out->mu2.data() + at,
                                   out->var.data() + at,
                                   out->total_var.data() + row);
  return nullptr;
}

const char* RecordDecoder::DecodeObject(
    std::span<const unsigned char> record,
    std::vector<uncertain::UncertainObject>* out) {
  std::vector<uncertain::PdfPtr> pdfs;
  pdfs.reserve(dims_);
  const char* defect = ForEachPdf(
      record, [&](std::size_t) { pdfs.push_back(MakePdf(&pdf_)); });
  if (defect != nullptr) return defect;
  out->emplace_back(std::move(pdfs));
  return nullptr;
}

}  // namespace

BinaryDatasetReader::~BinaryDatasetReader() {
  if (file_ != nullptr) std::fclose(file_);
}

common::Status BinaryDatasetReader::Corrupt(const std::string& msg) const {
  return common::Status::IOError(path_ + ": " + msg);
}

common::Status BinaryDatasetReader::Open(const std::string& path) {
  if (file_ != nullptr) {
    return common::Status::InvalidArgument("reader is already open");
  }
  path_ = path;
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return common::Status::IOError("cannot open " + path);
  // Records are read a few bytes at a time; a larger stdio buffer turns
  // that into fewer, larger reads.
  std::setvbuf(file_, nullptr, _IOFBF, 1 << 16);
  if (std::fseek(file_, 0, SEEK_END) != 0) return Corrupt("cannot seek");
  const long end = std::ftell(file_);
  if (end < 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return Corrupt("cannot determine file size");
  }
  file_size_ = static_cast<uint64_t>(end);

  unsigned char header[kHeaderBytes];
  if (std::fread(header, 1, sizeof(header), file_) != sizeof(header)) {
    return Corrupt("file too short for a dataset header");
  }
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic (not a uclust binary dataset)");
  }
  uint32_t endian = 0, version = 0, flags = 0, name_len = 0;
  uint64_t n = 0, dims = 0;
  int32_t num_classes = 0;
  std::memcpy(&endian, header + 8, sizeof(endian));
  std::memcpy(&version, header + 12, sizeof(version));
  std::memcpy(&n, header + 16, sizeof(n));
  std::memcpy(&dims, header + 24, sizeof(dims));
  std::memcpy(&num_classes, header + 32, sizeof(num_classes));
  std::memcpy(&flags, header + 36, sizeof(flags));
  std::memcpy(&labels_offset_, header + 40, sizeof(labels_offset_));
  std::memcpy(&name_len, header + 48, sizeof(name_len));
  if (endian == kEndianTagSwapped) {
    return Corrupt("file was written on an opposite-endian machine");
  }
  if (endian != kEndianTag) {
    return Corrupt("bad endianness canary (corrupt header)");
  }
  if (version == 0 || version > kFormatVersion) {
    return Corrupt("unsupported format version " + std::to_string(version) +
                   " (reader supports up to " +
                   std::to_string(kFormatVersion) + ")");
  }
  if (dims == 0) return Corrupt("header declares zero dimensions");
  if (num_classes < 0) return Corrupt("header declares negative num_classes");
  // Every object record occupies at least 4 (length prefix) + 9*dims (the
  // smallest pdf record is a tagged Dirac) bytes, so a header whose n/dims
  // cannot physically fit the file is rejected up front — consumers may
  // then size allocations from these fields without re-validating.
  if (n > file_size_ || dims > file_size_ ||
      static_cast<unsigned __int128>(n) * (4 + 9 * dims) >
          static_cast<unsigned __int128>(file_size_)) {
    return Corrupt("header object count/dims inconsistent with file size");
  }
  has_labels_ = (flags & kFlagHasLabels) != 0;
  if (has_labels_ && labels_offset_ < kHeaderBytes + name_len) {
    return Corrupt("labels offset points into the header");
  }
  if (kHeaderBytes + static_cast<uint64_t>(name_len) > file_size_) {
    return Corrupt("header name length inconsistent with file size");
  }
  n_ = static_cast<std::size_t>(n);
  dims_ = static_cast<std::size_t>(dims);
  num_classes_ = num_classes;
  name_.resize(name_len);
  if (name_len > 0 &&
      std::fread(name_.data(), 1, name_len, file_) != name_len) {
    return Corrupt("file too short for the dataset name");
  }
  offset_ = kHeaderBytes + name_len;
  cursor_ = 0;
  return common::Status::Ok();
}

common::Status BinaryDatasetReader::CheckPayload(uint32_t payload) const {
  // Bounds-check the untrusted length before anything is sized from it: a
  // corrupt record must surface as an error, not as an attempted huge
  // allocation.
  if (offset_ + sizeof(payload) > file_size_ ||
      payload > file_size_ - offset_ - sizeof(payload)) {
    return Corrupt("truncated file: object record " + std::to_string(cursor_) +
                   " runs past the end of the file");
  }
  return common::Status::Ok();
}

common::Status BinaryDatasetReader::ReadRecords(std::size_t max) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("reader is not open");
  }
  if (max == 0) return common::Status::InvalidArgument("max must be > 0");
  const std::size_t count = std::min(max, remaining());
  batch_bytes_.clear();
  batch_starts_.clear();
  // Growing the buffer record by record would copy it over and over.
  batch_bytes_.reserve(std::min<uint64_t>(file_size_ - offset_, 1u << 22));
  for (std::size_t i = 0; i < count; ++i) {
    uint32_t payload = 0;
    if (std::fread(&payload, sizeof(payload), 1, file_) != 1) {
      return Corrupt("truncated file: missing record length for object " +
                     std::to_string(cursor_));
    }
    UCLUST_RETURN_NOT_OK(CheckPayload(payload));
    const std::size_t at = batch_bytes_.size();
    batch_bytes_.resize(at + sizeof(payload) + payload);
    std::memcpy(batch_bytes_.data() + at, &payload, sizeof(payload));
    if (payload > 0 && std::fread(batch_bytes_.data() + at + sizeof(payload),
                                  1, payload, file_) != payload) {
      return Corrupt("truncated file: short object record " +
                     std::to_string(cursor_));
    }
    batch_starts_.push_back(at);
    offset_ += sizeof(payload) + payload;
    ++cursor_;
  }
  return common::Status::Ok();
}

common::Status BinaryDatasetReader::SkipRecords(std::size_t count) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("reader is not open");
  }
  if (count > remaining()) {
    return common::Status::InvalidArgument("cannot skip past the last object");
  }
  for (std::size_t i = 0; i < count; ++i) {
    uint32_t payload = 0;
    if (std::fread(&payload, sizeof(payload), 1, file_) != 1) {
      return Corrupt("truncated file: missing record length for object " +
                     std::to_string(cursor_));
    }
    UCLUST_RETURN_NOT_OK(CheckPayload(payload));
    if (std::fseek(file_, static_cast<long>(payload), SEEK_CUR) != 0) {
      return Corrupt("cannot seek past object record " +
                     std::to_string(cursor_));
    }
    offset_ += sizeof(payload) + payload;
    ++cursor_;
  }
  return common::Status::Ok();
}

common::Status BinaryDatasetReader::DecodeMomentRows(
    const RecordView& records, std::size_t first_object,
    const engine::Engine& eng, MomentColumns* out, std::size_t row) const {
  // Rows are independent, so any thread count packs the same bytes; a
  // defect is reported for the lowest failing object whatever the schedule.
  std::atomic<std::size_t> first_bad{records.size()};
  engine::ParallelFor(eng, records.size(), [&](const engine::BlockedRange& r) {
    RecordDecoder decoder(dims_);
    for (std::size_t i = r.begin; i < r.end; ++i) {
      if (decoder.DecodeMoments(records.record(i), row + i, out) != nullptr) {
        std::size_t seen = first_bad.load(std::memory_order_relaxed);
        while (i < seen && !first_bad.compare_exchange_weak(
                               seen, i, std::memory_order_relaxed)) {
        }
        return;
      }
    }
  });
  const std::size_t bad = first_bad.load();
  if (bad == records.size()) return common::Status::Ok();
  RecordDecoder decoder(dims_);
  return Corrupt(
      std::string(decoder.DecodeMoments(records.record(bad), row + bad, out)) +
      " in object " + std::to_string(first_object + bad));
}

common::Status BinaryDatasetReader::ReadBatch(
    std::size_t max, std::vector<uncertain::UncertainObject>* out) {
  out->clear();
  const std::size_t first = cursor_;
  UCLUST_RETURN_NOT_OK(ReadRecords(max));
  const RecordView records{batch_bytes_.data(), batch_starts_};
  out->reserve(records.size());
  RecordDecoder decoder(dims_);
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (const char* defect = decoder.DecodeObject(records.record(i), out)) {
      return Corrupt(std::string(defect) + " in object " +
                     std::to_string(first + i));
    }
  }
  return common::Status::Ok();
}

common::Result<std::size_t> BinaryDatasetReader::ReadMomentRows(
    std::size_t max, const engine::Engine& eng, MomentColumns* out,
    std::size_t row) {
  const std::size_t first = cursor_;
  UCLUST_RETURN_NOT_OK(ReadRecords(max));
  const RecordView records{batch_bytes_.data(), batch_starts_};
  UCLUST_RETURN_NOT_OK(DecodeMomentRows(records, first, eng, out, row));
  return records.size();
}

common::Status BinaryDatasetReader::ReadSnapshot(
    MappedRegion* snapshot, std::vector<std::size_t>* starts,
    MomentColumns* moments) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("reader is not open");
  }
  const uint64_t base = offset_;
  auto region = ReadFileRegion(::fileno(file_), path_, base,
                               static_cast<std::size_t>(file_size_ - base));
  if (!region.ok()) return region.status();
  *snapshot = std::move(region).ValueOrDie();
  const std::size_t first = cursor_;
  const std::size_t count = remaining();
  starts->clear();
  starts->reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    uint32_t payload = 0;
    if (file_size_ - offset_ < sizeof(payload)) {
      return Corrupt("truncated file: missing record length for object " +
                     std::to_string(cursor_));
    }
    std::memcpy(&payload, snapshot->data() + (offset_ - base),
                sizeof(payload));
    UCLUST_RETURN_NOT_OK(CheckPayload(payload));
    starts->push_back(static_cast<std::size_t>(offset_ - base));
    offset_ += sizeof(payload) + payload;
    ++cursor_;
  }
  moments->Resize(count, dims_);
  return DecodeMomentRows(RecordView{snapshot->data(), *starts}, first,
                          engine::Engine::Serial(), moments, 0);
}

common::Status BinaryDatasetReader::ReadLabels(std::vector<int>* labels) {
  if (file_ == nullptr) {
    return common::Status::InvalidArgument("reader is not open");
  }
  labels->clear();
  if (!has_labels_) return common::Status::Ok();
  const long saved = std::ftell(file_);
  if (saved < 0) return Corrupt("ftell failed");
  if (std::fseek(file_, static_cast<long>(labels_offset_), SEEK_SET) != 0) {
    return Corrupt("cannot seek to labels column");
  }
  std::vector<int32_t> raw(n_);
  if (n_ > 0 && std::fread(raw.data(), sizeof(int32_t), n_, file_) != n_) {
    return Corrupt("truncated labels column");
  }
  labels->assign(raw.begin(), raw.end());
  if (std::fseek(file_, saved, SEEK_SET) != 0) {
    return Corrupt("cannot restore stream position");
  }
  return common::Status::Ok();
}

common::Result<data::UncertainDataset> ReadUncertainDataset(
    const std::string& path) {
  BinaryDatasetReader reader;
  UCLUST_RETURN_NOT_OK(reader.Open(path));
  // The record bytes the objects are built from on first use; released
  // (unmapped) once they are.
  struct Snapshot {
    MappedRegion bytes;
    std::vector<std::size_t> starts;
  };
  auto snapshot = std::make_shared<Snapshot>();
  MomentColumns cols;
  UCLUST_RETURN_NOT_OK(
      reader.ReadSnapshot(&snapshot->bytes, &snapshot->starts, &cols));
  std::vector<int> labels;
  UCLUST_RETURN_NOT_OK(reader.ReadLabels(&labels));
  const std::size_t m = reader.dims();
  uncertain::MomentMatrix moments = uncertain::MomentMatrix::FromColumns(
      reader.size(), m, std::move(cols.mean), std::move(cols.mu2),
      std::move(cols.var), std::move(cols.total_var));
  auto build_objects = [snapshot = std::move(snapshot), m] {
    const RecordView records{snapshot->bytes.data(), snapshot->starts};
    std::vector<uncertain::UncertainObject> objects;
    objects.reserve(records.size());
    RecordDecoder decoder(m);
    for (std::size_t i = 0; i < records.size(); ++i) {
      // ReadSnapshot validated every record, so this cannot fail.
      [[maybe_unused]] const char* defect =
          decoder.DecodeObject(records.record(i), &objects);
      assert(defect == nullptr);
    }
    return objects;
  };
  data::UncertainDataset ds = data::UncertainDataset::Lazy(
      reader.name(), std::move(moments), std::move(build_objects),
      std::move(labels), reader.num_classes());
  // Annotate provenance: the sample-store factory keys its sidecar reuse
  // guard (and the default sidecar location) off the source file.
  ds.set_source_path(path);
  return ds;
}

}  // namespace uclust::io
