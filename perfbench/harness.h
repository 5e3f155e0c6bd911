// Measurement helpers of the end-to-end benchmark: percentiles and the
// sample-count rule, an in-memory span tracer with self-time arithmetic, the
// metric-name grammar, and the one-line JSON result. Header-only and free of
// library dependencies so tests/harness_test.cc can check it in isolation.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------- clocks --

/// Monotonic wall clock in milliseconds.
inline double WallMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the whole process (every thread) in milliseconds.
inline double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// ----------------------------------------------------------- percentiles --

/// Nearest-rank percentile: the smallest sample with at least q% of the
/// samples at or below it. q in (0, 100]; 0 for an empty set.
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[idx];
}

/// Median (mean of the two middle samples for an even count).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/// Samples strictly above the nearest-rank q-th percentile of n samples.
inline std::size_t SamplesBeyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(n));
  return n - std::min(n, static_cast<std::size_t>(std::max(rank, 1.0)));
}

/// True when the q-th percentile of n samples has at least ten samples
/// beyond it — the rule for reporting a tail percentile.
inline bool PercentileResolved(std::size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

// ------------------------------------------------------------ metric names --

/// Metric names: 1-64 of [A-Za-z0-9_.-], starting with a letter or digit.
inline bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// Units: 1-16 of [A-Za-z0-9_/%.-].
inline bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '/' || c == '%' ||
           c == '.' || c == '-';
  });
}

/// Layer of a span or metric name: the text before the first '.'.
inline std::string LayerOf(std::string_view name) {
  return std::string(name.substr(0, name.find('.')));
}

// ----------------------------------------------------------------- tracing --

/// One timed call into a layer, recorded from outside the library.
struct Span {
  std::string name;  ///< "<layer>.<call>", e.g. "io.read".
  double start_ms = 0;
  double end_ms = 0;
  double cpu_ms = 0;  ///< Process CPU time spent while the span was open.
  int parent = -1;    ///< Index of the enclosing span; -1 at the root.
  int job = -1;       ///< Job the span belongs to; -1 outside jobs.
  int threads = 1;    ///< Engine threads the call ran on.
  double duration_ms() const { return end_ms - start_ms; }
};

/// Keeps spans in memory for one thread of control; Merge() combines the
/// tracers of concurrent clients once they have joined.
class Tracer {
 public:
  int Begin(std::string name, int job, int threads) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.job = job;
    s.threads = threads;
    s.cpu_ms = ProcessCpuMs();
    s.start_ms = WallMs();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }
  void End(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ms = WallMs();
    s.cpu_ms = ProcessCpuMs() - s.cpu_ms;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  /// Appends another tracer's closed spans, re-basing their parent links.
  void Merge(const Tracer& other) {
    const int base = static_cast<int>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Test hook: records a finished span with explicit times.
  void Add(Span s) { spans_.push_back(std::move(s)); }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer makes it a no-op, so one job body serves traced and untraced runs.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int job, int threads = 1)
      : tracer_(tracer),
        id_(tracer ? tracer->Begin(std::move(name), job, threads) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
inline std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ms,
                                                            s.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms, hi = spans[i].end_ms;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

/// Sum of self times per layer (LayerOf of the span name) over the spans
/// with index in [begin, end).
inline std::map<std::string, double> SelfTimeByLayer(
    const std::vector<Span>& spans, std::size_t begin, std::size_t end) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> out;
  for (std::size_t i = begin; i < std::min(end, spans.size()); ++i) {
    out[LayerOf(spans[i].name)] += self[i];
  }
  return out;
}

/// Writes spans as a JSON array, one object per line.
inline bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  const double t0 = spans.empty() ? 0.0 : spans.front().start_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
                 "\"cpu_ms\":%.6f,\"parent\":%d,\"job\":%d,\"threads\":%d}%s\n",
                 i, s.name.c_str(), s.start_ms - t0, s.end_ms - t0, s.cpu_ms,
                 s.parent, s.job, s.threads, i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

// ----------------------------------------------------------------- result --

/// A named metric value with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Values keep all their digits (%.17g); a non-finite value is written as
/// 0 and makes the line report correct=false.
inline std::string ResultLine(bool correct, long long attempted,
                              long long failed,
                              const std::vector<Metric>& metrics) {
  std::string body;
  char buf[128];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    double v = metrics[i].value;
    if (!std::isfinite(v)) {
      v = 0;
      correct = false;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    body += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::snprintf(buf, sizeof(buf), "\"attempted\": %lld, \"failed\": %lld",
                attempted, failed);
  return std::string("{\"correct\": ") + (correct ? "true" : "false") + ", " +
         buf + ", \"metrics\": {" + body + "}}";
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
