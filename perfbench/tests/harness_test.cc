// Self-tests of the benchmark harness: the percentile and sample-count rule,
// span self-time arithmetic, the metric-name grammar, the result line, and
// the agreement of BENCHMARK.json with the metric catalogue.
//
//   perfbench_selftest path/to/BENCHMARK.json
#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.h"
#include "harness.h"
#include "metrics.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentiles() {
  using perfbench::Percentile;
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(Near(Percentile(v, 50), 50));
  CHECK(Near(Percentile(v, 90), 90));
  CHECK(Near(Percentile(v, 100), 100));
  CHECK(Near(Percentile({7}, 90), 7));
  CHECK(Near(Percentile({}, 50), 0));
  CHECK(Near(Percentile({1, 2, 3, 4, 5}, 90), 5));
  CHECK(Near(perfbench::Median({3, 1, 2}), 2));
  CHECK(Near(perfbench::Median({4, 1, 3, 2}), 2.5));

  // Ten samples beyond p90 need at least 100 samples.
  CHECK(perfbench::SamplesBeyond(100, 90) == 10);
  CHECK(perfbench::PercentileResolved(100, 90));
  CHECK(!perfbench::PercentileResolved(99, 90));
  CHECK(perfbench::SamplesBeyond(20, 50) == 10);
  CHECK(perfbench::PercentileResolved(20, 50));
  CHECK(!perfbench::PercentileResolved(19, 50));
  CHECK(perfbench::SamplesBeyond(0, 90) == 0);
  CHECK(perfbench::SamplesBeyond(5, 90) == 0);
}

perfbench::Span MakeSpan(const char* name, double start, double end,
                         int parent) {
  perfbench::Span s;
  s.name = name;
  s.start_ms = start;
  s.end_ms = end;
  s.parent = parent;
  return s;
}

void TestSelfTime() {
  perfbench::Tracer t;
  t.Add(MakeSpan("bench.job", 0, 100, -1));      // 0
  t.Add(MakeSpan("io.read", 10, 30, 0));         // 1
  t.Add(MakeSpan("clustering.ucpc", 30, 80, 0)); // 2
  t.Add(MakeSpan("common.result_json", 70, 90, 0));  // 3: overlaps 2
  t.Add(MakeSpan("uncertain.moments", 40, 50, 2));   // 4
  const std::vector<double> self = perfbench::SelfTimes(t.spans());
  CHECK(Near(self[0], 100 - 80));  // children cover [10, 90]
  CHECK(Near(self[1], 20));
  CHECK(Near(self[2], 40));
  CHECK(Near(self[3], 20));
  CHECK(Near(self[4], 10));
  const auto by_layer = perfbench::SelfTimeByLayer(t.spans(), 0, 5);
  CHECK(Near(by_layer.at("bench"), 20));
  CHECK(Near(by_layer.at("clustering"), 40));
  CHECK(Near(by_layer.at("uncertain"), 10));
  // A sub-range keeps the self times computed against the whole list.
  const auto tail = perfbench::SelfTimeByLayer(t.spans(), 2, 5);
  CHECK(tail.count("bench") == 0);
  CHECK(Near(tail.at("clustering"), 40));
  // A parent link outside the list is ignored, not followed.
  perfbench::Tracer orphan;
  orphan.Add(MakeSpan("io.read", 0, 4, 7));
  CHECK(Near(perfbench::SelfTimes(orphan.spans())[0], 4));

  // A child sticking out of its parent only counts inside the parent.
  perfbench::Tracer u;
  u.Add(MakeSpan("bench.job", 0, 10, -1));
  u.Add(MakeSpan("io.read", 5, 15, 0));
  CHECK(Near(perfbench::SelfTimes(u.spans())[0], 5));

  // Merge re-bases parent links.
  perfbench::Tracer m;
  m.Add(MakeSpan("bench.job", 0, 1, -1));
  m.Merge(t);
  CHECK(m.spans().size() == 6);
  CHECK(m.spans()[2].parent == 1);
  CHECK(m.spans()[5].parent == 3);

  // Live spans nest through ScopedSpan; a null tracer records nothing.
  perfbench::Tracer live;
  {
    perfbench::ScopedSpan outer(&live, "bench.job", 0);
    perfbench::ScopedSpan inner(&live, "io.read", 0);
  }
  { perfbench::ScopedSpan none(nullptr, "io.read", 0); }
  CHECK(live.spans().size() == 2);
  CHECK(live.spans()[1].parent == 0);
  CHECK(live.spans()[0].end_ms >= live.spans()[1].end_ms);
}

void TestNames() {
  using perfbench::ValidMetricName;
  CHECK(ValidMetricName("job_p50_ms"));
  CHECK(ValidMetricName("clustering.pairwise_store.warm_hit_ratio"));
  CHECK(ValidMetricName("io.read-ms"));
  CHECK(ValidMetricName("9lives"));
  CHECK(!ValidMetricName(""));
  CHECK(!ValidMetricName(".hidden"));
  CHECK(!ValidMetricName("_x"));
  CHECK(!ValidMetricName("has space"));
  CHECK(!ValidMetricName("a/b"));
  CHECK(!ValidMetricName(std::string(65, 'a')));
  CHECK(ValidMetricName(std::string(64, 'a')));
  CHECK(perfbench::ValidUnit("objects/s"));
  CHECK(perfbench::ValidUnit("%"));
  CHECK(!perfbench::ValidUnit("per second"));
  CHECK(perfbench::LayerOf("io.read_ms") == "io");
  CHECK(perfbench::LayerOf("setup_s") == "setup_s");

  std::set<std::string> seen;
  for (const auto* table :
       {&perfbench::EndToEndMetrics(), &perfbench::PerLayerMetrics()}) {
    for (const perfbench::MetricSpec& m : *table) {
      CHECK(ValidMetricName(m.name));
      CHECK(perfbench::ValidUnit(m.unit));
      CHECK(seen.insert(m.name).second);
    }
  }
}

void TestResultLine() {
  const std::string line = perfbench::ResultLine(
      true, 3, 0, {{"job_p50_ms", "ms", 1.25}, {"setup_s", "s", 0.5}});
  auto parsed = uclust::common::ParseJson(line);
  CHECK(parsed.ok());
  if (!parsed.ok()) return;
  const auto& v = parsed.ValueOrDie();
  CHECK(v.Find("correct")->AsBool());
  CHECK(v.Find("attempted")->AsInt() == 3);
  CHECK(v.Find("failed")->AsInt() == 0);
  CHECK(Near(v.Find("metrics")->Find("job_p50_ms")->Find("value")->AsDouble(),
             1.25));
  CHECK(v.members().size() == 4);
  // Full precision survives the round trip.
  const double x = 0.1 + 0.2;
  auto precise = uclust::common::ParseJson(
      perfbench::ResultLine(true, 1, 0, {{"a", "ms", x}}));
  CHECK(precise.ok() &&
        precise.ValueOrDie().Find("metrics")->Find("a")->Find("value")
                ->AsDouble() == x);
  // A non-finite value cannot be reported as a correct run.
  auto nan = uclust::common::ParseJson(
      perfbench::ResultLine(true, 1, 0, {{"a", "ms", std::nan("")}}));
  CHECK(nan.ok() && !nan.ValueOrDie().Find("correct")->AsBool());
}

void CheckTable(const uclust::common::JsonValue* list,
                const std::vector<perfbench::MetricSpec>& table,
                const char* key) {
  CHECK(list != nullptr && list->items().size() == table.size());
  if (list == nullptr || list->items().size() != table.size()) {
    std::fprintf(stderr, "  %s differs from the catalogue\n", key);
    return;
  }
  for (std::size_t i = 0; i < table.size(); ++i) {
    const auto& m = list->items()[i];
    const bool same = m.Find("name")->AsString() == table[i].name &&
                      m.Find("unit")->AsString() == table[i].unit &&
                      m.Find("better")->AsString() == table[i].better;
    CHECK(same);
    if (!same) std::fprintf(stderr, "  %s[%zu] %s\n", key, i, table[i].name);
  }
}

void TestBenchmarkJson(const char* path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  auto parsed = uclust::common::ParseJson(text.str());
  CHECK(parsed.ok());
  if (!parsed.ok()) return;
  const auto& v = parsed.ValueOrDie();
  CheckTable(v.Find("end_to_end"), perfbench::EndToEndMetrics(), "end_to_end");
  CheckTable(v.Find("per_layer"), perfbench::PerLayerMetrics(), "per_layer");
  for (const auto& m : v.Find("end_to_end")->items()) {
    const double bound = m.Find("bound")->AsDouble();
    CHECK(bound > 0 && bound <= 0.25);
  }
}

}  // namespace

int main(int argc, char** argv) {
  TestPercentiles();
  TestSelfTime();
  TestNames();
  TestResultLine();
  if (argc > 1) TestBenchmarkJson(argv[1]);
  std::printf("perfbench selftest: %s (%d failures)\n",
              failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
