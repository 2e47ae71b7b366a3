// Unit tests for the metrics registry (src/obs/metrics.h): stable
// counter/histogram pointers, histogram bucket edges, snapshot ordering
// and lookups, text/JSON rendering, pull-sources with and without reset
// callbacks, and the Inverda facade's consolidated Metrics() /
// ResetMetrics() surface agreeing with the deprecated per-component shims.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "inverda/inverda.h"
#include "obs/metrics.h"

namespace inverda {
namespace {

TEST(MetricsRegistryTest, HandsOutStablePointers) {
  obs::MetricsRegistry reg;
  obs::Counter* c = reg.counter("x");
  EXPECT_EQ(c, reg.counter("x"));
  EXPECT_NE(c, reg.counter("y"));
  obs::Histogram* h = reg.histogram("h");
  EXPECT_EQ(h, reg.histogram("h"));
  c->Add(3);
  c->Add();
  EXPECT_EQ(reg.value("x"), 4);
  EXPECT_EQ(reg.value("y"), 0);
}

TEST(MetricsRegistryTest, HistogramBucketEdgesAreInclusive) {
  obs::Histogram h;
  const auto& bounds = obs::Histogram::BucketBounds();
  h.Record(bounds[0]);          // exactly the first bound -> bucket 0
  h.Record(bounds[0] + 1);      // one past it -> bucket 1
  h.Record(bounds[1]);          // exactly the second bound -> bucket 1 too
  h.Record(bounds.back());      // last finite bound -> last finite bucket
  h.Record(bounds.back() + 1);  // past every bound -> overflow bucket
  obs::Histogram::Snapshot s = h.snapshot();
  EXPECT_EQ(s.count, 5);
  EXPECT_EQ(s.buckets[0], 1);
  EXPECT_EQ(s.buckets[1], 2);
  EXPECT_EQ(s.buckets[obs::Histogram::kNumBuckets - 2], 1);
  EXPECT_EQ(s.buckets[obs::Histogram::kNumBuckets - 1], 1);
  EXPECT_EQ(s.sum_ns, bounds[0] + (bounds[0] + 1) + bounds[1] +
                          bounds.back() + (bounds.back() + 1));
  EXPECT_DOUBLE_EQ(s.mean_ns(), static_cast<double>(s.sum_ns) / 5.0);
  h.Reset();
  EXPECT_EQ(h.snapshot().count, 0);
  EXPECT_EQ(h.snapshot().sum_ns, 0);
  EXPECT_EQ(h.snapshot().buckets[1], 0);
}

TEST(MetricsRegistryTest, ScopedTimerRecordsOnceAndNullIsANoOp) {
  obs::Histogram h;
  { obs::ScopedTimer timer(&h); }
  EXPECT_EQ(h.count(), obs::kObsBuild ? 1 : 0);
  { obs::ScopedTimer timer(nullptr); }
  EXPECT_EQ(h.count(), obs::kObsBuild ? 1 : 0);
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndLookupsWork) {
  obs::MetricsRegistry reg;
  reg.counter("b.two")->Add(2);
  reg.counter("a.one")->Add(1);
  reg.RegisterSource("src", [] {
    return std::vector<obs::MetricValue>{{"c.three", 3}};
  });
  reg.histogram("lat")->Record(500);
  obs::MetricsSnapshot snap = reg.Snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "a.one");
  EXPECT_EQ(snap.counters[1].name, "b.two");
  EXPECT_EQ(snap.counters[2].name, "c.three");
  EXPECT_TRUE(snap.has("c.three"));
  EXPECT_FALSE(snap.has("missing"));
  EXPECT_EQ(snap.value("c.three"), 3);
  EXPECT_EQ(snap.value("missing"), 0);
  ASSERT_NE(snap.histogram("lat"), nullptr);
  EXPECT_EQ(snap.histogram("lat")->count, 1);
  EXPECT_EQ(snap.histogram("missing"), nullptr);
}

TEST(MetricsRegistryTest, RendersTextAndJson) {
  obs::MetricsRegistry reg;
  reg.counter("ops.total")->Add(7);
  reg.histogram("ops.latency_ns")->Record(300);  // lands in the <=1000 bucket
  obs::MetricsSnapshot snap = reg.Snapshot();

  std::string text = snap.ToText();
  EXPECT_NE(text.find("ops.total"), std::string::npos);
  EXPECT_NE(text.find("ops.latency_ns"), std::string::npos);
  EXPECT_NE(text.find("count=1"), std::string::npos);
  EXPECT_NE(text.find("[<=1000]=1"), std::string::npos);

  std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"ops.total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"ops.latency_ns\":{\"count\":1,\"sum_ns\":300"),
            std::string::npos);
  EXPECT_NE(json.find("{\"le\":250,\"count\":0}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":1000,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":null,\"count\":0}"), std::string::npos);
}

TEST(MetricsRegistryTest, ResetHonorsSourceResetCallbacks) {
  obs::MetricsRegistry reg;
  int64_t resettable = 5;
  int64_t monotonic = 9;
  reg.RegisterSource(
      "with_reset",
      [&] { return std::vector<obs::MetricValue>{{"w.v", resettable}}; },
      [&] { resettable = 0; });
  reg.RegisterSource("without_reset", [&] {
    return std::vector<obs::MetricValue>{{"m.v", monotonic}};
  });
  reg.counter("push")->Add(4);
  reg.histogram("h")->Record(1);
  reg.Reset();
  obs::MetricsSnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.value("push"), 0);
  ASSERT_NE(snap.histogram("h"), nullptr);
  EXPECT_EQ(snap.histogram("h")->count, 0);
  EXPECT_EQ(snap.value("w.v"), 0);  // source reset callback ran
  EXPECT_EQ(snap.value("m.v"), 9);  // monotonic source keeps its value
}

// The consolidation satellite: every per-component stats surface is
// reachable through Inverda::Metrics() (the pre-registry per-component
// getters are gone) and resets through the single ResetMetrics() point.
TEST(MetricsFacadeTest, ConsolidatesComponentStatsBehindOneRegistry) {
  Inverda db;
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V0 WITH "
                         "CREATE TABLE tab(k0 INT, v0 TEXT);")
                  .ok());
  ASSERT_TRUE(db.Execute("CREATE SCHEMA VERSION V1 FROM V0 WITH "
                         "ADD COLUMN c1 INT AS k0 + 1 INTO tab;")
                  .ok());
  ASSERT_TRUE(
      db.Insert("V0", "tab", {Value::Int(1), Value::String("r")}).ok());
  // Latency histograms record only under the detailed-timing gate.
  db.Metrics().set_timing_enabled(true);
  ASSERT_TRUE(db.Select("V1", "tab").ok());
  ASSERT_TRUE(db.Select("V1", "tab").ok());

  obs::MetricsSnapshot snap = db.Metrics().Snapshot();
  // The registry's pull-sources read the components' own atomics, so the
  // numbers reflect the workload exactly: the insert compiles V0's plan,
  // the first select compiles V1's, and every later resolution hits — the
  // second select of V1 and both derivations' scans of V0.
  EXPECT_EQ(snap.value("plan_cache.compiles"), 2);
  EXPECT_EQ(snap.value("plan_cache.size"), 2);
  EXPECT_EQ(snap.value("plan_cache.hits"), 3);
  // The verify gate's rejection counter is registered even while the gate
  // is off (and must be zero: nothing was rejected).
  EXPECT_EQ(snap.value("plan_verify.fusion_rejected"), 0);
  if (obs::kObsBuild) {
    const obs::Histogram::Snapshot* scan = snap.histogram("access.scan_ns");
    ASSERT_NE(scan, nullptr);
    EXPECT_GT(scan->count, 0);
  }

  // One reset point: ResetMetrics() resets the components through their
  // registered reset callbacks...
  const int64_t walks = snap.value("plan_compiler.route_walks");
  EXPECT_GT(walks, 0);
  db.ResetMetrics();
  EXPECT_EQ(db.Metrics().value("plan_cache.hits"), 0);
  EXPECT_EQ(db.Metrics().value("plan_cache.compiles"), 0);
  // ...except the compiler's walk counters, which are monotonic by
  // contract (the plan cache diffs them around compiles), so their source
  // registers no reset hook.
  EXPECT_EQ(db.Metrics().value("plan_compiler.route_walks"), walks);
  // Cached plans survive the reset and keep serving hits from zero.
  EXPECT_EQ(db.Metrics().value("plan_cache.size"), 2);
  ASSERT_TRUE(db.Select("V1", "tab").ok());
  EXPECT_EQ(db.Metrics().value("plan_cache.hits"), 2);
  EXPECT_EQ(db.Metrics().value("plan_cache.compiles"), 0);
}

}  // namespace
}  // namespace inverda
