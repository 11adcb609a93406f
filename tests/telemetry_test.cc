// Unit tests for the telemetry leaf: metric handle semantics, histogram
// bucketing, snapshot/reset behavior, instance-cell aggregation and
// retirement, span nesting, and the disabled-mode zero-allocation guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "json_validator.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

// Global allocation counter for the zero-allocation test. Replacing the
// global operator new in one translation unit covers the whole test binary.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

// The replacement operator new above is malloc-based, so free() here is the
// matching deallocator; GCC cannot see that pairing and warns spuriously.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace ucudnn::telemetry {
namespace {

TEST(MetricsTest, CounterAccumulatesAndSharesCellsByName) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter a = registry.counter("test.counter.shared");
  Counter b = registry.counter("test.counter.shared");
  const std::uint64_t base = a.value();
  a.add();
  a.add(4);
  b.add(2);
  EXPECT_EQ(a.value(), base + 7);
  EXPECT_EQ(b.value(), base + 7);  // same name, same cell
}

TEST(MetricsTest, DoubleCounterAndGauge) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  DoubleCounter d = registry.double_counter("test.double");
  const double base = d.value();
  d.add(1.5);
  d.add(2.25);
  EXPECT_DOUBLE_EQ(d.value(), base + 3.75);

  Gauge g = registry.gauge("test.gauge");
  g.set(42);
  EXPECT_EQ(g.value(), 42);
  g.add(-2);
  EXPECT_EQ(g.value(), 40);
  g.set(7);
  EXPECT_EQ(g.value(), 7);  // last writer wins
}

TEST(MetricsTest, DefaultConstructedHandlesAreInertNoOps) {
  Counter c;
  c.add(5);
  EXPECT_EQ(c.value(), 0u);
  DoubleCounter d;
  d.add(1.0);
  EXPECT_DOUBLE_EQ(d.value(), 0.0);
  Gauge g;
  g.set(3);
  EXPECT_EQ(g.value(), 0);
  Histogram h;
  h.observe_ms(1.0);
  EXPECT_EQ(h.data().count, 0u);
}

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Decade buckets: bucket i counts observations <= 1e-3 * 10^i ms.
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_ms(0), 1e-3);
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_ms(3), 1.0);
  EXPECT_DOUBLE_EQ(histogram_bucket_upper_ms(kHistogramBuckets - 2), 1e4);
  EXPECT_TRUE(std::isinf(histogram_bucket_upper_ms(kHistogramBuckets - 1)));

  MetricsRegistry& registry = MetricsRegistry::instance();
  Histogram h = registry.histogram("test.histogram.buckets");
  h.observe_ms(1e-3);  // exactly on the first bound -> bucket 0
  h.observe_ms(0.5);   // (0.1, 1] -> bucket 3
  h.observe_ms(2e4);   // beyond the last finite bound -> overflow bucket
  const HistogramData data = h.data();
  EXPECT_EQ(data.buckets[0], 1u);
  EXPECT_EQ(data.buckets[3], 1u);
  EXPECT_EQ(data.buckets[kHistogramBuckets - 1], 1u);
  EXPECT_EQ(data.count, 3u);
  EXPECT_DOUBLE_EQ(data.sum_ms, 1e-3 + 0.5 + 2e4);
}

TEST(MetricsTest, PercentilesInterpolateWithinOneBucket) {
  // A single observation in bucket 3 (bounds (0.1, 1.0]): the estimator
  // interpolates linearly across the bucket, so pXX lands at
  // lower + (upper - lower) * q.
  HistogramData data;
  data.buckets[3] = 1;
  data.count = 1;
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(data, 0.50), 0.1 + 0.9 * 0.50);
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(data, 0.95), 0.1 + 0.9 * 0.95);
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(data, 0.99), 0.1 + 0.9 * 0.99);
  // q=0 pins to the bucket's lower bound, q=1 to its upper bound.
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(data, 0.0), 0.1);
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(data, 1.0), 1.0);
}

TEST(MetricsTest, PercentilesCrossBucketsAtTheRightRank) {
  // 9 fast observations in bucket 0 ((0, 0.001]) and 1 slow one in bucket 3
  // ((0.1, 1.0]), count = 10. p50 (rank 5) stays inside bucket 0 at 5/9 of
  // its width; p95 (rank 9.5) and p99 (rank 9.9) fall into the slow bucket.
  HistogramData data;
  data.buckets[0] = 9;
  data.buckets[3] = 1;
  data.count = 10;
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(data, 0.50), 1e-3 * (5.0 / 9.0));
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(data, 0.95), 0.1 + 0.9 * 0.5);
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(data, 0.99), 0.1 + 0.9 * 0.9);
}

TEST(MetricsTest, PercentileEdgeCases) {
  // Empty histogram reports 0 for every quantile.
  HistogramData empty;
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(empty, 0.50), 0.0);
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(empty, 0.99), 0.0);

  // The overflow bucket is open-ended, so percentiles landing there clamp
  // to its lower bound (the last finite decade, 10 s) instead of inf.
  HistogramData overflow;
  overflow.buckets[kHistogramBuckets - 1] = 4;
  overflow.count = 4;
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(overflow, 0.99), 1e4);

  // Out-of-range quantiles clamp to [0, 1].
  HistogramData one;
  one.buckets[3] = 1;
  one.count = 1;
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(one, -1.0), 0.1);
  EXPECT_DOUBLE_EQ(histogram_percentile_ms(one, 2.0), 1.0);
}

TEST(MetricsTest, TextAndJsonExposePercentiles) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  Histogram h = registry.histogram("test.pct.histogram");
  h.observe_ms(0.5);  // single observation in bucket 3

  const std::string text = registry.to_text();
  EXPECT_NE(text.find("test.pct.histogram.p50_ms "), std::string::npos);
  EXPECT_NE(text.find("test.pct.histogram.p95_ms "), std::string::npos);
  EXPECT_NE(text.find("test.pct.histogram.p99_ms "), std::string::npos);

  const std::string json = registry.to_json();
  EXPECT_TRUE(ucudnn::test::JsonValidator(json).validate())
      << "metrics JSON is malformed";
  EXPECT_NE(json.find("\"test.pct.histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"p50_ms\":0.55"), std::string::npos);
  EXPECT_NE(json.find("\"buckets\":["), std::string::npos);
}

TEST(MetricsTest, SnapshotAndTextCoverEveryKind) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  registry.counter("test.snap.counter").add(3);
  registry.double_counter("test.snap.double").add(1.5);
  registry.gauge("test.snap.gauge").set(-4);
  registry.histogram("test.snap.histogram").observe_ms(0.5);

  const MetricsSnapshot snap = registry.snapshot();
  EXPECT_GE(snap.counters.at("test.snap.counter"), 3u);
  EXPECT_GE(snap.double_counters.at("test.snap.double"), 1.5);
  EXPECT_EQ(snap.gauges.at("test.snap.gauge"), -4);
  EXPECT_GE(snap.histograms.at("test.snap.histogram").count, 1u);

  const std::string text = registry.to_text();
  EXPECT_NE(text.find("test.snap.counter "), std::string::npos);
  EXPECT_NE(text.find("test.snap.gauge -4"), std::string::npos);
  EXPECT_NE(text.find("test.snap.histogram.count "), std::string::npos);
  EXPECT_NE(text.find("test.snap.histogram.sum_ms "), std::string::npos);
}

TEST(MetricsTest, ResetZeroesCellsButKeepsHandlesValid) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  Counter c = registry.counter("test.reset.counter");
  Histogram h = registry.histogram("test.reset.histogram");
  c.add(10);
  h.observe_ms(1.0);
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.data().count, 0u);
  // The pre-reset handle still points at the live cell.
  c.add(2);
  EXPECT_EQ(c.value(), 2u);
  EXPECT_EQ(registry.counter("test.reset.counter").value(), 2u);
}

TEST(MetricsTest, CountersAreThreadSafe) {
  Counter c = MetricsRegistry::instance().counter("test.threads.counter");
  const std::uint64_t base = c.value();
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), base + std::uint64_t{kThreads} * kAdds);
}

// --- instance cells ---------------------------------------------------------

TEST(InstanceCellTest, LiveCellsAndProcessHandleSumUnderOneName) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  const std::string name = "test.instance.sum";
  Counter process = registry.counter(name);
  const std::uint64_t base = process.value();
  InstanceCounter a(name);
  InstanceCounter b(name);
  a.add(3);
  b.add(4);
  process.add(5);

  EXPECT_EQ(a.value(), 3u);
  EXPECT_EQ(b.value(), 4u);
  EXPECT_EQ(process.value(), base + 12);
  EXPECT_EQ(registry.counter(name).value(), base + 12);
  EXPECT_EQ(registry.snapshot().counters.at(name), base + 12);
  EXPECT_NE(registry.to_text().find(name + " " + std::to_string(base + 12)),
            std::string::npos);

  const std::string dname = "test.instance.double_sum";
  const double dbase = registry.double_counter(dname).value();
  InstanceDoubleCounter x(dname);
  InstanceDoubleCounter y(dname);
  x.add(0.5);
  y.add(1.25);
  EXPECT_DOUBLE_EQ(x.value(), 0.5);
  EXPECT_DOUBLE_EQ(registry.double_counter(dname).value(), dbase + 1.75);
  EXPECT_DOUBLE_EQ(registry.snapshot().double_counters.at(dname),
                   dbase + 1.75);
}

TEST(InstanceCellTest, NameIsExportedOnceCountedOrWhenListed) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  InstanceCounter counted("test.instance.once_counted");
  InstanceCounter listed("test.instance.listed", Listed::kAlways);
  MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.counters.count("test.instance.once_counted"), 0u);
  EXPECT_EQ(snap.counters.at("test.instance.listed"), 0u);
  counted.add();
  snap = registry.snapshot();
  EXPECT_EQ(snap.counters.at("test.instance.once_counted"), 1u);
}

TEST(InstanceCellTest, DestroyedCellFoldsIntoTheProcessTotal) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  const std::string name = "test.instance.fold";
  Counter process = registry.counter(name);
  const std::uint64_t base = process.value();
  InstanceCounter survivor(name);
  survivor.add(2);
  {
    InstanceCounter retiring(name);
    retiring.add(7);
    EXPECT_EQ(process.value(), base + 9);
  }
  EXPECT_EQ(process.value(), base + 9);
  EXPECT_EQ(registry.snapshot().counters.at(name), base + 9);
  EXPECT_EQ(survivor.value(), 2u);
  survivor.add(1);
  EXPECT_EQ(process.value(), base + 10);
}

TEST(InstanceCellTest, MovedFromCellIsInertAndResetZeroesLiveCells) {
  MetricsRegistry& registry = MetricsRegistry::instance();
  const std::string name = "test.instance.move";
  Counter process = registry.counter(name);
  const std::uint64_t base = process.value();
  InstanceCounter source(name);
  source.add(4);
  InstanceCounter target(std::move(source));
  source.add(100);  // NOLINT(bugprone-use-after-move): inert by contract
  EXPECT_EQ(source.value(), 0u);
  EXPECT_EQ(target.value(), 4u);
  EXPECT_EQ(process.value(), base + 4);  // counted once, not twice

  InstanceCounter assigned(name);
  assigned.add(6);
  assigned = std::move(target);  // the overwritten cell folds its 6
  EXPECT_EQ(assigned.value(), 4u);
  EXPECT_EQ(process.value(), base + 10);

  process.add(1);
  registry.reset();
  EXPECT_EQ(assigned.value(), 0u);
  EXPECT_EQ(process.value(), 0u);
  assigned.add(3);
  EXPECT_EQ(process.value(), 3u);
}

TEST(ScopedSpanTest, RecordsNestingDepthAndContainment) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  {
    const ScopedSpan outer("outer", [] { return std::string("ctx"); });
    EXPECT_TRUE(outer.active());
    {
      const ScopedSpan mid("mid");
      const ScopedSpan inner("inner");
      (void)inner;
      (void)mid;
    }
  }
  recorder.set_enabled(false);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 3u);
  // Spans are recorded when they close, innermost first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2u);
  EXPECT_EQ(events[1].name, "mid");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0u);
  EXPECT_EQ(events[2].detail, "ctx");
  EXPECT_EQ(events[0].tid, events[2].tid);
  // Temporal containment: the outer span brackets the inner ones.
  EXPECT_LE(events[2].ts_us, events[0].ts_us);
  EXPECT_GE(events[2].ts_us + events[2].dur_us,
            events[0].ts_us + events[0].dur_us);
  recorder.clear();
}

TEST(ScopedSpanTest, ThreadsGetDistinctOrdinals) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  std::thread a([] { const ScopedSpan span("thread_a"); });
  std::thread b([] { const ScopedSpan span("thread_b"); });
  a.join();
  b.join();
  recorder.set_enabled(false);
  const auto events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_EQ(events[1].depth, 0u);
  recorder.clear();
}

TEST(ScopedSpanTest, ToJsonEscapesAndShapesChromeEvents) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  {
    const ScopedSpan span("quoted", [] {
      return std::string("say \"hi\"\nback\\slash");
    });
  }
  recorder.set_enabled(false);
  const std::string json = recorder.to_json();
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"quoted\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"ucudnn\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("say \\\"hi\\\"\\nback\\\\slash"), std::string::npos);
  recorder.clear();
}

TEST(ScopedSpanTest, DisabledSpansAllocateNothing) {
  // Force every singleton (and its internal state) into existence first so
  // the measured window sees only the spans themselves.
  TraceRecorder& recorder = TraceRecorder::instance();
  MetricsRegistry::instance();
  recorder.set_enabled(false);

  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    const ScopedSpan plain("disabled");
    const ScopedSpan with_detail("disabled", [] {
      return std::string("this detail lambda must never run");
    });
    if (plain.active() || with_detail.active()) {
      FAIL() << "span active while recorder disabled";
    }
  }
  const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before) << "disabled spans must not allocate";
}

TEST(ScopedSpanTest, DisabledSpansRecordNoEvents) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.set_enabled(false);
  recorder.clear();
  {
    const ScopedSpan span("invisible");
  }
  EXPECT_TRUE(recorder.events().empty());
}

}  // namespace
}  // namespace ucudnn::telemetry
