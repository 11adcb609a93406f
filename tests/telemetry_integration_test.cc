// End-to-end telemetry tests: run a small caffepp net with tracing on,
// validate that the exported Chrome trace is well-formed JSON carrying the
// expected span catalog, that the process-wide metrics registry agrees with
// every per-handle accessor, that it sums live and destroyed instances, and
// that micro-benchmarks run (and trace) on the calling thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/ucudnn.h"
#include "frameworks/caffepp/net.h"
#include "serve/server.h"
#include "json_validator.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

using ucudnn::test::JsonValidator;

namespace ucudnn {
namespace {

std::shared_ptr<device::Device> cpu() {
  return std::make_shared<device::Device>(device::host_cpu_spec());
}

core::Options wr(std::size_t limit) {
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = limit;
  return opts;
}

void run_small_net(core::UcudnnHandle& handle) {
  caffepp::Net net(handle, "telemetry-itest", caffepp::NetOptions{1 << 20, true});
  net.input("data", {6, 3, 14, 14});
  std::string top = net.conv("c1", "data", 8, 3, 1, 1);
  top = net.relu("r1", top);
  top = net.conv("c2", top, 8, 3, 1, 1);
  top = net.pool_max("p1", top, 2, 2);
  top = net.fc("f1", top, 10);
  top = net.softmax_loss("loss", top);
  net.init(99);
  net.forward();
  net.backward();
}

std::uint64_t counter_or_zero(const telemetry::MetricsSnapshot& snap,
                              const std::string& name) {
  const auto it = snap.counters.find(name);
  return it == snap.counters.end() ? 0 : it->second;
}

double double_counter_or_zero(const telemetry::MetricsSnapshot& snap,
                              const std::string& name) {
  const auto it = snap.double_counters.find(name);
  return it == snap.double_counters.end() ? 0.0 : it->second;
}

TEST(TelemetryIntegrationTest, TraceIsValidJsonWithExpectedSpans) {
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  {
    core::UcudnnHandle handle(cpu(), wr(1 << 20));
    run_small_net(handle);
  }
  recorder.set_enabled(false);

  // Every stage of the WR pipeline plus both framework levels must appear.
  std::set<std::string> names;
  for (const auto& event : recorder.events()) names.insert(event.name);
  for (const char* expected :
       {"benchmark", "wr_dp", "plan_build", "segment_exec", "find_algorithms",
        "mcudnn_conv", "net.forward", "net.backward", "layer.forward",
        "layer.backward"}) {
    EXPECT_TRUE(names.count(expected)) << "missing span: " << expected;
  }

  const std::string json = recorder.to_json();
  EXPECT_TRUE(JsonValidator(json).validate()) << "trace JSON is malformed";
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"benchmark\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"plan_build\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"segment_exec\""), std::string::npos);
  recorder.clear();
}

TEST(TelemetryIntegrationTest, WriteChromeTraceRoundTripsThroughAFile) {
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  {
    core::UcudnnHandle handle(cpu(), wr(1 << 20));
    run_small_net(handle);
  }
  recorder.set_enabled(false);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_trace_test.json")
          .string();
  recorder.write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(static_cast<bool>(in));
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string json = buffer.str();
  EXPECT_TRUE(JsonValidator(json).validate()) << "trace file is malformed";
  EXPECT_NE(json.find("\"cat\":\"ucudnn\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
  recorder.clear();
}

TEST(TelemetryIntegrationTest, RegistryMirrorsLegacyAccessors) {
  // One source of truth: after a clean baseline, every pre-existing
  // per-handle counter must be readable from the process-wide registry with
  // the same value the legacy accessor reports.
  telemetry::MetricsRegistry::instance().reset();
  core::UcudnnHandle handle(cpu(), wr(1 << 20));
  run_small_net(handle);

  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::instance().snapshot();

  EXPECT_DOUBLE_EQ(double_counter_or_zero(snap, "ucudnn.benchmark.total_ms"),
                   handle.total_benchmark_ms());
  EXPECT_DOUBLE_EQ(double_counter_or_zero(snap, "ucudnn.planner.optimize_ms"),
                   handle.total_optimize_ms());
  EXPECT_DOUBLE_EQ(
      double_counter_or_zero(snap, "ucudnn.planner.replan_benchmark_ms"),
      handle.total_replan_benchmark_ms());

  EXPECT_EQ(counter_or_zero(snap, "ucudnn.plan_cache.hits"),
            handle.plan_cache_hits());
  EXPECT_EQ(counter_or_zero(snap, "ucudnn.plan_cache.misses"),
            handle.plan_cache_misses());

  const core::DegradationStats& stats = handle.degradation_stats();
  EXPECT_EQ(counter_or_zero(snap, "ucudnn.degradation.retries"),
            stats.retries.value());
  EXPECT_EQ(counter_or_zero(snap, "ucudnn.degradation.degraded_allocations"),
            stats.degraded_allocations.value());
  EXPECT_EQ(counter_or_zero(snap, "ucudnn.degradation.blacklisted_algorithms"),
            stats.blacklisted_algorithms.value());
  EXPECT_EQ(counter_or_zero(snap, "ucudnn.degradation.solver_fallbacks"),
            stats.solver_fallbacks.value());
  EXPECT_EQ(counter_or_zero(snap, "ucudnn.degradation.cache_quarantines"),
            stats.cache_quarantines.value());
  EXPECT_EQ(
      counter_or_zero(snap, "ucudnn.degradation.wd_unrecorded_fallbacks"),
      stats.wd_unrecorded_fallbacks.value());

  // The run exercised benchmarking and execution, so the headline metrics
  // must be non-trivial, not merely equal-and-zero.
  EXPECT_GT(counter_or_zero(snap, "ucudnn.benchmark.runs"), 0u);
  EXPECT_GT(counter_or_zero(snap, "ucudnn.executor.segments"), 0u);
  EXPECT_GT(handle.total_benchmark_ms(), 0.0);
}

TEST(TelemetryIntegrationTest, BenchmarkingRunsOnTheCallingThread) {
  // Micro-benchmarks run in the thread that asks for them. A thread per
  // call would leave one flight-recorder ring behind per call, and its
  // find_algorithms spans would sit at depth 0 on a new tid, outside the
  // caller's trace id.
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::FlightRecorder& flight = telemetry::FlightRecorder::instance();
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::instance();
  const auto writer_count = [&flight] {
    std::set<std::uint32_t> tids;
    for (const telemetry::FlightEvent& event : flight.snapshot()) {
      tids.insert(event.tid);
    }
    return tids.size();
  };
  const kernels::ConvProblem problem({4, 4, 8, 8}, {4, 4, 3, 3},
                                     {.pad_h = 1, .pad_w = 1});
  flight.set_armed(true);
  recorder.set_enabled(true);
  recorder.clear();
  const std::size_t writers_before = writer_count();
  const std::uint64_t trace_id = telemetry::next_trace_id();
  {
    const telemetry::TraceContext context(trace_id);
    for (int i = 0; i < 20; ++i) {
      core::UcudnnHandle handle(cpu(), wr(1 << 20));
      handle.benchmark(ConvKernelType::kForward, problem,
                       core::BatchSizePolicy::kPowerOfTwo);
    }
  }
  const std::size_t writers_after = writer_count();
  recorder.set_enabled(false);
  flight.set_armed(false);
  flight.clear();

  EXPECT_LE(writers_after, writers_before + 1);
  const std::vector<telemetry::SpanEvent> events = recorder.events();
  std::size_t finds = 0;
  for (const telemetry::SpanEvent& find : events) {
    if (find.name != "find_algorithms") continue;
    ++finds;
    EXPECT_EQ(find.trace_id, trace_id);
    const bool nested = std::any_of(
        events.begin(), events.end(), [&](const telemetry::SpanEvent& outer) {
          return (outer.name == "benchmark" ||
                  outer.name == "benchmark_measure") &&
                 outer.tid == find.tid && outer.depth + 1 == find.depth &&
                 outer.ts_us <= find.ts_us &&
                 find.ts_us + find.dur_us <= outer.ts_us + outer.dur_us + 1e-3;
        });
    EXPECT_TRUE(nested) << "find_algorithms at tid " << find.tid << " depth "
                        << find.depth << " has no enclosing benchmark span";
  }
  EXPECT_GE(finds, 20u);
  recorder.clear();
}

// Two live instances of one counting object, read the way perfbench reads
// the registry: the process-wide value's delta is the sum of the per-instance
// accessors, while both are alive and after one is destroyed.
std::uint64_t registry_count(const char* name) {
  return telemetry::MetricsRegistry::instance().counter(name).value();
}

TEST(TelemetryIntegrationTest, ProcessCountersSumLiveAndRetiredServers) {
  core::UcudnnHandle handle(cpu(), wr(1 << 20));
  serve::ServeOptions opts;
  opts.workers = 0;  // admission only: nothing executes underneath
  opts.queue_capacity = 8;
  opts.window_watermark = 1.0;
  opts.shed_watermark = 1.0;
  const kernels::ConvProblem p({1, 2, 6, 6}, {4, 2, 3, 3},
                               {.pad_h = 1, .pad_w = 1});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  std::vector<float> w(static_cast<std::size_t>(p.w.count()));
  std::vector<float> y(static_cast<std::size_t>(p.y.count()));
  serve::ServeRequest request;
  request.problem = p;
  request.input = x.data();
  request.weights = w.data();
  request.output = y.data();

  const std::uint64_t base = registry_count("ucudnn.serve.admitted");
  auto a = std::make_unique<serve::Server>(handle, opts);
  auto b = std::make_unique<serve::Server>(handle, opts);
  for (int i = 0; i < 2; ++i) a->submit(request);
  for (int i = 0; i < 3; ++i) b->submit(request);
  EXPECT_EQ(a->counters().admitted, 2u);
  EXPECT_EQ(b->counters().admitted, 3u);
  EXPECT_EQ(registry_count("ucudnn.serve.admitted") - base,
            a->counters().admitted + b->counters().admitted);

  const std::uint64_t b_admitted = b->counters().admitted;
  b.reset();
  EXPECT_EQ(registry_count("ucudnn.serve.admitted") - base,
            a->counters().admitted + b_admitted);
}

TEST(TelemetryIntegrationTest, ProcessCountersSumLiveAndRetiredHandles) {
  const kernels::ConvProblem p({2, 2, 6, 6}, {4, 2, 3, 3},
                               {.pad_h = 1, .pad_w = 1});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()), 1.0f);
  std::vector<float> w(static_cast<std::size_t>(p.w.count()), 1.0f);
  std::vector<float> y(static_cast<std::size_t>(p.y.count()));
  const auto run = [&](core::UcudnnHandle& handle) {
    handle.convolution(ConvKernelType::kForward, p, 1.0f, x.data(), w.data(),
                       0.0f, y.data());
  };

  const std::uint64_t base = registry_count("ucudnn.plan_cache.misses");
  auto a = std::make_unique<core::UcudnnHandle>(cpu(), wr(1 << 20));
  auto b = std::make_unique<core::UcudnnHandle>(cpu(), wr(1 << 20));
  run(*a);
  run(*b);
  run(*b);
  EXPECT_GT(a->plan_cache_misses(), 0u);
  EXPECT_GT(b->plan_cache_misses(), 0u);
  EXPECT_EQ(registry_count("ucudnn.plan_cache.misses") - base,
            a->plan_cache_misses() + b->plan_cache_misses());

  const std::uint64_t b_misses = b->plan_cache_misses();
  b.reset();
  EXPECT_EQ(registry_count("ucudnn.plan_cache.misses") - base,
            a->plan_cache_misses() + b_misses);
}

}  // namespace
}  // namespace ucudnn
