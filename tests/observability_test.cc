// Unit tests for the observability additions of docs/observability.md:
// the flight recorder's seqlock rings (wrap, drop accounting, snapshot
// consistency, JSON dump shape), request-scoped trace ids (ambient
// TraceContext propagation, span cap + dropped counter, the
// ucudnn-request-trace-v1 export), and the anomaly watchdog (threshold
// evaluation, rising-edge dedup, failure capture, flight integration,
// adversarial construct/destroy ordering).
//
// Everything here uses test-local FlightRecorder instances and poll_now()-
// driven watchdogs, so the tests are deterministic and never arm the
// process-wide singleton. The end-to-end singleton paths (exit dump,
// dump-on-fault) live in request_trace_test.cc and the obs_exit_dump ctest
// fixture.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_validator.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "telemetry/watchdog.h"

namespace ucudnn::telemetry {
namespace {

std::string temp_path(const char* stem) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/" + stem + "_" +
         std::to_string(static_cast<unsigned long long>(::getpid()));
}

std::string slurp(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

// --- flight recorder ring ---------------------------------------------------

TEST(FlightRecorderTest, RecordsEventsWithFieldsIntact) {
  FlightRecorder recorder(/*events_per_thread=*/64, /*dump_path=*/"");
  ASSERT_TRUE(recorder.is_armed());  // test ctor arms immediately
  recorder.record(FlightEventKind::kMark, "alpha", /*trace_id=*/7, 1, 2);
  recorder.record(FlightEventKind::kOverload, "rung", 0, 3, 1);

  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_STREQ(events[0].name, "alpha");
  EXPECT_EQ(events[0].kind, FlightEventKind::kMark);
  EXPECT_EQ(events[0].trace_id, 7u);
  EXPECT_EQ(events[0].arg0, 1);
  EXPECT_EQ(events[0].arg1, 2);
  EXPECT_STREQ(events[1].name, "rung");
  EXPECT_EQ(events[1].kind, FlightEventKind::kOverload);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);  // snapshot is time-sorted
  EXPECT_EQ(recorder.recorded(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
}

TEST(FlightRecorderTest, DisarmedRecorderRecordsNothing) {
  FlightRecorder recorder(64, "");
  recorder.set_armed(false);
  recorder.record(FlightEventKind::kMark, "ignored");
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

TEST(FlightRecorderTest, RingWrapDropsOldestKeepsNewest) {
  // Capacity below the 16-slot floor is clamped up: ask for 16 exactly.
  FlightRecorder recorder(16, "");
  ASSERT_EQ(recorder.capacity_per_thread(), 16u);
  for (int i = 0; i < 40; ++i) {
    recorder.record(FlightEventKind::kMark, "wrap", 0, i, 0);
  }
  EXPECT_EQ(recorder.recorded(), 40u);
  EXPECT_EQ(recorder.dropped(), 24u);  // 40 written - 16 retained

  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(), 16u);
  // Drop-oldest: the survivors are exactly writes 24..39, in order.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].arg0, 24 + i) << "slot " << i;
  }
}

TEST(FlightRecorderTest, PerThreadRingsMergeIntoOneTimeline) {
  FlightRecorder recorder(32, "");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        recorder.record(FlightEventKind::kMark, "mt", 0, t, i);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const std::vector<FlightEvent> events = recorder.snapshot();
  ASSERT_EQ(events.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kThreads * kPerThread));
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST(FlightRecorderTest, ToJsonIsValidAndCarriesSchema) {
  FlightRecorder recorder(16, "");
  recorder.record(FlightEventKind::kStatus, "kSuccess", 42, 0, 0);
  recorder.record(FlightEventKind::kMark, "quote\"me", 0, 0, 0);
  const std::string json = recorder.to_json();
  EXPECT_TRUE(ucudnn::test::JsonValidator(json).validate()) << json;
  EXPECT_NE(json.find("\"schema\":\"ucudnn-flight-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"status\""), std::string::npos);   // kind name
  EXPECT_NE(json.find("\"trace\":42"), std::string::npos);
}

TEST(FlightRecorderTest, DumpWritesFileAndAutoDumpRateLimits) {
  const std::string path = temp_path("flight_dump");
  FlightRecorder recorder(16, path);
  recorder.record(FlightEventKind::kMark, "dumped", 0, 0, 0);

  EXPECT_TRUE(recorder.auto_dump("test"));
  EXPECT_EQ(recorder.dump_count(), 1u);
  // Immediately again: inside the rate-limit window, refused.
  EXPECT_FALSE(recorder.auto_dump("test"));
  EXPECT_EQ(recorder.dump_count(), 1u);

  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  EXPECT_TRUE(ucudnn::test::JsonValidator(text).validate()) << text;
  // The dump records its own reason as a flight.dump mark first.
  EXPECT_NE(text.find("flight.dump"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FlightRecorderTest, AutoDumpWithoutPathIsANoOp) {
  FlightRecorder recorder(16, "");
  recorder.record(FlightEventKind::kMark, "kept", 0, 0, 0);
  EXPECT_FALSE(recorder.auto_dump("nowhere"));
  EXPECT_EQ(recorder.dump_count(), 0u);
}

TEST(FlightRecorderTest, ClearResetsCountersAndContents) {
  FlightRecorder recorder(16, "");
  for (int i = 0; i < 20; ++i) {
    recorder.record(FlightEventKind::kMark, "x", 0, i, 0);
  }
  ASSERT_GT(recorder.dropped(), 0u);
  recorder.clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  EXPECT_TRUE(recorder.snapshot().empty());
}

// --- request-scoped trace ids ----------------------------------------------

TEST(TraceContextTest, AmbientIdNestsAndRestores) {
  EXPECT_EQ(current_trace_id(), 0u);
  const std::uint64_t outer = next_trace_id();
  const std::uint64_t inner = next_trace_id();
  ASSERT_NE(outer, 0u);
  ASSERT_NE(inner, outer);
  {
    TraceContext outer_scope(outer);
    EXPECT_EQ(current_trace_id(), outer);
    {
      TraceContext inner_scope(inner);
      EXPECT_EQ(current_trace_id(), inner);
    }
    EXPECT_EQ(current_trace_id(), outer);
  }
  EXPECT_EQ(current_trace_id(), 0u);
}

TEST(TraceContextTest, AmbientIdIsPerThread) {
  const std::uint64_t id = next_trace_id();
  TraceContext scope(id);
  std::uint64_t seen_on_other_thread = 1;  // sentinel != 0
  std::thread([&seen_on_other_thread] {
    seen_on_other_thread = current_trace_id();
  }).join();
  EXPECT_EQ(seen_on_other_thread, 0u);  // context does not leak across threads
  EXPECT_EQ(current_trace_id(), id);
}

TEST(TraceContextTest, SpansInheritTheAmbientId) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  const std::uint64_t id = next_trace_id();
  {
    TraceContext scope(id);
    ScopedSpan span("obs_test_scoped");
  }
  { ScopedSpan span("obs_test_unscoped"); }
  recorder.set_enabled(false);

  const std::vector<SpanEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "obs_test_scoped");
  EXPECT_EQ(events[0].trace_id, id);
  EXPECT_EQ(events[1].trace_id, 0u);
  recorder.clear();
}

TEST(TraceCapTest, DropOldestCountsEvictionsAndMetric) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();
  const std::size_t old_cap = recorder.max_spans();
  const std::uint64_t dropped_before = recorder.dropped_spans();
  const std::uint64_t metric_before = MetricsRegistry::instance()
                                          .counter("ucudnn.trace.dropped")
                                          .value();

  recorder.set_max_spans(4);
  for (int i = 0; i < 10; ++i) {
    SpanEvent event;
    event.name = "cap_span_" + std::to_string(i);
    recorder.record(std::move(event));
  }
  const std::vector<SpanEvent> events = recorder.events();
  ASSERT_EQ(events.size(), 4u);
  // Drop-oldest: the survivors are the last four records.
  EXPECT_EQ(events.front().name, "cap_span_6");
  EXPECT_EQ(events.back().name, "cap_span_9");
  EXPECT_EQ(recorder.dropped_spans() - dropped_before, 6u);
  EXPECT_EQ(MetricsRegistry::instance().counter("ucudnn.trace.dropped").value()
                - metric_before,
            6u);

  recorder.set_enabled(false);
  recorder.set_max_spans(old_cap);
  recorder.clear();
}

TEST(RequestTraceJsonTest, GroupsSpansByTraceId) {
  TraceRecorder& recorder = TraceRecorder::instance();
  recorder.set_enabled(true);
  recorder.clear();

  const std::uint64_t req_a = next_trace_id();
  const std::uint64_t req_b = next_trace_id();
  auto record = [&recorder](const char* name, std::uint64_t id, double ts,
                            double dur) {
    SpanEvent event;
    event.name = name;
    event.trace_id = id;
    event.ts_us = ts;
    event.dur_us = dur;
    recorder.record(std::move(event));
  };
  // Out of order on purpose: the export sorts within each request.
  record("exec", req_a, 30.0, 5.0);
  record("admit", req_a, 10.0, 1.0);
  record("admit", req_b, 12.0, 1.0);
  record("unscoped", 0, 1.0, 1.0);  // never exported: no trace id

  const std::string json = recorder.request_trace_json();
  recorder.set_enabled(false);
  recorder.clear();

  EXPECT_TRUE(ucudnn::test::JsonValidator(json).validate()) << json;
  EXPECT_NE(json.find("\"schema\":\"ucudnn-request-trace-v1\""),
            std::string::npos);
  EXPECT_EQ(json.find("unscoped"), std::string::npos);
  const std::size_t pos_a = json.find("\"trace_id\":" + std::to_string(req_a));
  const std::size_t pos_b = json.find("\"trace_id\":" + std::to_string(req_b));
  ASSERT_NE(pos_a, std::string::npos);
  ASSERT_NE(pos_b, std::string::npos);
  // Within request A the admit span (ts 10) precedes exec (ts 30) even
  // though it was recorded second.
  const std::size_t admit_pos = json.find("admit", pos_a);
  const std::size_t exec_pos = json.find("exec", pos_a);
  ASSERT_NE(admit_pos, std::string::npos);
  ASSERT_NE(exec_pos, std::string::npos);
  EXPECT_LT(admit_pos, exec_pos);
}

TEST(RequestTraceJsonTest, SpanOpenEmitsFlightEventWhenOnlyFlightArmed) {
  // ScopedSpan with the trace recorder OFF but a flight recorder armed:
  // the singleton mirror is what ScopedSpan polls, so arm it briefly.
  FlightRecorder& flight = FlightRecorder::instance();
  TraceRecorder& recorder = TraceRecorder::instance();
  ASSERT_FALSE(recorder.enabled());
  const std::uint64_t before = flight.recorded();
  flight.set_armed(true);
  const std::uint64_t id = next_trace_id();
  {
    TraceContext scope(id);
    ScopedSpan span("obs_flight_only");
  }
  flight.set_armed(false);

  EXPECT_GE(flight.recorded() - before, 2u);  // open + close
  bool saw_open = false, saw_close = false;
  for (const FlightEvent& event : flight.snapshot()) {
    if (event.trace_id != id) continue;
    if (event.kind == FlightEventKind::kSpanOpen) saw_open = true;
    if (event.kind == FlightEventKind::kSpanClose) saw_close = true;
  }
  EXPECT_TRUE(saw_open);
  EXPECT_TRUE(saw_close);
  // And nothing reached the (disabled) trace recorder.
  EXPECT_TRUE(recorder.events().empty());
}

// --- anomaly watchdog -------------------------------------------------------

WatchdogOptions quiet_options() {
  WatchdogOptions opts;
  opts.period_ms = 0;  // poll_now()-driven
  opts.dump_on_incident = false;
  return opts;
}

TEST(WatchdogTest, OverloadIncidentFiresOnRisingEdgeOnly) {
  WatchdogSample sample;
  Watchdog watchdog(quiet_options(), [&sample] { return sample; });

  EXPECT_EQ(watchdog.poll_now(), 0u);  // all vitals nominal
  sample.overload_level = 3;           // at the default threshold
  EXPECT_EQ(watchdog.poll_now(), 1u);  // rising edge
  EXPECT_EQ(watchdog.poll_now(), 0u);  // still firing: deduped
  sample.overload_level = 0;
  EXPECT_EQ(watchdog.poll_now(), 0u);  // cleared
  sample.overload_level = 4;
  EXPECT_EQ(watchdog.poll_now(), 1u);  // re-fires after clearing

  const std::vector<WatchdogIncident> incidents = watchdog.incidents();
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[0].kind, "overload");
  EXPECT_EQ(incidents[0].value, 3.0);
  EXPECT_EQ(incidents[1].value, 4.0);
  EXPECT_EQ(watchdog.sample_count(), 5u);
}

TEST(WatchdogTest, QueueSaturationNeedsKnownCapacity) {
  WatchdogSample sample;
  Watchdog watchdog(quiet_options(), [&sample] { return sample; });

  sample.queue_depth = 100;
  sample.queue_capacity = 0;           // unknown: check skipped
  EXPECT_EQ(watchdog.poll_now(), 0u);
  sample.queue_capacity = 100;         // depth >= capacity
  EXPECT_EQ(watchdog.poll_now(), 1u);
  ASSERT_EQ(watchdog.incidents().size(), 1u);
  EXPECT_EQ(watchdog.incidents()[0].kind, "queue_saturated");
}

TEST(WatchdogTest, WorkerStuckUsesEstimateScaledThreshold) {
  WatchdogOptions opts = quiet_options();
  opts.stuck_factor = 4.0;
  opts.min_stuck_ms = 10.0;
  WatchdogSample sample;
  sample.service_estimate_ms = 5.0;  // threshold = max(4*5, 10) = 20ms
  Watchdog watchdog(opts, [&sample] { return sample; });

  sample.worker_busy_ms = {1.0, 19.0};
  EXPECT_EQ(watchdog.poll_now(), 0u);
  sample.worker_busy_ms = {1.0, 21.0};
  EXPECT_EQ(watchdog.poll_now(), 1u);
  const std::vector<WatchdogIncident> incidents = watchdog.incidents();
  ASSERT_EQ(incidents.size(), 1u);
  EXPECT_EQ(incidents[0].kind, "worker_stuck");
  EXPECT_EQ(incidents[0].value, 21.0);
  EXPECT_EQ(incidents[0].threshold, 20.0);
}

TEST(WatchdogTest, DriftIncidentAndThrowingSamplerAreCaptured) {
  WatchdogSample sample;
  bool explode = false;
  Watchdog watchdog(quiet_options(), [&sample, &explode] {
    if (explode) throw std::runtime_error("probe lost");
    return sample;
  });

  sample.est_drift = 6.0;  // above the default 5.0 threshold
  EXPECT_EQ(watchdog.poll_now(), 1u);
  EXPECT_EQ(watchdog.incidents()[0].kind, "est_drift");

  explode = true;
  EXPECT_EQ(watchdog.poll_now(), 1u);
  const std::vector<WatchdogIncident> incidents = watchdog.incidents();
  ASSERT_EQ(incidents.size(), 2u);
  EXPECT_EQ(incidents[1].kind, "sample_failed");
  // A failed sample does not count as a successful one.
  EXPECT_EQ(watchdog.sample_count(), 1u);
}

TEST(WatchdogTest, IncidentRecordsFlightEventAndDumps) {
  const std::string path = temp_path("watchdog_dump");
  FlightRecorder recorder(32, path);
  WatchdogOptions opts = quiet_options();
  opts.dump_on_incident = true;
  WatchdogSample sample;
  Watchdog watchdog(opts, [&sample] { return sample; }, &recorder);

  sample.overload_level = 5;
  EXPECT_EQ(watchdog.poll_now(), 1u);

  bool saw_watchdog_event = false;
  for (const FlightEvent& event : recorder.snapshot()) {
    if (event.kind == FlightEventKind::kWatchdog) {
      saw_watchdog_event = true;
      EXPECT_STREQ(event.name, "overload");
      EXPECT_EQ(event.arg0, 5);
    }
  }
  EXPECT_TRUE(saw_watchdog_event);
  EXPECT_EQ(recorder.dump_count(), 1u);
  const std::string text = slurp(path);
  EXPECT_TRUE(ucudnn::test::JsonValidator(text).validate());
  std::remove(path.c_str());
}

TEST(WatchdogTest, BackgroundThreadSamplesUntilStopped) {
  WatchdogOptions opts = quiet_options();
  opts.period_ms = 2;
  std::atomic<int> calls{0};
  Watchdog watchdog(opts, [&calls] {
    calls.fetch_add(1);
    return WatchdogSample{};
  });
  ASSERT_TRUE(watchdog.running());
  for (int i = 0; i < 500 && calls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_GT(calls.load(), 0);
  watchdog.stop();
  EXPECT_FALSE(watchdog.running());
  const int after_stop = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(calls.load(), after_stop);  // really stopped
  watchdog.stop();                      // idempotent
}

TEST(WatchdogTest, AdversarialConstructDestroyOrderIsSafe) {
  // Owner tears down in the "wrong" order: the recorder the watchdog was
  // given dies first. stop() severs the pointer, making this safe — the
  // discipline Server::drain() follows.
  auto recorder = std::make_unique<FlightRecorder>(32, std::string());
  WatchdogOptions opts = quiet_options();
  opts.period_ms = 1;
  opts.dump_on_incident = true;
  WatchdogSample sample;
  sample.overload_level = 9;  // every poll wants to touch the recorder
  auto watchdog = std::make_unique<Watchdog>(
      opts, [&sample] { return sample; }, recorder.get());
  for (int i = 0; i < 100 && watchdog->sample_count() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  watchdog->stop();
  recorder.reset();           // recorder gone first
  EXPECT_EQ(watchdog->poll_now(), 0u);  // still-firing level: deduped, no touch
  watchdog.reset();

  // And the reverse order with no explicit stop(): the watchdog destructor
  // stops the thread while the recorder is still alive.
  auto recorder2 = std::make_unique<FlightRecorder>(32, std::string());
  auto watchdog2 = std::make_unique<Watchdog>(
      opts, [&sample] { return sample; }, recorder2.get());
  watchdog2.reset();
  EXPECT_GE(recorder2->recorded(), 0u);
  recorder2.reset();
}

// --- env-driven exit-dump fixture -------------------------------------------

// Run by the obs_exit_dump_run ctest with UCUDNN_FLIGHT_FILE set: arms the
// singleton through the environment, records events, and relies on the
// process-exit dump; obs_exit_dump_check then validates the file. Skips
// itself in a normal gtest sweep (no env, nothing to assert).
TEST(ExitDumpScenario, RecordsThroughTheSingleton) {
  const char* path = std::getenv("UCUDNN_FLIGHT_FILE");
  if (path == nullptr || path[0] == '\0') {
    GTEST_SKIP() << "UCUDNN_FLIGHT_FILE not set; exercised by the "
                    "obs_exit_dump ctest fixture";
  }
  FlightRecorder& flight = FlightRecorder::instance();
  ASSERT_TRUE(flight.is_armed());  // armed by UCUDNN_FLIGHT_FILE
  ASSERT_TRUE(FlightRecorder::armed());
  EXPECT_EQ(flight.dump_path(), std::string(path));
  const std::uint64_t id = next_trace_id();
  {
    TraceContext scope(id);
    ScopedSpan span("exit_dump_span");
    FlightRecorder::note(FlightEventKind::kMark, "exit_dump_mark", id, 1, 2);
  }
  EXPECT_GE(flight.recorded(), 3u);  // mark + span open/close
  // No dump here: the destructor's exit dump is the thing under test.
}

}  // namespace
}  // namespace ucudnn::telemetry
