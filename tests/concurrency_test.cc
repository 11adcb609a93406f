// Concurrency-correctness tests for the shared planner-side state (ROADMAP
// item 1: a serving layer shares one BenchmarkCache and one PlanCache across
// worker threads) and for the runtime lock-order detector of
// common/thread_annotations.h.
//
// The stress tests are most valuable under the `tsan` preset, where TSan
// checks every interleaving they generate; on the default preset they still
// verify the locked invariants. The lock-order tests skip themselves when
// the detector is compiled out (release builds without sanitizers).

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_annotations.h"
#include "core/benchmark_cache.h"
#include "core/planner.h"
#include "kernels/conv_problem.h"
#include "mcudnn/mcudnn.h"
#include "serve/server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace ucudnn {
namespace {

using core::BenchmarkCache;
using core::PlanCache;
using kernels::ConvProblem;

ConvProblem problem_for(int variant) {
  return ConvProblem({8, 8 + variant, 12, 12}, {8, 8 + variant, 3, 3},
                     {.pad_h = 1, .pad_w = 1});
}

std::vector<mcudnn::AlgoPerf> sample_perfs() {
  return {
      {0, Status::kSuccess, 1.0, 1024},
      {1, Status::kSuccess, 2.0, 0},
      {2, Status::kSuccess, 3.0, 4096},
  };
}

TEST(BenchmarkCacheConcurrencyTest, ParallelLookupStoreBlacklist) {
  BenchmarkCache cache;
  constexpr int kThreads = 8;
  constexpr int kIters = 400;
  constexpr int kVariants = 4;
  std::atomic<int> mismatches{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &mismatches, t] {
      const std::string device = "dev" + std::to_string(t % 2);
      for (int i = 0; i < kIters; ++i) {
        const ConvProblem problem = problem_for(i % kVariants);
        cache.store(device, ConvKernelType::kForward, problem, sample_perfs());
        // is_blacklisted is sampled BEFORE the find: the blacklist only
        // grows, so an algorithm observed blacklisted must stay so. The
        // blacklist never edits an entry: algorithm 2 stays listed as a
        // success either way.
        const bool blacklisted_before =
            cache.is_blacklisted(device, ConvKernelType::kForward, 2);
        const auto hit = cache.find(device, ConvKernelType::kForward, problem);
        if (!hit.has_value() ||
            std::none_of(hit->begin(), hit->end(),
                         [](const mcudnn::AlgoPerf& perf) {
                           return perf.algo == 2 &&
                                  perf.status == Status::kSuccess;
                         })) {
          mismatches.fetch_add(1);
        }
        if (blacklisted_before &&
            !cache.is_blacklisted(device, ConvKernelType::kForward, 2)) {
          mismatches.fetch_add(1);
        }
        if (i == kIters / 2 && t == 0) {
          cache.blacklist(device, ConvKernelType::kForward, 2);
        }
        (void)cache.size();
        (void)cache.blacklisted_count();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  // 2 devices x 1 kernel type x kVariants problems.
  EXPECT_EQ(cache.size(), 2u * kVariants);
  EXPECT_EQ(cache.blacklisted_count(), 1u);
  EXPECT_TRUE(cache.is_blacklisted("dev0", ConvKernelType::kForward, 2));
  const auto entry =
      cache.find("dev0", ConvKernelType::kForward, problem_for(0));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->front().algo, 0);
  EXPECT_TRUE(std::any_of(entry->begin(), entry->end(),
                          [](const mcudnn::AlgoPerf& perf) {
                            return perf.algo == 2;
                          }));
}

TEST(PlanCacheConcurrencyTest, ParallelLookupInsertEpochBump) {
  PlanCache cache;
  constexpr int kThreads = 8;
  constexpr int kIters = 500;
  std::atomic<int> null_plans{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &null_plans, t] {
      for (int i = 0; i < kIters; ++i) {
        // Stamp the plan with the epoch read before building it, exactly
        // as the Planner does, so a bump_epoch in between makes it a miss.
        const core::KernelId id = static_cast<core::KernelId>(i % 8);
        const std::size_t limit = std::size_t{1} << 20;
        const std::uint64_t epoch = cache.epoch();
        std::shared_ptr<const core::ExecutionPlan> plan =
            cache.lookup(id, false, limit);
        if (plan == nullptr) {
          plan = std::make_shared<const core::ExecutionPlan>();
          cache.insert(id, {false, limit, epoch}, plan);
        }
        // A fetched plan must stay usable even if another thread bumps the
        // epoch (shared_ptr keeps mid-flight plans alive).
        if (plan->batch() != 0) null_plans.fetch_add(1);
        if (t == 0 && i % 100 == 99) cache.bump_epoch();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(null_plans.load(), 0);
  // Exactly one lookup per iteration: every one is a hit or a miss.
  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(cache.epoch(), static_cast<std::uint64_t>(kIters / 100));
  // 8 base keys x at most (bumps + 1) epoch generations ever inserted.
  EXPECT_LE(cache.size(), 8u * (kIters / 100 + 1));
}

TEST(PlanCacheConcurrencyTest, PlanStampedBeforeAnEpochBumpMisses) {
  PlanCache cache;
  const core::KernelId id = 3;
  const std::size_t limit = std::size_t{8} << 20;
  // A plan built before a concurrent blacklist event lands after it: the
  // stale stamp must never be served.
  const std::uint64_t stale = cache.epoch();
  cache.bump_epoch();
  cache.insert(id, {false, limit, stale},
               std::make_shared<const core::ExecutionPlan>());
  EXPECT_EQ(cache.lookup(id, false, limit), nullptr);

  // The same plan under the current epoch hits, but only for the exact
  // policy and limit it was built under.
  cache.insert(id, {false, limit, cache.epoch()},
               std::make_shared<const core::ExecutionPlan>());
  EXPECT_NE(cache.lookup(id, false, limit), nullptr);
  EXPECT_EQ(cache.lookup(id, true, limit), nullptr);
  EXPECT_EQ(cache.lookup(id, false, limit / 2), nullptr);
  EXPECT_EQ(cache.lookup(id + 1, false, limit), nullptr);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 4u);
}

// ---------------------------------------------------------------------------
// Runtime lock-order detector.
// ---------------------------------------------------------------------------

std::atomic<int> g_violations{0};
std::string g_last_message;  // handler runs on the acquiring (test) thread

void capture_violation(const lockorder::Violation& violation) {
  g_violations.fetch_add(1);
  g_last_message = violation.message;
}

class LockOrderDetectorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!lockorder::kCompiledIn) {
      GTEST_SKIP() << "lock-order detector compiled out "
                      "(build with UCUDNN_LOCK_ORDER_DETECTOR)";
    }
    lockorder::reset();
    lockorder::set_violation_handler(&capture_violation);
    lockorder::set_enabled(true);
    g_violations.store(0);
    g_last_message.clear();
  }

  void TearDown() override {
    lockorder::set_enabled(false);
    lockorder::set_violation_handler(nullptr);
    lockorder::reset();
  }
};

TEST_F(LockOrderDetectorTest, DetectsSeededInversion) {
  Mutex a{"test.A"};
  Mutex b{"test.B"};
  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);  // records A -> B
  }
  EXPECT_EQ(g_violations.load(), 0);
  {
    MutexLock lock_b(b);
    MutexLock lock_a(a);  // B -> A: inversion of the recorded order
  }
  EXPECT_EQ(g_violations.load(), 1);
  EXPECT_NE(g_last_message.find("test.A"), std::string::npos) << g_last_message;
  EXPECT_NE(g_last_message.find("test.B"), std::string::npos) << g_last_message;
  EXPECT_NE(g_last_message.find("inversion"), std::string::npos)
      << g_last_message;
}

TEST_F(LockOrderDetectorTest, DetectsTransitiveInversion) {
  Mutex a{"test.A"};
  Mutex b{"test.B"};
  Mutex c{"test.C"};
  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);  // A -> B
  }
  {
    MutexLock lock_b(b);
    MutexLock lock_c(c);  // B -> C
  }
  EXPECT_EQ(g_violations.load(), 0);
  {
    MutexLock lock_c(c);
    MutexLock lock_a(a);  // C -> A closes the A -> B -> C cycle
  }
  EXPECT_EQ(g_violations.load(), 1);
}

TEST_F(LockOrderDetectorTest, SilentOnConsistentOrder) {
  Mutex outer{"test.Outer"};
  Mutex inner{"test.Inner"};
  for (int i = 0; i < 3; ++i) {
    MutexLock lock_outer(outer);
    MutexLock lock_inner(inner);
  }
  { MutexLock lock_inner(inner); }  // alone, not under outer: still consistent
  EXPECT_EQ(g_violations.load(), 0);

  bool saw_edge = false;
  for (const lockorder::Edge& edge : lockorder::edges()) {
    if (edge.from == "test.Outer" && edge.to == "test.Inner") {
      saw_edge = true;
      EXPECT_EQ(edge.count, 3u);
    }
  }
  EXPECT_TRUE(saw_edge);
}

TEST_F(LockOrderDetectorTest, CrossThreadInversionDetected) {
  Mutex a{"test.X"};
  Mutex b{"test.Y"};
  // Thread 1 establishes X -> Y and finishes before thread 2 starts, so the
  // inversion is never an actual deadlock — exactly the latent bug class the
  // detector exists to catch.
  std::thread first([&] {
    MutexLock lock_a(a);
    MutexLock lock_b(b);
  });
  first.join();
  std::thread second([&] {
    MutexLock lock_b(b);
    MutexLock lock_a(a);
  });
  second.join();
  EXPECT_EQ(g_violations.load(), 1);
}

TEST_F(LockOrderDetectorTest, ExportsEdgesThroughTelemetry) {
  Mutex outer{"test.ExportOuter"};
  Mutex inner{"test.ExportInner"};
  {
    MutexLock lock_outer(outer);
    MutexLock lock_inner(inner);
  }
  telemetry::sync_lock_order_metrics();
  const telemetry::MetricsSnapshot snap =
      telemetry::MetricsRegistry::instance().snapshot();
  const auto total = snap.gauges.find("ucudnn.lockorder.edges");
  ASSERT_NE(total, snap.gauges.end());
  EXPECT_GE(total->second, 1);
  const auto edge = snap.gauges.find(
      "ucudnn.lockorder.edge.test.ExportOuter->test.ExportInner");
  ASSERT_NE(edge, snap.gauges.end());
  EXPECT_EQ(edge->second, 1);
}

TEST_F(LockOrderDetectorTest, DisabledDetectorRecordsNothing) {
  lockorder::set_enabled(false);
  Mutex a{"test.DisabledA"};
  Mutex b{"test.DisabledB"};
  {
    MutexLock lock_a(a);
    MutexLock lock_b(b);
  }
  {
    MutexLock lock_b(b);
    MutexLock lock_a(a);  // would be an inversion if enabled
  }
  EXPECT_EQ(g_violations.load(), 0);
  EXPECT_EQ(lockorder::edge_count(), 0u);
}

// --- serving front-end queue stress (run under the tsan preset) -----------

TEST(ServeConcurrencyTest, EightThreadSubmitWaitStress) {
  core::Options core_opts;
  core_opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  core_opts.workspace_limit = std::size_t{4} << 20;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), core_opts);

  serve::ServeOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 32;  // 8 clients x 1 outstanding: no shedding rung
  opts.batch_window_us = 50;
  opts.max_batch = 8;
  serve::Server server(handle, opts);

  const kernels::ConvProblem problem({1, 2, 6, 6}, {4, 2, 3, 3},
                                     {.pad_h = 1, .pad_w = 1});
  std::vector<float> weights(static_cast<std::size_t>(problem.w.count()),
                             0.25f);

  constexpr int kThreads = 8;
  constexpr int kIters = 50;
  std::atomic<int> completed{0};
  std::atomic<int> unresolved{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // One outstanding request per thread; buffers are reused only after
      // the previous request resolved.
      std::vector<float> input(static_cast<std::size_t>(problem.x.count()),
                               1.0f + 0.01f * static_cast<float>(t));
      std::vector<float> output(static_cast<std::size_t>(problem.y.count()),
                                0.0f);
      for (int i = 0; i < kIters; ++i) {
        serve::ServeRequest req;
        req.problem = problem;
        req.input = input.data();
        req.weights = weights.data();
        req.output = output.data();
        serve::TicketPtr ticket = server.submit(std::move(req));
        Status status = Status::kInternalError;
        if (!ticket->wait_for_us(30'000'000, &status)) {
          unresolved.fetch_add(1);
          return;  // never reuse buffers a lost request still points at
        }
        if (status == Status::kSuccess) completed.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(unresolved.load(), 0);
  EXPECT_EQ(completed.load(), kThreads * kIters);

  // Concurrent drains are idempotent and race-free.
  std::thread d1([&server] { server.drain(); });
  std::thread d2([&server] { server.drain(); });
  d1.join();
  d2.join();
  EXPECT_TRUE(server.draining());
  EXPECT_EQ(server.counters().completed,
            static_cast<std::uint64_t>(kThreads * kIters));
}

TEST(FlightRecorderConcurrencyTest, ConcurrentWritersAndSnapshotReaders) {
  // Eight writer threads each push 10k events into their own seqlock ring
  // while a reader thread snapshots continuously — the interleavings TSan
  // checks under the tsan preset. Counters must balance exactly and no
  // snapshot may ever observe a torn (mixed-write) event.
  constexpr std::size_t kCapacity = 256;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  telemetry::FlightRecorder recorder(kCapacity, /*dump_path=*/"");

  std::atomic<bool> done{false};
  std::atomic<int> torn{0};
  std::thread reader([&recorder, &done, &torn] {
    while (!done.load(std::memory_order_acquire)) {
      for (const telemetry::FlightEvent& event : recorder.snapshot()) {
        // Writers encode arg1 = arg0 + 1; a torn event breaks the pairing.
        if (event.arg1 != event.arg0 + 1) torn.fetch_add(1);
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::int64_t tag =
            static_cast<std::int64_t>(t) * kPerThread + i;
        recorder.record(telemetry::FlightEventKind::kMark, "stress",
                        static_cast<std::uint64_t>(t) + 1, tag, tag + 1);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(recorder.recorded(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // Each thread retains its last kCapacity events; the rest were dropped.
  EXPECT_EQ(recorder.dropped(),
            static_cast<std::uint64_t>(kThreads) * (kPerThread - kCapacity));
  const std::vector<telemetry::FlightEvent> final_view = recorder.snapshot();
  EXPECT_EQ(final_view.size(), static_cast<std::size_t>(kThreads) * kCapacity);
  for (std::size_t i = 1; i < final_view.size(); ++i) {
    EXPECT_LE(final_view[i - 1].ts_us, final_view[i].ts_us);
  }
}

}  // namespace
}  // namespace ucudnn
