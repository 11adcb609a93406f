// Concurrency-correctness tests for the shared planner-side state (a
// serving layer shares one handle, and with it one BenchmarkCache, across
// worker threads), for concurrent convolution() calls on
// one handle, and for the runtime lock-order detector of
// common/thread_annotations.h.
//
// The stress tests are most valuable under the `tsan` preset, where TSan
// checks every interleaving they generate; on the default preset they still
// verify the locked invariants. The lock-order tests skip themselves when
// the detector is compiled out (release builds without sanitizers).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/thread_annotations.h"
#include "core/benchmark_cache.h"
#include "core/ucudnn.h"
#include "kernels/conv_problem.h"
#include "kernels/direct.h"
#include "mcudnn/mcudnn.h"
#include "serve/server.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "tensor/tensor.h"

namespace ucudnn {
namespace {

using core::BenchmarkCache;
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

// ---------------------------------------------------------------------------
// Concurrent convolution() on one handle. Four threads call the handle 200
// times each with no lock of their own; every output must be bitwise equal
// to the handle's serial output for the same operands. With the kernel
// fault site armed (the concurrency_fault_soak ctest arms it for the whole
// suite through UCUDNN_FAULTS) re-plans may pick other algorithms, so the
// check becomes agreement with the direct reference instead.
// ---------------------------------------------------------------------------

constexpr int kCallThreads = 4;
constexpr int kCallsPerThread = 200;
constexpr float kReferenceTolerance = 5e-3f;
constexpr std::int64_t kServeBatches[] = {1, 2, 4, 8, 16};

ConvProblem conv_problem(std::int64_t batch) {
  return ConvProblem({batch, 8, 10, 10}, {8, 8, 3, 3},
                     {.pad_h = 1, .pad_w = 1});
}

core::Options conv_options() {
  core::Options o;
  o.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  o.workspace_limit = std::size_t{64} << 20;
  return o;
}

/// One forward call the threads repeat, with the output the handle gave
/// for it serially once planned and the direct reference.
struct Call {
  ConvProblem problem;
  std::vector<float> x, w, serial, reference;
};

Call make_call(core::UcudnnHandle& handle, const ConvProblem& problem,
               std::uint64_t seed) {
  const auto floats = [](std::int64_t count) {
    return std::vector<float>(static_cast<std::size_t>(count));
  };
  Call c{problem, floats(problem.x.count()), floats(problem.w.count()),
         floats(problem.y.count()), floats(problem.y.count())};
  fill_random(c.x.data(), problem.x.count(), seed);
  fill_random(c.w.data(), problem.w.count(), seed + 1);
  kernels::direct_forward(problem, c.x.data(), c.w.data(),
                          c.reference.data(), 1.0f, 0.0f);
  // The first call plans; the second is the steady-state output.
  for (int i = 0; i < 2; ++i) {
    handle.convolution(ConvKernelType::kForward, problem, 1.0f, c.x.data(),
                       c.w.data(), 0.0f, c.serial.data());
  }
  return c;
}

std::vector<Call> make_calls(core::UcudnnHandle& handle) {
  std::vector<Call> calls;
  for (const std::int64_t batch : kServeBatches) {
    calls.push_back(make_call(handle, conv_problem(batch),
                              static_cast<std::uint64_t>(batch) * 10));
  }
  return calls;
}

struct ConcurrentRun {
  int mismatches = 0;
  int failures = 0;
};

/// Thread t's i-th call runs calls[(t + i) % calls.size()] into the
/// thread's own output buffer.
ConcurrentRun run_concurrently(core::UcudnnHandle& handle,
                               const std::vector<Call>& calls) {
  const bool faults =
      FaultInjector::instance().spec(FaultSite::kKernel).enabled;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kCallThreads);
  for (int t = 0; t < kCallThreads; ++t) {
    threads.emplace_back([&, t] {
      std::vector<float> y;
      for (int i = 0; i < kCallsPerThread; ++i) {
        const Call& c = calls[static_cast<std::size_t>(t + i) % calls.size()];
        y.assign(c.serial.size(), 0.0f);
        try {
          handle.convolution(ConvKernelType::kForward, c.problem, 1.0f,
                             c.x.data(), c.w.data(), 0.0f, y.data());
        } catch (const Error& e) {
          ADD_FAILURE() << "convolution threw: " << e.what();
          failures.fetch_add(1);
          continue;
        }
        bool ok = true;
        for (std::size_t k = 0; k < y.size() && ok; ++k) {
          ok = faults ? std::fabs(y[k] - c.reference[k]) <= kReferenceTolerance
                      : y[k] == c.serial[k];
        }
        if (!ok) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  return {mismatches.load(), failures.load()};
}

class ConcurrentConvolutionTest : public ::testing::Test {
 protected:
  /// Restores the environment's schedule (none when UCUDNN_FAULTS is unset).
  void TearDown() override {
    if (!injected_) return;
    const char* env = std::getenv("UCUDNN_FAULTS");
    FaultInjector::instance().configure(env == nullptr ? "" : env);
  }
  void inject(const char* spec) {
    FaultInjector::instance().configure(spec);
    injected_ = true;
  }

 private:
  bool injected_ = false;
};

TEST_F(ConcurrentConvolutionTest, OneKernelLeasesSpareWorkspaces) {
  const auto dev = std::make_shared<device::Device>(device::host_cpu_spec());
  core::UcudnnHandle handle(dev, conv_options());
  const std::vector<Call> calls{make_call(handle, conv_problem(16), 7)};
  const ConcurrentRun run = run_concurrently(handle, calls);
  EXPECT_EQ(run.failures, 0);
  EXPECT_EQ(run.mismatches, 0);
  // Four threads on one kernel collide on its WR buffer, so at least one
  // spare of the same size was leased.
  const core::Configuration* config =
      handle.configuration_for(ConvKernelType::kForward, conv_problem(16));
  if (config != nullptr && config->workspace > 0) {
    EXPECT_EQ(dev->peak_by_tag().count("spare:ws"), 1u);
  }
}

TEST_F(ConcurrentConvolutionTest, FiveServeBatchSizes) {
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()),
      conv_options());
  const std::vector<Call> calls = make_calls(handle);
  const ConcurrentRun run = run_concurrently(handle, calls);
  EXPECT_EQ(run.failures, 0);
  EXPECT_EQ(run.mismatches, 0);
  // Every call after the two planning calls per kernel was recorded.
  std::uint64_t executions = 0;
  for (const auto& kernel : handle.execution_report().kernels) {
    executions += kernel.executions;
  }
  EXPECT_EQ(executions, 2u * calls.size() +
                            static_cast<std::uint64_t>(kCallThreads) *
                                kCallsPerThread -
                            static_cast<std::uint64_t>(run.failures));
}

TEST_F(ConcurrentConvolutionTest, SharedWrWorkspace) {
  core::Options options = conv_options();
  options.share_wr_workspace = true;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), options);
  const ConcurrentRun run = run_concurrently(handle, make_calls(handle));
  EXPECT_EQ(run.failures, 0);
  EXPECT_EQ(run.mismatches, 0);
}

TEST_F(ConcurrentConvolutionTest, WdArenaSlices) {
  core::Options options = conv_options();
  options.workspace_policy = core::WorkspacePolicy::kWD;
  options.total_workspace_size = std::size_t{64} << 20;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), options);
  for (const std::int64_t batch : kServeBatches) {
    (void)handle.get_algorithm(ConvKernelType::kForward, conv_problem(batch),
                               mcudnn::AlgoPreference::kPreferFastest,
                               std::size_t{0});
  }
  handle.finalize_wd();
  ASSERT_TRUE(handle.wd_finalized());
  const ConcurrentRun run = run_concurrently(handle, make_calls(handle));
  EXPECT_EQ(run.failures, 0);
  EXPECT_EQ(run.mismatches, 0);
}

TEST_F(ConcurrentConvolutionTest, KernelFaultsReplanAndCountersAddUp) {
  if (!FaultInjector::instance().armed()) inject("kernel:every=7");
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()),
      conv_options());
  const std::vector<Call> calls = make_calls(handle);
  const FaultSiteStats before =
      FaultInjector::instance().stats(FaultSite::kKernel);
  const std::uint64_t retries_before =
      handle.degradation_stats().retries.value();
  const ConcurrentRun run = run_concurrently(handle, calls);
  EXPECT_EQ(run.failures, 0);
  EXPECT_EQ(run.mismatches, 0);

  // Every re-plan was counted by the execution records, and every retired
  // algorithm was counted once, however many calls failed on it.
  std::uint64_t replans = 0;
  for (const auto& kernel : handle.execution_report().kernels) {
    replans += kernel.replans;
  }
  const std::uint64_t blacklisted =
      handle.degradation_stats().blacklisted_algorithms.value();
  EXPECT_EQ(blacklisted, handle.cache()->blacklisted_count());
  EXPECT_GE(replans, blacklisted);
  // A failed launch is retried or ends in a re-plan; re-plans also benchmark,
  // which consults the same site.
  const std::uint64_t retries =
      handle.degradation_stats().retries.value() - retries_before;
  const std::uint64_t triggered =
      FaultInjector::instance().stats(FaultSite::kKernel).triggered -
      before.triggered;
  EXPECT_GT(retries + replans, 0u);
  EXPECT_GE(triggered, retries + replans);
}

TEST_F(ConcurrentConvolutionTest, BlacklistFreesBuffersOfCallsInFlight) {
  // With no retries the first failed launch blacklists its algorithm and
  // drops every WR entry using it while the other threads still run on
  // those buffers; their leases keep them alive.
  inject("");  // plan without the environment's faults
  core::Options options = conv_options();
  options.max_retries = 0;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), options);
  const std::vector<Call> calls = make_calls(handle);
  inject("kernel:every=1,count=2");
  const ConcurrentRun run = run_concurrently(handle, calls);
  EXPECT_EQ(run.failures, 0);
  EXPECT_EQ(run.mismatches, 0);
  std::uint64_t replans = 0;
  for (const auto& kernel : handle.execution_report().kernels) {
    replans += kernel.replans;
  }
  EXPECT_GE(replans, 1u);
  // Two calls running the same stale plan can both fail on the same
  // algorithm; it is retired and counted once.
  const std::uint64_t blacklisted =
      handle.degradation_stats().blacklisted_algorithms.value();
  EXPECT_GE(blacklisted, 1u);
  EXPECT_EQ(blacklisted, handle.cache()->blacklisted_count());
  EXPECT_GE(replans, blacklisted);
}

TEST_F(ConcurrentConvolutionTest, SpareAllocationFailureWaitsForTheHome) {
  inject("");  // plan without the environment's faults
  const auto dev = std::make_shared<device::Device>(device::host_cpu_spec());
  core::UcudnnHandle handle(dev, conv_options());
  const std::vector<Call> calls{make_call(handle, conv_problem(16), 11)};
  // Every allocation from here on fails: a colliding call cannot get a
  // spare and must wait for the home buffer instead of failing.
  inject("alloc:every=1");
  const ConcurrentRun run = run_concurrently(handle, calls);
  EXPECT_EQ(run.failures, 0);
  EXPECT_EQ(run.mismatches, 0);
  EXPECT_EQ(dev->peak_by_tag().count("spare:ws"), 0u);
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

TEST(ServeConcurrencyTest, WorkersExecuteConcurrently) {
  // Under overload both workers hold a batch at once; their kernels must
  // then run at the same time, not one after the other.
  core::Options core_opts;
  core_opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  core_opts.workspace_limit = std::size_t{8} << 20;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), core_opts);
  const kernels::ConvProblem problem({1, 32, 14, 14}, {32, 32, 3, 3},
                                     {.pad_h = 1, .pad_w = 1});
  constexpr int kBatch = 16;
  std::vector<float> weights(static_cast<std::size_t>(problem.w.count()));
  fill_random(weights.data(), problem.w.count(), 3);
  std::vector<float> input(static_cast<std::size_t>(problem.x.count()));
  fill_random(input.data(), problem.x.count(), 4);
  {
    // Plan the merged batch size before tracing starts.
    const kernels::ConvProblem merged = problem.with_batch(kBatch);
    std::vector<float> x(static_cast<std::size_t>(merged.x.count()), 0.5f);
    std::vector<float> y(static_cast<std::size_t>(merged.y.count()));
    handle.convolution(ConvKernelType::kForward, merged, 1.0f, x.data(),
                       weights.data(), 0.0f, y.data());
  }

  serve::ServeOptions opts;
  opts.workers = 2;
  opts.queue_capacity = 4 * kBatch;
  opts.batch_window_us = 0;
  opts.max_batch = kBatch;
  serve::Server server(handle, opts);

  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::instance();
  recorder.clear();
  recorder.set_enabled(true);
  // Kernel spans inside serve_exec, per thread: [begin, end) in us.
  struct Kernel {
    std::uint32_t tid;
    double begin, end;
  };
  bool overlapped = false;
  std::vector<std::vector<float>> outputs(
      4 * kBatch, std::vector<float>(static_cast<std::size_t>(problem.y.count())));
  for (int burst = 0; burst < 20 && !overlapped; ++burst) {
    recorder.clear();
    std::vector<serve::TicketPtr> tickets;
    for (std::vector<float>& out : outputs) {
      serve::ServeRequest req;
      req.problem = problem;
      req.input = input.data();
      req.weights = weights.data();
      req.output = out.data();
      tickets.push_back(server.submit(std::move(req)));
    }
    for (const serve::TicketPtr& ticket : tickets) (void)ticket->wait();
    std::vector<Kernel> kernels;
    std::vector<std::uint32_t> exec_tids;
    for (const telemetry::SpanEvent& e : recorder.events()) {
      if (e.name == "serve_exec") exec_tids.push_back(e.tid);
      if (e.name == "segment_exec") {
        kernels.push_back({e.tid, e.ts_us, e.ts_us + e.dur_us});
      }
    }
    for (const Kernel& k : kernels) {
      for (const Kernel& other : kernels) {
        overlapped = overlapped ||
                     (k.tid != other.tid && k.begin < other.end &&
                      other.begin < k.end &&
                      std::count(exec_tids.begin(), exec_tids.end(), k.tid) &&
                      std::count(exec_tids.begin(), exec_tids.end(), other.tid));
      }
    }
  }
  recorder.set_enabled(false);
  recorder.clear();
  server.drain();
  EXPECT_TRUE(overlapped)
      << "no two serve_exec spans ran their kernels at the same time";
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
