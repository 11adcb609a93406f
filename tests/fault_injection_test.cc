// Fault-injection framework + graceful-degradation soak.
//
// The soak tests run a fixed 4-kernel workload (two forward convolutions,
// one BackwardFilter, one BackwardData) repeatedly under several injected
// fault schedules and compare outputs against the fault-free run. The
// benchmark cache is prefilled with synthetic perf tables so every plan is
// deterministic (no wall-clock measurements), and the preferred algorithms
// are chosen to be division-invariant: fwd GEMM, bwd-data ALGO_1 and
// bwd-filter ALGO_1 all compute each output element with an accumulation
// order independent of the micro-batch division, and fwd GEMM's workspace is
// exactly linear in the batch, so halving the workspace limit halves the
// micro-batch while reproducing bit-identical outputs — the paper's "same
// computational semantics" guarantee, extended to the degraded paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "core/ucudnn.h"
#include "kernels/registry.h"
#include "tensor/tensor.h"

namespace ucudnn {
namespace {

class FaultInjectionTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().configure(""); }
};

// ------------------------------------------------------------ spec parsing

TEST_F(FaultInjectionTest, ParsesTheReferenceSpec) {
  FaultInjector& fi = FaultInjector::instance();
  fi.configure("alloc:every=7;kernel:p=0.02,seed=42;cache:corrupt-load");
  EXPECT_TRUE(fi.armed());
  EXPECT_TRUE(fi.spec(FaultSite::kAlloc).enabled);
  EXPECT_EQ(fi.spec(FaultSite::kAlloc).every, 7u);
  EXPECT_TRUE(fi.spec(FaultSite::kKernel).enabled);
  EXPECT_DOUBLE_EQ(fi.spec(FaultSite::kKernel).probability, 0.02);
  EXPECT_EQ(fi.spec(FaultSite::kKernel).seed, 42u);
  EXPECT_TRUE(fi.spec(FaultSite::kCacheLoad).enabled);
  EXPECT_EQ(fi.spec(FaultSite::kCacheLoad).every, 1u);  // bare flag default
  EXPECT_FALSE(fi.spec(FaultSite::kCacheSave).enabled);

  fi.configure("cache:fail-save,count=1;alloc:every=1,after=3,count=2");
  EXPECT_TRUE(fi.spec(FaultSite::kCacheSave).enabled);
  EXPECT_EQ(fi.spec(FaultSite::kCacheSave).count, 1u);
  EXPECT_FALSE(fi.spec(FaultSite::kCacheLoad).enabled);
  EXPECT_EQ(fi.spec(FaultSite::kAlloc).after, 3u);
  EXPECT_EQ(fi.spec(FaultSite::kAlloc).count, 2u);

  fi.configure("");
  EXPECT_FALSE(fi.armed());
}

TEST_F(FaultInjectionTest, RejectsMalformedSpecs) {
  FaultInjector& fi = FaultInjector::instance();
  for (const char* bad :
       {"bogus:every=1", "alloc:frequency=2", "alloc:every=x", "alloc:every=0",
        "kernel:p=1.5", "kernel:p=oops", "cache:every=1", "cache:flagless",
        "alloc:corrupt-load", "serve.exce:every=1", "acme.later:every=1"}) {
    try {
      fi.configure(bad);
      FAIL() << "expected kInvalidValue for spec: " << bad;
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::kInvalidValue) << bad;
    }
  }
  // A failed configure never leaves the injector half-armed.
  EXPECT_FALSE(fi.armed());
}

TEST_F(FaultInjectionTest, EveryNScheduleIsDeterministic) {
  FaultInjector& fi = FaultInjector::instance();
  fi.configure("kernel:every=3");
  std::vector<bool> fired;
  for (int i = 0; i < 9; ++i) fired.push_back(fi.should_fail(FaultSite::kKernel));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, false, false, true,
                                      false, false, true}));
  EXPECT_EQ(fi.stats(FaultSite::kKernel).checks, 9u);
  EXPECT_EQ(fi.stats(FaultSite::kKernel).triggered, 3u);
  fi.reset_counters();
  EXPECT_EQ(fi.stats(FaultSite::kKernel).checks, 0u);
  EXPECT_EQ(fi.stats(FaultSite::kKernel).triggered, 0u);
}

TEST_F(FaultInjectionTest, ProbabilityScheduleReplaysWithTheSameSeed) {
  FaultInjector& fi = FaultInjector::instance();
  fi.configure("alloc:p=0.5,seed=7");
  std::vector<bool> first;
  for (int i = 0; i < 100; ++i) first.push_back(fi.should_fail(FaultSite::kAlloc));
  EXPECT_GT(fi.stats(FaultSite::kAlloc).triggered, 20u);
  EXPECT_LT(fi.stats(FaultSite::kAlloc).triggered, 80u);
  fi.reset_counters();
  std::vector<bool> second;
  for (int i = 0; i < 100; ++i) second.push_back(fi.should_fail(FaultSite::kAlloc));
  EXPECT_EQ(first, second);  // seeded PRNG, no wall clock
}

TEST_F(FaultInjectionTest, AfterAndCountBoundTheSchedule) {
  FaultInjector& fi = FaultInjector::instance();
  fi.configure("alloc:every=1,after=3,count=2");
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(fi.should_fail(FaultSite::kAlloc));
  EXPECT_EQ(fired, (std::vector<bool>{false, false, false, true, true, false,
                                      false, false}));
  EXPECT_EQ(fi.stats(FaultSite::kAlloc).triggered, 2u);
}

TEST_F(FaultInjectionTest, FailPointThrowsTheMappedStatus) {
  FaultInjector& fi = FaultInjector::instance();
  fi.configure("alloc;kernel");
  try {
    fi.fail_point(FaultSite::kAlloc);
    FAIL() << "expected kAllocFailed";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kAllocFailed);
  }
  try {
    fi.fail_point(FaultSite::kKernel);
    FAIL() << "expected kExecutionFailed";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kExecutionFailed);
  }
  // The serve.* sites are part of the table: no Server needs to exist.
  fi.configure("serve.enqueue;serve.batch;serve.exec");
  for (const auto& [site, status] :
       {std::pair{FaultSite::kServeEnqueue, Status::kRejected},
        std::pair{FaultSite::kServeBatch, Status::kExecutionFailed},
        std::pair{FaultSite::kServeExec, Status::kExecutionFailed}}) {
    try {
      fi.fail_point(site);
      FAIL() << "expected " << to_string(status) << " at " << to_string(site);
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), status) << to_string(site);
    }
  }
  // Disabled site: fail_point is a no-op even while armed.
  EXPECT_NO_THROW(fi.fail_point(FaultSite::kCacheSave));
  fi.configure("");
  EXPECT_NO_THROW(fi.fail_point(FaultSite::kAlloc));
  EXPECT_EQ(fi.stats(FaultSite::kAlloc).checks, 0u);
}

// ----------------------------------------------------- DeviceBuffer safety

TEST_F(FaultInjectionTest, DeviceBufferMoveSelfAssignAndRelease) {
  auto dev = std::make_shared<device::Device>(device::host_cpu_spec());
  {
    core::DeviceBuffer a(dev, 1024, "t");
    EXPECT_NE(a.data(), nullptr);
    EXPECT_EQ(a.size(), 1024u);
    EXPECT_EQ(dev->bytes_in_use(), 1024u);

    core::DeviceBuffer b(dev, 2048, "t");
    EXPECT_EQ(dev->bytes_in_use(), 3072u);
  }
  // Every destructor ran exactly once: nothing leaked, nothing double-freed.
  EXPECT_EQ(dev->bytes_in_use(), 0u);
}

TEST_F(FaultInjectionTest, WrEntryIsNotCachedWhenAllocationThrows) {
  auto dev = std::make_shared<device::Device>(device::p100_sxm2_spec());
  core::Options opts;
  opts.workspace_limit = std::size_t{64} << 20;
  opts.fail_fast = true;  // surface the injected OOM instead of degrading
  core::UcudnnHandle handle(dev, opts);
  const kernels::ConvProblem problem({16, 16, 14, 14}, {16, 16, 3, 3},
                                     {.pad_h = 1, .pad_w = 1});

  FaultInjector::instance().configure("alloc:every=1,count=1");
  try {
    handle.convolution(ConvKernelType::kForward, problem, 1.0f, nullptr,
                       nullptr, 0.0f, nullptr);
    FAIL() << "expected the injected allocation failure to surface";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kAllocFailed);
  }
  // The half-built entry must not have been cached...
  EXPECT_EQ(handle.configuration_for(ConvKernelType::kForward, problem),
            nullptr);
  EXPECT_EQ(dev->bytes_in_use(), 0u);

  // ...so the next call plans and executes cleanly.
  FaultInjector::instance().configure("");
  handle.convolution(ConvKernelType::kForward, problem, 1.0f, nullptr, nullptr,
                     0.0f, nullptr);
  EXPECT_NE(handle.configuration_for(ConvKernelType::kForward, problem),
            nullptr);
}

// ----------------------------------------------------- constructor checks

TEST_F(FaultInjectionTest, ConstructorValidatesOptionsAndNode) {
  try {
    core::Options opts;
    opts.max_retries = -1;
    core::UcudnnHandle handle(
        std::make_shared<device::Device>(device::host_cpu_spec()), opts);
    FAIL() << "expected kBadParam for max_retries = -1";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kBadParam);
  }
  // A null device is rejected with a clear kBadParam, not dereferenced.
  try {
    core::UcudnnHandle handle(nullptr, core::Options{});
    FAIL() << "expected kBadParam for a null device";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kBadParam);
  }
}

// ------------------------------------------------------- cache robustness

TEST_F(FaultInjectionTest, CorruptCacheFileIsQuarantinedNotFatal) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_fault_corrupt.db")
          .string();
  {
    std::ofstream out(path);
    out << "this is not\ta benchmark cache\n";
  }
  {
    core::Options opts;
    opts.cache_path = path;
    core::UcudnnHandle handle(
        std::make_shared<device::Device>(device::p100_sxm2_spec()), opts);
    EXPECT_EQ(handle.degradation_stats().cache_quarantines.value(), 1u);
    EXPECT_EQ(handle.cache()->size(), 0u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  }  // teardown re-saves a fresh (valid) database to `path`
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST_F(FaultInjectionTest, AtomicSaveSurvivesAnInjectedCrash) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_fault_atomic.db")
          .string();
  const kernels::ConvProblem p({8, 4, 10, 10}, {4, 4, 3, 3},
                               {.pad_h = 1, .pad_w = 1});
  core::BenchmarkCache cache;
  std::vector<mcudnn::AlgoPerf> perfs(1);
  perfs[0] = {2, Status::kSuccess, 1.5, 4096};
  cache.store("P100-SXM2", ConvKernelType::kForward, p, perfs);
  cache.save_file(path);

  std::ifstream before_in(path);
  const std::string before((std::istreambuf_iterator<char>(before_in)),
                           std::istreambuf_iterator<char>());
  before_in.close();
  ASSERT_FALSE(before.empty());

  // A crash between write and publish must leave the old database intact
  // and no temp file behind.
  cache.store("P100-SXM2", ConvKernelType::kBackwardData, p, perfs);
  FaultInjector::instance().configure("cache:fail-save");
  EXPECT_THROW(cache.save_file(path), Error);
  std::ifstream after_in(path);
  const std::string after((std::istreambuf_iterator<char>(after_in)),
                          std::istreambuf_iterator<char>());
  after_in.close();
  EXPECT_EQ(after, before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  FaultInjector::instance().configure("");
  cache.save_file(path);
  core::BenchmarkCache reloaded;
  EXPECT_EQ(reloaded.load_file(path), core::CacheLoadResult::kLoaded);
  EXPECT_EQ(reloaded.size(), 2u);
  std::remove(path.c_str());
}

TEST_F(FaultInjectionTest, BlacklistFiltersLookupsButNotTheDatabase) {
  constexpr ConvKernelType kFwd = ConvKernelType::kForward;
  constexpr int kGemm = kernels::fwd_algo::kGemm;
  const kernels::ConvProblem p({8, 4, 10, 10}, {4, 4, 3, 3},
                               {.pad_h = 1, .pad_w = 1});
  auto cpu = std::make_shared<device::Device>(device::host_cpu_spec());
  auto cache = std::make_shared<core::BenchmarkCache>();
  std::vector<mcudnn::AlgoPerf> perfs(2);
  perfs[0] = {kGemm, Status::kSuccess, 1.0, 4096};
  perfs[1] = {kernels::fwd_algo::kDirect, Status::kSuccess, 2.0, 0};
  cache->store("HostCpu", kFwd, p, perfs);

  cache->blacklist("HostCpu", kFwd, kGemm);
  EXPECT_TRUE(cache->is_blacklisted("HostCpu", kFwd, kGemm));
  EXPECT_FALSE(
      cache->is_blacklisted("HostCpu", ConvKernelType::kBackwardData, kGemm));
  EXPECT_EQ(cache->blacklisted_count(), 1u);

  const core::MicroBenchmark hit =
      core::Benchmarker(mcudnn::Handle(cpu), cache)
          .table(kFwd, p, core::BatchSizePolicy::kUndivided);
  ASSERT_EQ(hit.perfs.size(), 1u);
  ASSERT_EQ(hit.perfs[0].size(), 1u);
  EXPECT_EQ(hit.perfs[0][0].algo, kernels::fwd_algo::kDirect);

  // The blacklist is in-memory only: the persisted database keeps both
  // results so one bad run cannot poison the shared cluster cache.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_fault_blacklist.db")
          .string();
  cache->save_file(path);
  core::BenchmarkCache reloaded;
  EXPECT_EQ(reloaded.load_file(path), core::CacheLoadResult::kLoaded);
  const auto entry = reloaded.find("HostCpu", kFwd, p);
  ASSERT_TRUE(entry.has_value());
  ASSERT_GE(entry->size(), 2u);
  EXPECT_EQ((*entry)[0].algo, kGemm);
  EXPECT_EQ((*entry)[1].algo, kernels::fwd_algo::kDirect);

  // Benchmarking under the blacklist must not persist the algorithm's
  // absence either: a process without the blacklist lists it again, as a
  // timing or a bound, at every size that supports it.
  const kernels::ConvProblem fresh({4, 4, 10, 10}, {4, 4, 3, 3},
                                   {.pad_h = 1, .pad_w = 1});
  for (const auto& dev :
       {cpu, std::make_shared<device::Device>(device::p100_sxm2_spec())}) {
    auto blacklisting = std::make_shared<core::BenchmarkCache>();
    blacklisting->blacklist(dev->spec().name, kFwd, kGemm);
    core::Benchmarker(mcudnn::Handle(dev), blacklisting)
        .run(kFwd, fresh, core::BatchSizePolicy::kPowerOfTwo);
    blacklisting->save_file(path);
    auto unfiltered = std::make_shared<core::BenchmarkCache>();
    EXPECT_EQ(unfiltered->load_file(path), core::CacheLoadResult::kLoaded);
    const core::MicroBenchmark table =
        core::Benchmarker(mcudnn::Handle(dev), unfiltered)
            .table(kFwd, fresh, core::BatchSizePolicy::kPowerOfTwo);
    ASSERT_EQ(table.sizes.size(), 3u);
    for (std::size_t i = 0; i < table.sizes.size(); ++i) {
      if (!kernels::algo_supported(kFwd, kGemm,
                                   fresh.with_batch(table.sizes[i]))) {
        continue;
      }
      EXPECT_TRUE(std::any_of(
          table.perfs[i].begin(), table.perfs[i].end(),
          [&](const mcudnn::AlgoPerf& perf) { return perf.algo == kGemm; }))
          << dev->spec().name << " size " << table.sizes[i];
    }
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------- solver fallbacks

TEST_F(FaultInjectionTest, InfeasibleWdPlanDegradesToPerKernelWr) {
  core::Options opts;
  opts.workspace_policy = core::WorkspacePolicy::kWD;
  opts.total_workspace_size = std::size_t{32} << 20;
  auto dev = std::make_shared<device::Device>(device::p100_sxm2_spec());
  core::UcudnnHandle handle(dev, opts);
  const kernels::ConvProblem fwd_p({16, 16, 14, 14}, {16, 16, 3, 3},
                                   {.pad_h = 1, .pad_w = 1});
  const kernels::ConvProblem bwd_p = fwd_p;
  handle.get_algorithm(ConvKernelType::kForward, fwd_p,
                       mcudnn::AlgoPreference::kPreferFastest, 0);
  handle.get_algorithm(ConvKernelType::kBackwardFilter, bwd_p,
                       mcudnn::AlgoPreference::kPreferFastest, 0);
  // Blacklist every BackwardFilter algorithm: the recorded kernel set has no
  // feasible WD division, so the handle must degrade to per-kernel WR and
  // still execute the healthy forward kernel.
  for (int algo = 0; algo < kernels::algo_count(ConvKernelType::kBackwardFilter);
       ++algo) {
    handle.cache()->blacklist(dev->spec().name, ConvKernelType::kBackwardFilter,
                              algo);
  }
  handle.convolution(ConvKernelType::kForward, fwd_p, 1.0f, nullptr, nullptr,
                     0.0f, nullptr);
  EXPECT_FALSE(handle.wd_finalized());
  EXPECT_EQ(handle.degradation_stats().solver_fallbacks.value(), 1u);
  EXPECT_NE(handle.configuration_for(ConvKernelType::kForward, fwd_p), nullptr);
}

// ------------------------------------------------------------- fault soak
//
// Deterministic workload machinery. All plans come from a prefilled cache:
//   winner      time 1.0 + 0.01*size   (division-invariant, workspace > 0)
//   runner-up   time 100 + 0.01*size   (division-invariant, small workspace)
//   last resort time 10000 + 0.01*size (zero workspace)
// so the fault-free baseline picks the undivided winner everywhere, alloc
// degradation walks down the winner's (linear) workspace curve, and a
// blacklisted winner falls to the runner-up.

struct SoakLayer {
  ConvKernelType type;
  kernels::ConvProblem problem;
};

std::vector<SoakLayer> soak_layers() {
  const kernels::ConvProblem c1({8, 3, 12, 12}, {8, 3, 3, 3},
                                {.pad_h = 1, .pad_w = 1});
  const kernels::ConvProblem c2({8, 8, 12, 12}, {8, 8, 3, 3},
                                {.pad_h = 1, .pad_w = 1});
  return {{ConvKernelType::kForward, c1},
          {ConvKernelType::kForward, c2},
          {ConvKernelType::kBackwardFilter, c2},
          {ConvKernelType::kBackwardData, c2}};
}

std::vector<int> preferred_algos(ConvKernelType type) {
  switch (type) {
    case ConvKernelType::kForward:
      return {kernels::fwd_algo::kGemm, kernels::fwd_algo::kImplicitPrecompGemm,
              kernels::fwd_algo::kDirect};
    case ConvKernelType::kBackwardFilter:
      return {kernels::bwd_filter_algo::kAlgo1,
              kernels::bwd_filter_algo::kAlgo0};
    case ConvKernelType::kBackwardData:
      return {kernels::bwd_data_algo::kAlgo1, kernels::bwd_data_algo::kAlgo0};
  }
  return {};
}

void prefill_cache(core::UcudnnHandle& handle) {
  const std::string& device_name = handle.device().spec().name;
  for (const SoakLayer& layer : soak_layers()) {
    const auto sizes = core::candidate_micro_sizes(
        core::BatchSizePolicy::kPowerOfTwo, layer.problem.batch());
    for (const std::int64_t size : sizes) {
      const kernels::ConvProblem sub = layer.problem.with_batch(size);
      std::vector<mcudnn::AlgoPerf> perfs;
      double base = 1.0;
      for (const int algo : preferred_algos(layer.type)) {
        if (!kernels::algo_supported(layer.type, algo, sub)) continue;
        mcudnn::AlgoPerf perf;
        perf.algo = algo;
        perf.status = Status::kSuccess;
        perf.time_ms = base + 0.01 * static_cast<double>(size);
        perf.memory = kernels::algo_workspace(layer.type, algo, sub);
        perfs.push_back(perf);
        base *= 100.0;
      }
      handle.cache()->store(device_name, layer.type, sub, perfs);
    }
  }
}

// Per-kernel limit that fits each layer's undivided winner exactly.
std::size_t soak_limit() {
  std::size_t limit = 0;
  for (const SoakLayer& layer : soak_layers()) {
    limit = std::max(limit,
                     kernels::algo_workspace(layer.type,
                                             preferred_algos(layer.type)[0],
                                             layer.problem));
  }
  return limit;
}

std::vector<std::vector<float>> run_workload(core::UcudnnHandle& handle,
                                             int iterations) {
  const auto layers = soak_layers();
  std::vector<std::vector<float>> outputs(layers.size());
  for (int iter = 0; iter < iterations; ++iter) {
    for (std::size_t li = 0; li < layers.size(); ++li) {
      const SoakLayer& layer = layers[li];
      const kernels::ConvProblem& p = layer.problem;
      std::int64_t a_count = p.x.count(), b_count = p.w.count(),
                   out_count = p.y.count();
      if (layer.type == ConvKernelType::kBackwardData) {
        a_count = p.y.count();
        out_count = p.x.count();
      } else if (layer.type == ConvKernelType::kBackwardFilter) {
        b_count = p.y.count();
        out_count = p.w.count();
      }
      std::vector<float> a(static_cast<std::size_t>(a_count));
      std::vector<float> b(static_cast<std::size_t>(b_count));
      std::vector<float> out(static_cast<std::size_t>(out_count), 0.0f);
      fill_random(a.data(), a_count, 31 * static_cast<std::uint64_t>(li) + 1);
      fill_random(b.data(), b_count, 31 * static_cast<std::uint64_t>(li) + 2);
      handle.convolution(layer.type, p, 1.0f, a.data(), b.data(), 0.0f,
                         out.data());
      outputs[li] = std::move(out);
    }
  }
  return outputs;
}

constexpr int kSoakIterations = 5;

/// Plain copy of a handle's degradation counters, taken before the handle
/// (which owns the counters) is destroyed.
struct SoakStats {
  std::uint64_t retries = 0;
  std::uint64_t degraded_allocations = 0;
  std::uint64_t blacklisted_algorithms = 0;
  std::uint64_t cache_quarantines = 0;
  bool any = false;
};

std::vector<std::vector<float>> run_soak(const std::string& faults,
                                         SoakStats* stats,
                                         const std::string& cache_path = "") {
  FaultInjector::instance().configure(faults);
  core::Options opts;
  opts.workspace_limit = soak_limit();
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.cache_path = cache_path;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), opts);
  prefill_cache(handle);
  auto outputs = run_workload(handle, kSoakIterations);
  if (stats != nullptr) {
    const core::DegradationStats& s = handle.degradation_stats();
    *stats = {s.retries.value(), s.degraded_allocations.value(),
              s.blacklisted_algorithms.value(), s.cache_quarantines.value(),
              s.any()};
  }
  FaultInjector::instance().configure("");
  return outputs;
}

void expect_bitwise_equal(const std::vector<std::vector<float>>& got,
                          const std::vector<std::vector<float>>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t li = 0; li < got.size(); ++li) {
    ASSERT_EQ(got[li].size(), want[li].size()) << "layer " << li;
    EXPECT_EQ(std::memcmp(got[li].data(), want[li].data(),
                          got[li].size() * sizeof(float)),
              0)
        << "layer " << li << " outputs differ bitwise";
  }
}

class FaultSoakTest : public FaultInjectionTest {};

TEST_F(FaultSoakTest, FaultFreeRunReportsNoDegradation) {
  SoakStats stats;
  const auto outputs = run_soak("", &stats);
  EXPECT_FALSE(stats.any);
  for (const auto& out : outputs) {
    ASSERT_FALSE(out.empty());
    for (const float v : out) EXPECT_TRUE(std::isfinite(v));
  }
}

TEST_F(FaultSoakTest, TransientKernelFaultsRetryBitwiseIdentical) {
  SoakStats baseline_stats;
  const auto baseline = run_soak("", &baseline_stats);

  // 4 kernel launches per iteration, 5 iterations; every 7th launch fails
  // once and is retried: 20 launches + 3 retries = 23 checks, 3 triggers.
  FaultInjector::instance().configure("kernel:every=7");
  core::Options opts;
  opts.workspace_limit = soak_limit();
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), opts);
  prefill_cache(handle);
  const auto outputs = run_workload(handle, kSoakIterations);
  const core::DegradationStats& stats = handle.degradation_stats();
  EXPECT_EQ(FaultInjector::instance().stats(FaultSite::kKernel).checks, 23u);
  EXPECT_EQ(FaultInjector::instance().stats(FaultSite::kKernel).triggered, 3u);
  FaultInjector::instance().configure("");

  EXPECT_EQ(stats.retries.value(), 3u);
  EXPECT_EQ(stats.blacklisted_algorithms.value(), 0u);
  expect_bitwise_equal(outputs, baseline);
}

TEST_F(FaultSoakTest, AllocFaultsDegradeBitwiseIdentical) {
  const auto baseline = run_soak("", nullptr);

  // The first workspace allocation fails twice: the fwd GEMM winner's
  // workspace is linear in the batch, so limit halving walks 8 -> [4,4] ->
  // [2,2,2,2] while staying on the same division-invariant algorithm.
  SoakStats stats;
  const auto outputs = run_soak("alloc:every=1,count=2", &stats);
  EXPECT_EQ(stats.degraded_allocations, 2u);
  EXPECT_EQ(stats.retries, 0u);
  expect_bitwise_equal(outputs, baseline);
}

TEST_F(FaultSoakTest, CorruptCacheFileQuarantinedBitwiseIdentical) {
  const auto baseline = run_soak("", nullptr);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_fault_soak_cache.db")
          .string();
  {
    std::ofstream out(path);
    out << "x5fjq\x01garbage\n";
  }
  SoakStats stats;
  const auto outputs = run_soak("", &stats, path);
  EXPECT_EQ(stats.cache_quarantines, 1u);
  expect_bitwise_equal(outputs, baseline);
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
}

TEST_F(FaultSoakTest, RetryExhaustionBlacklistsAndReplans) {
  const auto baseline = run_soak("", nullptr);

  // The very first launch (fwd GEMM) fails four times in a row: three
  // retries burn out, the algorithm is blacklisted, and the remaining batch
  // re-plans onto the runner-up. Outputs legitimately change algorithm here,
  // so the assertion is tolerance-based, not bitwise.
  SoakStats stats;
  const auto outputs = run_soak("kernel:every=1,count=4", &stats);
  EXPECT_EQ(stats.retries, 3u);
  EXPECT_EQ(stats.blacklisted_algorithms, 1u);
  ASSERT_EQ(outputs.size(), baseline.size());
  for (std::size_t li = 0; li < outputs.size(); ++li) {
    ASSERT_EQ(outputs[li].size(), baseline[li].size());
    EXPECT_LT(max_rel_diff(outputs[li].data(), baseline[li].data(),
                           static_cast<std::int64_t>(baseline[li].size())),
              1e-3)
        << "layer " << li;
  }
}

// Soak-runner entry point: the `fault_soak` ctest runs exactly this test
// with UCUDNN_FAULTS set in the environment (see tests/CMakeLists.txt), so
// the schedule exercises the env-configured path end to end. Without the
// variable it degenerates to a fault-free run.
TEST(FaultSoakEnvTest, CompletesUnderEnvSchedule) {
  core::Options opts;
  opts.workspace_limit = soak_limit();
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), opts);
  prefill_cache(handle);
  const auto outputs = run_workload(handle, 8);
  for (const auto& out : outputs) {
    ASSERT_FALSE(out.empty());
    for (const float v : out) ASSERT_TRUE(std::isfinite(v));
  }
  if (FaultInjector::instance().armed()) {
    EXPECT_GT(FaultInjector::instance().stats(FaultSite::kAlloc).triggered +
                  FaultInjector::instance().stats(FaultSite::kKernel).triggered,
              0u);
  }
}

// Run by the fault_soak_env_malformed ctest with UCUDNN_FAULTS naming a site
// that does not exist ("serve.exce"): the constructor logs and ignores the
// spec, so nothing is armed. Without the variable the injector is disarmed
// too.
TEST(FaultSoakEnvTest, MalformedEnvSpecLeavesInjectorDisarmed) {
  EXPECT_FALSE(FaultInjector::instance().armed());
}

}  // namespace
}  // namespace ucudnn
