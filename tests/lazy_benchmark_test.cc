// Lazy benchmarking: WR planning times only the (micro size, algorithm)
// pairs its optimum depends on and bounds the rest. Checked on synthetic
// tables against optimize_wr over the fully measured table, on real HostCpu
// kernels through the handle and a shared cache file, and through the
// cache's partial-entry persistence.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <random>

#include "core/benchmark_cache.h"
#include "core/ucudnn.h"
#include "core/wr_optimizer.h"
#include "kernels/registry.h"
#include "telemetry/metrics.h"
#include "tensor/tensor.h"

namespace ucudnn::core {
namespace {

using kernels::ConvProblem;

// ------------------------------------------------------ synthetic tables

// Random complete table that satisfies the bound rule's assumption: each
// algorithm's time never falls as the batch grows. Algorithm 0 needs no
// workspace, so every limit (0 included) is feasible.
MicroBenchmark monotone_table(unsigned seed, std::int64_t batch, int algos,
                              BatchSizePolicy policy) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> cost(0.5, 4.0);
  std::uniform_real_distribution<double> overhead(0.0, 6.0);
  std::uniform_real_distribution<double> noise(0.8, 1.2);
  std::uniform_int_distribution<std::size_t> ws_per_sample(1, 1000);

  MicroBenchmark table;
  table.sizes = candidate_micro_sizes(policy, batch);
  table.perfs.resize(table.sizes.size());
  for (int a = 0; a < algos; ++a) {
    const double c = cost(rng), o = overhead(rng);
    const std::size_t ws = a == 0 ? 0 : ws_per_sample(rng);
    double previous = 0.0;
    for (std::size_t i = 0; i < table.sizes.size(); ++i) {
      const double b = static_cast<double>(table.sizes[i]);
      const double t = std::max(previous, c * (b + o) * noise(rng));
      previous = t;
      table.perfs[i].push_back({a, Status::kSuccess, t,
                                ws * static_cast<std::size_t>(table.sizes[i])});
    }
  }
  for (auto& perfs : table.perfs) {
    std::sort(perfs.begin(), perfs.end(),
              [](const auto& l, const auto& r) {
                return l.time_ms < r.time_ms;
              });
  }
  return table;
}

// The same table with nothing measured yet, as Benchmarker::table() builds
// it on a cold cache.
MicroBenchmark unmeasured(const MicroBenchmark& full) {
  MicroBenchmark lazy = full;
  lazy.bounded.resize(full.sizes.size());
  for (std::size_t i = 0; i < full.sizes.size(); ++i) {
    for (const auto& perf : full.perfs[i]) lazy.bounded[i].push_back(perf.algo);
  }
  lazy.derive_bounds();
  return lazy;
}

// Settles pairs with their timings from `full`, counting them.
struct Oracle {
  const MicroBenchmark& full;
  std::size_t measured = 0;

  void operator()(MicroBenchmark& lazy, const std::vector<BenchPair>& pairs) {
    for (const BenchPair& pair : pairs) {
      for (const auto& perf : full.perfs[pair.size_index]) {
        if (perf.algo == pair.algo) {
          lazy.settle(pair.size_index, pair.algo, perf.time_ms);
        }
      }
      ++measured;
    }
    lazy.derive_bounds();
  }
};

void expect_same_time(const Configuration& got, const Configuration& want) {
  EXPECT_NEAR(got.time_ms, want.time_ms, 1e-9 * want.time_ms);
  EXPECT_EQ(got.batch, want.batch);
}

void expect_all_measured(const MicroBenchmark& lazy,
                         const Configuration& config) {
  for (const MicroConfig& micro : config.micro) {
    const auto size =
        std::find(lazy.sizes.begin(), lazy.sizes.end(), micro.batch);
    ASSERT_NE(size, lazy.sizes.end());
    EXPECT_TRUE(lazy.measured(
        static_cast<std::size_t>(size - lazy.sizes.begin()), micro.algo))
        << micro.batch << ":algo" << micro.algo;
  }
}

std::size_t max_workspace(const MicroBenchmark& table) {
  std::size_t ws = 0;
  for (const auto& perfs : table.perfs) {
    for (const auto& perf : perfs) ws = std::max(ws, perf.memory);
  }
  return ws;
}

class LazyWrPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(LazyWrPropertyTest, MatchesTheFullTableOptimumAtEveryLimit) {
  const unsigned seed = GetParam();
  std::mt19937 rng(seed * 7919u);
  for (const BatchSizePolicy policy :
       {BatchSizePolicy::kPowerOfTwo, BatchSizePolicy::kAll}) {
    const std::int64_t batch = std::uniform_int_distribution<std::int64_t>(
        1, 48)(rng);
    const MicroBenchmark full = monotone_table(seed, batch, 5, policy);
    const std::size_t top = max_workspace(full);

    // Fresh tables at limit 0 and at random limits.
    std::vector<std::size_t> limits = {0, top};
    for (int k = 0; k < 4; ++k) {
      limits.push_back(std::uniform_int_distribution<std::size_t>(0, top)(rng));
    }
    for (const std::size_t limit : limits) {
      MicroBenchmark lazy = unmeasured(full);
      Oracle oracle{full};
      const Configuration got =
          plan_wr(lazy, batch, limit, std::ref(oracle));
      expect_same_time(got, optimize_wr(full, batch, limit));
      expect_all_measured(lazy, got);
      EXPECT_EQ(oracle.measured + lazy.bounded_count(),
                unmeasured(full).bounded_count());
    }

    // One table through a halving sequence, as the planner's degradation
    // loop reuses it after a failed workspace allocation.
    MicroBenchmark lazy = unmeasured(full);
    Oracle oracle{full};
    for (std::size_t limit = top;; limit /= 2) {
      const Configuration got = plan_wr(lazy, batch, limit, std::ref(oracle));
      expect_same_time(got, optimize_wr(full, batch, limit));
      expect_all_measured(lazy, got);
      if (limit == 0) break;
    }
  }
}

TEST_P(LazyWrPropertyTest, NeverTimesADominatedAlgorithmBeyondTheSmallestSize) {
  const unsigned seed = GetParam();
  MicroBenchmark full =
      monotone_table(seed, 32, 4, BatchSizePolicy::kPowerOfTwo);
  // Algorithm 9 fits any limit and is 100x slower than any other timing.
  double slowest = 0.0;
  for (const auto& perfs : full.perfs) {
    for (const auto& perf : perfs) slowest = std::max(slowest, perf.time_ms);
  }
  for (auto& perfs : full.perfs) {
    perfs.push_back({9, Status::kSuccess, 100.0 * slowest, 0});
  }
  for (const std::size_t limit : {std::size_t{0}, max_workspace(full)}) {
    MicroBenchmark lazy = unmeasured(full);
    const std::size_t pairs = lazy.bounded_count();
    Oracle oracle{full};
    const Configuration got = plan_wr(lazy, 32, limit, std::ref(oracle));
    expect_same_time(got, optimize_wr(full, 32, limit));
    EXPECT_LT(oracle.measured, pairs);
    for (std::size_t i = 1; i < lazy.sizes.size(); ++i) {
      EXPECT_FALSE(lazy.measured(i, 9)) << "size " << lazy.sizes[i];
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LazyWrPropertyTest,
                         ::testing::Range(1u, 13u));

// ---------------------------------------------------------- HostCpu handle

std::int64_t operand_count(ConvKernelType type, const ConvProblem& p,
                           int operand) {
  // Operand roles: a, b, out (see mcudnn::convolution).
  switch (type) {
    case ConvKernelType::kForward:
      return operand == 0 ? p.x.count() : operand == 1 ? p.w.count()
                                                       : p.y.count();
    case ConvKernelType::kBackwardData:
      return operand == 0 ? p.y.count() : operand == 1 ? p.w.count()
                                                       : p.x.count();
    case ConvKernelType::kBackwardFilter:
      return operand == 0 ? p.x.count() : operand == 1 ? p.y.count()
                                                       : p.w.count();
  }
  return 0;
}

int reference_algo(ConvKernelType type) {
  switch (type) {
    case ConvKernelType::kForward: return kernels::fwd_algo::kDirect;
    case ConvKernelType::kBackwardData: return kernels::bwd_data_algo::kAlgo0;
    case ConvKernelType::kBackwardFilter:
      return kernels::bwd_filter_algo::kAlgo0;
  }
  return 0;
}

constexpr ConvKernelType kTypes[] = {ConvKernelType::kForward,
                                     ConvKernelType::kBackwardData,
                                     ConvKernelType::kBackwardFilter};

// Runs every kernel type of `p` through a fresh HostCpu handle and checks
// each micro-batched output against the undivided reference and each
// chosen micro-configuration against a timing in the handle's cache.
std::vector<Configuration> run_handle(const Options& options,
                                      const ConvProblem& p) {
  auto cpu = std::make_shared<device::Device>(device::host_cpu_spec());
  UcudnnHandle handle(cpu, options);
  std::vector<Configuration> configs;
  for (const ConvKernelType type : kTypes) {
    std::vector<float> a(static_cast<std::size_t>(operand_count(type, p, 0)));
    std::vector<float> b(static_cast<std::size_t>(operand_count(type, p, 1)));
    const std::int64_t out_count = operand_count(type, p, 2);
    std::vector<float> out(static_cast<std::size_t>(out_count));
    std::vector<float> ref(out.size());
    fill_random(a.data(), static_cast<std::int64_t>(a.size()), 11);
    fill_random(b.data(), static_cast<std::int64_t>(b.size()), 12);
    handle.convolution(type, p, 1.0f, a.data(), b.data(), 0.0f, out.data());
    kernels::execute(type, reference_algo(type), p, a.data(), b.data(),
                     ref.data(), 1.0f, 0.0f, nullptr, 0);
    EXPECT_LT(max_rel_diff(out.data(), ref.data(), out_count), 5e-3)
        << to_string(type);

    const Configuration* config = handle.configuration_for(type, p);
    EXPECT_NE(config, nullptr);
    if (config == nullptr) continue;
    for (const MicroConfig& micro : config->micro) {
      const auto entry = handle.cache()->find(cpu->spec().name, type,
                                              p.with_batch(micro.batch));
      EXPECT_TRUE(entry.has_value()) << to_string(type) << " " << micro.batch;
      if (!entry) continue;
      const bool timed = std::any_of(
          entry->begin(), entry->end(),
          [&](const mcudnn::AlgoPerf& perf) {
            return perf.algo == micro.algo &&
                   perf.status == Status::kSuccess &&
                   perf.time_ms == micro.time_ms;
          });
      EXPECT_TRUE(timed) << to_string(type) << " " << micro.batch << ":algo"
                         << micro.algo << " planned on a bound";
    }
    configs.push_back(*config);
  }
  return configs;
}

std::uint64_t measured_pairs() {
  return telemetry::MetricsRegistry::instance()
      .counter("ucudnn.benchmark.measured")
      .value();
}

// Timed pairs the cache file holds for `p` (no fault is injected here, so
// every listed result is a timing).
std::size_t cached_pairs(const std::string& path, const ConvProblem& p) {
  BenchmarkCache cache;
  EXPECT_EQ(cache.load_file(path), CacheLoadResult::kLoaded);
  std::size_t n = 0;
  for (const ConvKernelType type : kTypes) {
    for (const std::int64_t size :
         candidate_micro_sizes(BatchSizePolicy::kPowerOfTwo, p.batch())) {
      const std::string& device = device::host_cpu_spec().name;
      if (auto entry = cache.find(device, type, p.with_batch(size))) {
        n += entry->size();
      }
    }
  }
  return n;
}

TEST(LazyBenchmarkHandleTest, PlansOnTimingsAndSharesThemThroughTheCache) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_lazy_handle.db")
          .string();
  std::remove(path.c_str());
  const ConvProblem p({8, 6, 10, 10}, {6, 6, 3, 3}, {.pad_h = 1, .pad_w = 1});
  Options options;
  options.workspace_policy = WorkspacePolicy::kWR;
  options.batch_size_policy = BatchSizePolicy::kPowerOfTwo;
  options.workspace_limit = std::size_t{1} << 20;
  options.cache_path = path;

  const std::uint64_t m0 = measured_pairs();
  const std::vector<Configuration> first = run_handle(options, p);
  const std::uint64_t m1 = measured_pairs();
  const std::size_t timed1 = cached_pairs(path, p);
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(m1 - m0, timed1);
  }

  // Same limit, shared cache: every needed pair is cached, so nothing is
  // timed and the plans are the same.
  const std::vector<Configuration> second = run_handle(options, p);
  EXPECT_EQ(measured_pairs(), m1);
  EXPECT_EQ(cached_pairs(path, p), timed1);
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t k = 0; k < first.size(); ++k) {
    EXPECT_EQ(second[k].micro, first[k].micro) << to_string(kTypes[k]);
  }

  // No workspace at all: the pairs the first plans skipped are timed now as
  // far as the new plans need them, and none is timed twice.
  options.workspace_limit = 0;
  const std::vector<Configuration> third = run_handle(options, p);
  for (const Configuration& config : third) EXPECT_EQ(config.workspace, 0u);
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(measured_pairs() - m1, cached_pairs(path, p) - timed1);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------------------------ cache

TEST(LazyBenchmarkCacheTest, PartialEntriesRoundTripAndComplete) {
  const ConvProblem p({8, 4, 10, 10}, {4, 4, 3, 3}, {.pad_h = 1, .pad_w = 1});
  BenchmarkCache cache;
  cache.merge("HostCpu", ConvKernelType::kForward, p,
              {{2, Status::kSuccess, 1.5, 4096},
               {5, Status::kExecutionFailed, -1.0, 0}});

  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_lazy_partial.db")
          .string();
  cache.save_file(path);
  BenchmarkCache loaded;
  ASSERT_EQ(loaded.load_file(path), CacheLoadResult::kLoaded);
  auto entry = loaded.find("HostCpu", ConvKernelType::kForward, p);
  ASSERT_TRUE(entry.has_value());
  ASSERT_EQ(entry->size(), 2u);
  EXPECT_EQ((*entry)[0].algo, 2);
  EXPECT_DOUBLE_EQ((*entry)[0].time_ms, 1.5);
  EXPECT_EQ((*entry)[1].status, Status::kExecutionFailed);

  // Later results join the entry, successes sorted by time; the failure
  // stays listed, so it is never evaluated again.
  loaded.merge("HostCpu", ConvKernelType::kForward, p,
               {{0, Status::kSuccess, 0.5, 0}});
  entry = loaded.find("HostCpu", ConvKernelType::kForward, p);
  ASSERT_TRUE(entry.has_value());
  ASSERT_EQ(entry->size(), 3u);
  EXPECT_EQ((*entry)[0].algo, 0);
  EXPECT_EQ((*entry)[1].algo, 2);
  EXPECT_EQ((*entry)[2].algo, 5);

  // Files written while entries carried a completeness flag mark some lines
  // "partial"; such a line loads as the same list.
  loaded.save_file(path);
  std::string text;
  {
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
      text += line + (line[0] == '#' ? "\n" : "\tpartial\n");
    }
  }
  std::ofstream(path) << text;
  BenchmarkCache legacy;
  ASSERT_EQ(legacy.load_file(path), CacheLoadResult::kLoaded);
  const auto legacy_entry =
      legacy.find("HostCpu", ConvKernelType::kForward, p);
  ASSERT_TRUE(legacy_entry.has_value());
  ASSERT_EQ(legacy_entry->size(), 3u);
  EXPECT_EQ((*legacy_entry)[2].status, Status::kExecutionFailed);
  std::remove(path.c_str());
}

TEST(LazyBenchmarkCacheTest, KeysEncodeDilationAndModeAndOldFilesMiss) {
  const ConvProblem p({8, 4, 10, 10}, {4, 4, 3, 3}, {.pad_h = 1, .pad_w = 1});
  ConvProblem dilated = p;
  dilated.geom.dilation_h = dilated.geom.dilation_w = 2;
  dilated = ConvProblem(dilated.x, dilated.w, dilated.geom);
  ConvProblem convolution = p;
  convolution.geom.mode = ConvMode::kConvolution;
  BenchmarkCache cache;
  cache.store("HostCpu", ConvKernelType::kForward, p,
              {{1, Status::kSuccess, 1.0, 0}});
  EXPECT_TRUE(cache.find("HostCpu", ConvKernelType::kForward, p));
  EXPECT_FALSE(cache.find("HostCpu", ConvKernelType::kForward, dilated));
  EXPECT_FALSE(cache.find("HostCpu", ConvKernelType::kForward, convolution));

  // A line keyed by the problem hash alone, as files were written before,
  // loads cleanly but is dropped: no lookup could match it, and a save must
  // not carry it along.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_lazy_hash_keys.db")
          .string();
  {
    std::ofstream out(path);
    out << "# ucudnn benchmark cache v1\n"
        << "HostCpu|Forward|" << std::hex << p.hash() << std::dec
        << "|4\t1:0:1:0\n";
  }
  BenchmarkCache loaded;
  EXPECT_EQ(loaded.load_file(path), CacheLoadResult::kLoaded);
  EXPECT_EQ(loaded.size(), 0u);
  EXPECT_FALSE(loaded.find("HostCpu", ConvKernelType::kForward, p));
  loaded.save_file(path);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    EXPECT_TRUE(line.empty() || line[0] == '#') << line;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ucudnn::core
