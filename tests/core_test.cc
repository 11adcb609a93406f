// Tests for μ-cuDNN's core: batch-size policies, the WR dynamic program
// (against brute force), Pareto/desirable-set properties (§III-C1 including
// the paper's optimality lemma), WD optimization, the benchmark cache, and
// the UcudnnHandle wrapper end-to-end (numeric equivalence of micro-batched
// execution, virtual-mode timing, workspace accounting).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <utility>

#include "common/timer.h"
#include "core/benchmark_cache.h"
#include "core/benchmarker.h"
#include "core/options.h"
#include "core/types.h"
#include "core/ucudnn.h"
#include "core/wd_optimizer.h"
#include "core/wr_optimizer.h"
#include "ilp/ilp.h"
#include "telemetry/metrics.h"
#include "tensor/tensor.h"

namespace ucudnn::core {
namespace {

using kernels::ConvProblem;

std::shared_ptr<device::Device> p100() {
  return std::make_shared<device::Device>(device::p100_sxm2_spec());
}

ConvProblem conv2_like(std::int64_t batch) {
  return ConvProblem({batch, 96, 27, 27}, {256, 96, 5, 5},
                     {.pad_h = 2, .pad_w = 2});
}

ConvProblem small_problem(std::int64_t batch) {
  return ConvProblem({batch, 8, 12, 12}, {8, 8, 3, 3}, {.pad_h = 1, .pad_w = 1});
}

Benchmarker make_benchmarker() {
  return Benchmarker(mcudnn::Handle(p100()),
                     std::make_shared<BenchmarkCache>());
}

// ---------------------------------------------------------------- policies

TEST(PolicyTest, CandidateSizes) {
  EXPECT_EQ(candidate_micro_sizes(BatchSizePolicy::kAll, 5),
            (std::vector<std::int64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(candidate_micro_sizes(BatchSizePolicy::kPowerOfTwo, 8),
            (std::vector<std::int64_t>{1, 2, 4, 8}));
  EXPECT_EQ(candidate_micro_sizes(BatchSizePolicy::kPowerOfTwo, 12),
            (std::vector<std::int64_t>{1, 2, 4, 8, 12}));
  EXPECT_EQ(candidate_micro_sizes(BatchSizePolicy::kUndivided, 7),
            (std::vector<std::int64_t>{7}));
  EXPECT_THROW(candidate_micro_sizes(BatchSizePolicy::kAll, 0), Error);
}

TEST(PolicyTest, Parsing) {
  EXPECT_EQ(parse_batch_size_policy("all"), BatchSizePolicy::kAll);
  EXPECT_EQ(parse_batch_size_policy("powerOfTwo"), BatchSizePolicy::kPowerOfTwo);
  EXPECT_EQ(parse_batch_size_policy("undivided"), BatchSizePolicy::kUndivided);
  EXPECT_THROW(parse_batch_size_policy("bogus"), Error);
  EXPECT_EQ(parse_workspace_policy("wr"), WorkspacePolicy::kWR);
  EXPECT_EQ(parse_workspace_policy("WD"), WorkspacePolicy::kWD);
  EXPECT_THROW(parse_workspace_policy("x"), Error);
}

TEST(ConfigurationTest, AppendAccumulates) {
  Configuration c;
  c.append({1, 64, 2.0, 100});
  c.append({2, 64, 3.0, 50});
  c.append({1, 128, 4.0, 80});
  EXPECT_EQ(c.batch, 256);
  EXPECT_DOUBLE_EQ(c.time_ms, 9.0);
  EXPECT_EQ(c.workspace, 100u);  // max, not sum: sequential reuse
  EXPECT_EQ(c.size(), 3u);
}

// ------------------------------------------------------------- benchmarker

TEST(BenchmarkerTest, ProducesTablePerCandidateSize) {
  Benchmarker bench = make_benchmarker();
  const auto table = bench.run(ConvKernelType::kForward, small_problem(8),
                               BatchSizePolicy::kPowerOfTwo);
  ASSERT_EQ(table.sizes.size(), 4u);  // 1, 2, 4, 8
  for (const auto& perfs : table.perfs) {
    EXPECT_FALSE(perfs.empty());
    for (const auto& perf : perfs) {
      EXPECT_EQ(perf.status, Status::kSuccess);
      EXPECT_GT(perf.time_ms, 0.0);
    }
  }
}

TEST(BenchmarkerTest, CachesResults) {
  Benchmarker bench = make_benchmarker();
  bench.run(ConvKernelType::kForward, small_problem(8),
            BatchSizePolicy::kPowerOfTwo);
  const std::size_t after_first = bench.cache()->size();
  EXPECT_EQ(after_first, 4u);
  bench.run(ConvKernelType::kForward, small_problem(8),
            BatchSizePolicy::kPowerOfTwo);
  EXPECT_EQ(bench.cache()->size(), after_first);  // no new entries
}

TEST(BenchmarkerTest, SimulatedTableSettlesAtOnceAndCountsOneRun) {
  // A simulated size's bounds are settled inside table() itself, through
  // the cache, and the whole table counts as one benchmark run.
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::instance();
  const telemetry::Counter runs = registry.counter("ucudnn.benchmark.runs");
  const telemetry::Histogram ms = registry.histogram("ucudnn.benchmark.ms");
  const std::uint64_t runs0 = runs.value();
  const std::uint64_t observed0 = ms.data().count;
  Benchmarker bench = make_benchmarker();
  const MicroBenchmark table = bench.table(
      ConvKernelType::kForward, small_problem(8), BatchSizePolicy::kPowerOfTwo);
  EXPECT_EQ(table.bounded_count(), 0u);
  EXPECT_EQ(bench.cache()->size(), table.sizes.size());
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(runs.value() - runs0, 1u);
    EXPECT_EQ(ms.data().count - observed0, 1u);
  }
}

TEST(BenchmarkerTest, HeterogeneousDevicesKeyResultsByMeasuringDevice) {
  // Two Benchmarkers on different device models share one cache. Each
  // measurement must land under its measuring device's name only: keyed any
  // other way, a run on one model silently reuses the other model's timings.
  const ConvProblem p = small_problem(8);
  auto k80 = std::make_shared<device::Device>(device::k80_spec());
  auto cache = std::make_shared<BenchmarkCache>();
  Benchmarker p100_bench(mcudnn::Handle(p100()), cache);
  Benchmarker k80_bench(mcudnn::Handle(k80), cache);

  const std::string p100_name = device::p100_sxm2_spec().name;
  const std::string k80_name = device::k80_spec().name;
  const auto p100_table =
      p100_bench.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  ASSERT_EQ(p100_table.sizes.size(), 4u);  // 1, 2, 4, 8
  for (const std::int64_t size : p100_table.sizes) {
    const ConvProblem micro = p.with_batch(size);
    EXPECT_TRUE(cache->find(p100_name, ConvKernelType::kForward, micro))
        << "size " << size;
    EXPECT_FALSE(cache->find(k80_name, ConvKernelType::kForward, micro))
        << "size " << size;
  }

  // The K80 run must measure afresh and carry genuine K80 timings.
  const auto k80_table =
      k80_bench.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  Benchmarker k80_only(mcudnn::Handle(k80), std::make_shared<BenchmarkCache>());
  const auto reference =
      k80_only.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  ASSERT_EQ(k80_table.sizes, reference.sizes);
  for (std::size_t i = 0; i < k80_table.sizes.size(); ++i) {
    ASSERT_EQ(k80_table.perfs[i].size(), reference.perfs[i].size());
    for (std::size_t j = 0; j < k80_table.perfs[i].size(); ++j) {
      EXPECT_EQ(k80_table.perfs[i][j].algo, reference.perfs[i][j].algo);
      EXPECT_DOUBLE_EQ(k80_table.perfs[i][j].time_ms,
                       reference.perfs[i][j].time_ms);
    }
    EXPECT_NE(k80_table.perfs[i][0].time_ms, p100_table.perfs[i][0].time_ms)
        << "size " << k80_table.sizes[i];
  }
}

TEST(BenchmarkerTest, HeterogeneousBlacklistFiltersPerDevice) {
  // Companion: the blacklist filter is keyed by the measuring device too. A
  // K80 blacklist entry in a shared cache must drop the algorithm from the
  // K80's table only, never from the P100's.
  const ConvProblem p = small_problem(8);
  auto p100_dev = p100();
  auto k80_dev = std::make_shared<device::Device>(device::k80_spec());

  // Pick an algorithm supported at every candidate size on both models.
  Benchmarker p100_ref(mcudnn::Handle(p100_dev),
                       std::make_shared<BenchmarkCache>());
  Benchmarker k80_ref(mcudnn::Handle(k80_dev),
                      std::make_shared<BenchmarkCache>());
  const auto ref_a =
      p100_ref.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  const auto ref_b =
      k80_ref.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  const auto supported_everywhere = [&](int algo) {
    for (const auto* table : {&ref_a, &ref_b}) {
      for (const auto& perfs : table->perfs) {
        if (std::none_of(
                perfs.begin(), perfs.end(),
                [&](const mcudnn::AlgoPerf& perf) { return perf.algo == algo; }))
          return false;
      }
    }
    return true;
  };
  int victim = -1;
  for (const auto& perf : ref_a.perfs[0]) {
    if (supported_everywhere(perf.algo)) {
      victim = perf.algo;
      break;
    }
  }
  ASSERT_NE(victim, -1) << "no algorithm common to all sizes on both models";

  auto cache = std::make_shared<BenchmarkCache>();
  cache->blacklist(device::k80_spec().name, ConvKernelType::kForward, victim);
  Benchmarker p100_bench(mcudnn::Handle(p100_dev), cache);
  Benchmarker k80_bench(mcudnn::Handle(k80_dev), cache);
  const auto has_victim = [&](const std::vector<mcudnn::AlgoPerf>& perfs) {
    return std::any_of(
        perfs.begin(), perfs.end(),
        [&](const mcudnn::AlgoPerf& perf) { return perf.algo == victim; });
  };
  const auto p100_table =
      p100_bench.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  const auto k80_table =
      k80_bench.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  for (std::size_t i = 0; i < p100_table.sizes.size(); ++i) {
    EXPECT_TRUE(has_victim(p100_table.perfs[i]))
        << "P100 size " << p100_table.sizes[i];
    EXPECT_FALSE(has_victim(k80_table.perfs[i]))
        << "K80 size " << k80_table.sizes[i];
  }
}

TEST(BenchmarkerTest, FullyBlacklistedCacheHitRebenchmarks) {
  // Regression: when the blacklist filtered a cached entry down to nothing,
  // the cache used to return the empty vector — a "hit" claiming the problem
  // supports no algorithms at all — and run() handed that empty table to the
  // optimizer. An entry that lists only blacklisted algorithms leaves the
  // unlisted ones unevaluated, so they must be benchmarked instead.
  const ConvProblem p = small_problem(8);
  Benchmarker fresh = make_benchmarker();
  const auto full =
      fresh.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);

  const std::string device = device::p100_sxm2_spec().name;
  auto cache = std::make_shared<BenchmarkCache>();
  std::set<int> blacklisted;
  for (std::size_t i = 0; i < full.sizes.size(); ++i) {
    ASSERT_GT(full.perfs[i].size(), 1u);  // re-benchmarking must find others
    cache->merge(device, ConvKernelType::kForward, p.with_batch(full.sizes[i]),
                 {full.perfs[i][0]});
    cache->blacklist(device, ConvKernelType::kForward, full.perfs[i][0].algo);
    blacklisted.insert(full.perfs[i][0].algo);
  }

  Benchmarker bench(mcudnn::Handle(p100()), cache);
  const auto table =
      bench.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  for (std::size_t i = 0; i < table.sizes.size(); ++i) {
    EXPECT_FALSE(table.perfs[i].empty()) << "size " << table.sizes[i];
    for (const auto& perf : table.perfs[i]) {
      EXPECT_EQ(blacklisted.count(perf.algo), 0u) << "algo " << perf.algo;
    }
  }
}

// ---------------------------------------------------------------------- WR

// Brute-force minimum over all ordered divisions of `batch` (small batches).
double brute_force_wr(const MicroBenchmark& bench, std::int64_t batch,
                      std::size_t ws_limit) {
  if (batch == 0) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < bench.sizes.size(); ++i) {
    if (bench.sizes[i] > batch) continue;
    double t_best = std::numeric_limits<double>::infinity();
    for (const auto& perf : bench.perfs[i]) {
      if (perf.memory <= ws_limit) t_best = std::min(t_best, perf.time_ms);
    }
    if (!std::isfinite(t_best)) continue;
    best = std::min(best,
                    t_best + brute_force_wr(bench, batch - bench.sizes[i],
                                            ws_limit));
  }
  return best;
}

TEST(WrOptimizerTest, MatchesBruteForce) {
  Benchmarker bench = make_benchmarker();
  const auto table = bench.run(ConvKernelType::kForward, conv2_like(12),
                               BatchSizePolicy::kAll);
  for (const std::size_t limit :
       {std::size_t{0}, std::size_t{1} << 20, std::size_t{16} << 20,
        std::size_t{256} << 20}) {
    const Configuration config = optimize_wr(table, 12, limit);
    EXPECT_EQ(config.batch, 12);
    EXPECT_LE(config.workspace, limit);
    const double expected = brute_force_wr(table, 12, limit);
    EXPECT_NEAR(config.time_ms, expected, 1e-9) << "limit=" << limit;
  }
}

TEST(WrOptimizerTest, UndividedMatchesCudnnChoice) {
  // With the undivided policy, WR must pick exactly what cuDNN's
  // GetAlgorithm picks for the same limit (§III-D).
  Benchmarker bench = make_benchmarker();
  mcudnn::Handle handle(p100());
  const ConvProblem p = conv2_like(64);
  const std::size_t limit = std::size_t{64} << 20;
  const auto table =
      bench.run(ConvKernelType::kForward, p, BatchSizePolicy::kUndivided);
  const Configuration config = optimize_wr(table, 64, limit);
  ASSERT_EQ(config.size(), 1u);
  EXPECT_EQ(config.micro[0].batch, 64);
  const int cudnn_algo = mcudnn::get_algorithm(
      handle, ConvKernelType::kForward, p,
      mcudnn::AlgoPreference::kSpecifyWorkspaceLimit, limit);
  EXPECT_EQ(config.micro[0].algo, cudnn_algo);
}

TEST(WrOptimizerTest, LargerLimitNeverSlower) {
  Benchmarker bench = make_benchmarker();
  const auto table = bench.run(ConvKernelType::kForward, conv2_like(32),
                               BatchSizePolicy::kPowerOfTwo);
  double prev = std::numeric_limits<double>::infinity();
  for (const std::size_t limit_mib : {1, 8, 64, 512}) {
    const Configuration config =
        optimize_wr(table, 32, std::size_t{limit_mib} << 20);
    EXPECT_LE(config.time_ms, prev + 1e-12) << limit_mib << " MiB";
    prev = config.time_ms;
  }
}

TEST(WrOptimizerTest, TightWorkspaceEnablesFasterAlgosViaSplitting) {
  // The headline effect: under a moderate limit, dividing the batch beats
  // the undivided (cuDNN-equivalent) choice.
  Benchmarker bench = make_benchmarker();
  const ConvProblem p = conv2_like(256);
  const std::size_t limit = std::size_t{64} << 20;
  const auto undivided_table =
      bench.run(ConvKernelType::kForward, p, BatchSizePolicy::kUndivided);
  const auto pow2_table =
      bench.run(ConvKernelType::kForward, p, BatchSizePolicy::kPowerOfTwo);
  const Configuration undivided = optimize_wr(undivided_table, 256, limit);
  const Configuration divided = optimize_wr(pow2_table, 256, limit);
  EXPECT_LT(divided.time_ms, undivided.time_ms);
  EXPECT_GT(divided.size(), 1u);
}

TEST(WrOptimizerTest, ZeroLimitFallsBackToZeroWorkspaceAlgos) {
  Benchmarker bench = make_benchmarker();
  const auto table = bench.run(ConvKernelType::kForward, small_problem(8),
                               BatchSizePolicy::kPowerOfTwo);
  const Configuration config = optimize_wr(table, 8, 0);
  EXPECT_EQ(config.workspace, 0u);
  for (const auto& micro : config.micro) EXPECT_EQ(micro.workspace, 0u);
}

// -------------------------------------------------------------- Pareto / WD

TEST(ParetoTest, PruneKeepsOnlyNonDominated) {
  std::vector<Configuration> configs;
  auto make = [](double time, std::size_t ws) {
    Configuration c;
    c.append({0, 1, time, ws});
    return c;
  };
  configs = {make(5, 100), make(3, 200), make(4, 150), make(6, 50),
             make(3.5, 400), make(2.9, 300)};
  pareto_prune(configs);
  // Expected front: (50,6), (100,5), (150,4), (200,3), (300,2.9).
  ASSERT_EQ(configs.size(), 5u);
  for (std::size_t i = 1; i < configs.size(); ++i) {
    EXPECT_GT(configs[i].workspace, configs[i - 1].workspace);
    EXPECT_LT(configs[i].time_ms, configs[i - 1].time_ms);
  }
}

TEST(ParetoTest, DesirableSetIsAParetoFront) {
  Benchmarker bench = make_benchmarker();
  const auto table = bench.run(ConvKernelType::kForward, conv2_like(64),
                               BatchSizePolicy::kPowerOfTwo);
  const auto front =
      desirable_configurations(table, 64, std::size_t{120} << 20);
  ASSERT_GE(front.size(), 2u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].workspace, front[i - 1].workspace);
    EXPECT_LT(front[i].time_ms, front[i - 1].time_ms);
    EXPECT_EQ(front[i].batch, 64);
  }
}

TEST(ParetoTest, FrontContainsTheWrOptimum) {
  // The paper notes D(B) contains the WR solution for any limit <= cap.
  Benchmarker bench = make_benchmarker();
  const auto table = bench.run(ConvKernelType::kForward, conv2_like(32),
                               BatchSizePolicy::kPowerOfTwo);
  const std::size_t cap = std::size_t{120} << 20;
  const auto front = desirable_configurations(table, 32, cap);
  for (const std::size_t limit_mib : {1, 8, 64, 120}) {
    const std::size_t limit = std::size_t{limit_mib} << 20;
    const Configuration wr = optimize_wr(table, 32, limit);
    // Best front element within the limit must match the WR optimum time.
    double best = std::numeric_limits<double>::infinity();
    for (const auto& config : front) {
      if (config.workspace <= limit) best = std::min(best, config.time_ms);
    }
    EXPECT_NEAR(best, wr.time_ms, 1e-9) << limit_mib << " MiB";
  }
}

TEST(WdOptimizerTest, RespectsTotalLimitAndAssignsDisjointSegments) {
  Benchmarker bench = make_benchmarker();
  std::vector<KernelRequest> requests;
  for (ConvKernelType type :
       {ConvKernelType::kForward, ConvKernelType::kBackwardData,
        ConvKernelType::kBackwardFilter}) {
    requests.push_back({type, conv2_like(64), "conv2"});
    requests.push_back({type, small_problem(64), "small"});
  }
  const std::size_t limit = std::size_t{100} << 20;
  const WdPlan plan = optimize_wd(bench, requests, limit,
                                  BatchSizePolicy::kPowerOfTwo);
  ASSERT_EQ(plan.assignments.size(), requests.size());
  EXPECT_LE(plan.total_workspace, limit);
  // Segments must be disjoint and in-bounds.
  for (std::size_t i = 0; i < plan.assignments.size(); ++i) {
    const auto& a = plan.assignments[i];
    EXPECT_LE(a.offset + a.config.workspace, plan.total_workspace);
    for (std::size_t j = i + 1; j < plan.assignments.size(); ++j) {
      const auto& b = plan.assignments[j];
      const bool disjoint = a.offset + a.config.workspace <= b.offset ||
                            b.offset + b.config.workspace <= a.offset;
      EXPECT_TRUE(disjoint) << i << " vs " << j;
    }
  }
}

TEST(WdOptimizerTest, DpAndIlpSolversAgree) {
  Benchmarker bench = make_benchmarker();
  std::vector<KernelRequest> requests = {
      {ConvKernelType::kForward, conv2_like(32), "a"},
      {ConvKernelType::kForward, small_problem(32), "b"},
      {ConvKernelType::kBackwardFilter, small_problem(32), "c"},
  };
  const std::size_t limit = std::size_t{60} << 20;
  // Both solvers see the same knapsack optimize_wd builds.
  const WdKnapsack knapsack = build_wd_knapsack(bench, requests, limit,
                                                BatchSizePolicy::kPowerOfTwo);
  const ilp::MckpResult dp = ilp::solve_mckp(knapsack.mckp);
  const ilp::IlpResult bb =
      ilp::solve_binary_ilp(ilp::mckp_to_ilp(knapsack.mckp));
  ASSERT_TRUE(dp.feasible);
  ASSERT_TRUE(bb.feasible);
  EXPECT_NEAR(dp.cost, bb.objective, 1e-6);
  // And the plan optimize_wd lays out realizes the DP optimum.
  const WdPlan plan =
      optimize_wd(bench, requests, limit, BatchSizePolicy::kPowerOfTwo);
  EXPECT_NEAR(plan.total_time_ms, dp.cost, 1e-6);
}

TEST(WdOptimizerTest, BeatsUniformWrSplitAtEqualTotalWorkspace) {
  // §IV-D: WD with total budget W outperforms WR giving each kernel W/K.
  Benchmarker bench = make_benchmarker();
  std::vector<KernelRequest> requests;
  // Kernels with very different appetite for workspace.
  requests.push_back({ConvKernelType::kForward, conv2_like(128), "hungry"});
  requests.push_back({ConvKernelType::kForward, small_problem(128), "modest"});
  requests.push_back(
      {ConvKernelType::kForward,
       ConvProblem({128, 16, 6, 6}, {16, 16, 1, 1}, {}), "tiny"});

  const std::size_t total = std::size_t{96} << 20;
  const WdPlan wd = optimize_wd(bench, requests, total,
                                BatchSizePolicy::kPowerOfTwo);

  double wr_total = 0.0;
  const std::size_t per_kernel = total / requests.size();
  for (const auto& request : requests) {
    const auto table = bench.run(request.type, request.problem,
                                 BatchSizePolicy::kPowerOfTwo);
    wr_total +=
        optimize_wr(table, request.problem.batch(), per_kernel).time_ms;
  }
  EXPECT_LE(wd.total_time_ms, wr_total + 1e-9);
}

TEST(WdOptimizerTest, ParetoPruningShrinksTheIlp) {
  Benchmarker bench = make_benchmarker();
  std::vector<KernelRequest> requests = {
      {ConvKernelType::kForward, conv2_like(64), "conv2"}};
  const WdPlan plan = optimize_wd(bench, requests, std::size_t{120} << 20,
                                  BatchSizePolicy::kPowerOfTwo);
  EXPECT_GT(plan.num_variables, 0u);
  EXPECT_LT(plan.num_variables, 100u);  // paper: max 68 for AlexNet layers
}

// -------------------------------------------------------------------- cache

TEST(BenchmarkCacheTest, FileRoundTrip) {
  BenchmarkCache cache;
  const ConvProblem p = small_problem(8);
  std::vector<mcudnn::AlgoPerf> perfs(2);
  perfs[0] = {3, Status::kSuccess, 1.25, 4096};
  perfs[1] = {1, Status::kSuccess, 2.5, 0};
  cache.merge("P100-SXM2", ConvKernelType::kForward, p, perfs);

  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_cache_test.db")
          .string();
  cache.save_file(path);

  BenchmarkCache loaded;
  EXPECT_EQ(loaded.load_file(path), CacheLoadResult::kLoaded);
  EXPECT_EQ(loaded.size(), 1u);
  const auto hit = loaded.find("P100-SXM2", ConvKernelType::kForward, p);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), 2u);
  EXPECT_EQ((*hit)[0].algo, 3);
  EXPECT_DOUBLE_EQ((*hit)[0].time_ms, 1.25);
  EXPECT_EQ((*hit)[1].memory, 0u);
  std::remove(path.c_str());
}

TEST(BenchmarkCacheTest, KeysDistinguishEverything) {
  // An entry is the micro problem it timed: the batch it was cut from is not
  // part of the key, and every other field of the problem is.
  constexpr ConvKernelType kFwd = ConvKernelType::kForward;
  BenchmarkCache cache;
  const ConvProblem p = small_problem(8);
  const std::vector<mcudnn::AlgoPerf> perfs(1);
  cache.store("P100-SXM2", kFwd, p, perfs);
  EXPECT_TRUE(cache.find("P100-SXM2", kFwd, p));
  EXPECT_TRUE(cache.find("P100-SXM2", kFwd, small_problem(16).with_batch(8)));
  EXPECT_FALSE(cache.find("K80", kFwd, p));
  EXPECT_FALSE(cache.find("P100-SXM2", ConvKernelType::kBackwardData, p));
  EXPECT_FALSE(cache.find("P100-SXM2", kFwd, p.with_batch(4)));
  // Copies that differ in one geometry field each (the grouped one is not
  // a valid problem; the key is read field by field all the same).
  ConvProblem dilated = p, grouped = p, convolution = p;
  dilated.geom.dilation_w = 2;
  grouped.geom.groups = 2;
  convolution.geom.mode = ConvMode::kConvolution;
  for (const ConvProblem& q : {dilated, grouped, convolution}) {
    EXPECT_FALSE(cache.find("P100-SXM2", kFwd, q));
  }
}

TEST(BenchmarkCacheTest, OldFormatKeysLoadAsMicroProblems) {
  // Keys used to spell the parent problem and end in the micro size. Two
  // such lines for one micro problem (size 4 cut from batch 16 and from
  // batch 4) load as one entry, combined by merge()'s rule.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_old_keys.db").string();
  {
    std::ofstream out(path);
    out << "# ucudnn benchmark cache v1\n"
        << "P100-SXM2|Forward|x16,8,12,12|w8,8,3,3|p1,1|s1,1|d1,1|g1|m0|4"
        << "\t3:0:1.25:4096,0:0:2.5:0\n"
        << "P100-SXM2|Forward|x4,8,12,12|w8,8,3,3|p1,1|s1,1|d1,1|g1|m0|4"
        << "\t1:0:2:0,0:0:2.25:0\n";
  }
  BenchmarkCache cache;
  ASSERT_EQ(cache.load_file(path), CacheLoadResult::kLoaded);
  EXPECT_EQ(cache.size(), 1u);
  const auto entry =
      cache.find("P100-SXM2", ConvKernelType::kForward, small_problem(4));
  ASSERT_TRUE(entry.has_value());
  ASSERT_EQ(entry->size(), 3u);
  EXPECT_EQ((*entry)[0].algo, 3);
  EXPECT_EQ((*entry)[1].algo, 1);
  EXPECT_EQ((*entry)[2].algo, 0);  // the later line's timing replaced 2.5
  EXPECT_DOUBLE_EQ((*entry)[2].time_ms, 2.25);

  cache.save_file(path);
  std::ifstream in(path);
  std::string header, line, rest;
  std::getline(in, header);
  std::getline(in, line);
  EXPECT_EQ(line.substr(0, line.find('\t')),
            "P100-SXM2|Forward|x4,8,12,12|w8,8,3,3|p1,1|s1,1|d1,1|g1|m0");
  EXPECT_FALSE(std::getline(in, rest));
  in.close();

  // A trailing field that is not a micro size is corruption.
  std::ofstream(path) << "P100-SXM2|Forward|x4,8,12,12|w8,8,3,3|p1,1|s1,1|"
                         "d1,1|g1|m0|four\t1:0:2:0\n";
  BenchmarkCache damaged;
  EXPECT_EQ(damaged.load_file(path), CacheLoadResult::kQuarantined);
  EXPECT_EQ(damaged.size(), 0u);
  std::remove((path + ".corrupt").c_str());
}

TEST(BenchmarkCacheTest, MissingFileIgnoredMalformedQuarantined) {
  BenchmarkCache cache;
  EXPECT_EQ(cache.load_file("/nonexistent/ucudnn.db"),
            CacheLoadResult::kMissing);
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_bad.db").string();
  {
    std::ofstream out(path);
    out << "garbage-without-tab\n";
  }
  // A damaged database must never abort a run: it is renamed aside with a
  // warning and the cache stays empty.
  EXPECT_EQ(cache.load_file(path), CacheLoadResult::kQuarantined);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
  std::remove((path + ".corrupt").c_str());

  // A well-formed line whose value field carries trailing garbage is
  // corruption too — it must quarantine, not load a truncated entry. So is
  // a success with a negative time, a status outside the enum, or a signed
  // (wrapped) workspace size.
  for (const char* perfs : {"0:0:1.5:64junk", "0:0:-1.5:64", "0:99:1.5:64",
                            "0:0:1.5:-1"}) {
    std::ofstream(path) << "somekey\t" << perfs << "\n";
    EXPECT_EQ(cache.load_file(path), CacheLoadResult::kQuarantined) << perfs;
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(std::filesystem::exists(path + ".corrupt"));
    std::remove((path + ".corrupt").c_str());
  }
}

TEST(BenchmarkCacheTest, EncodeDecodeEmpty) {
  EXPECT_TRUE(BenchmarkCache::decode_perfs("").empty());
  EXPECT_EQ(BenchmarkCache::encode_perfs({}), "");
}

TEST(BenchmarkCacheTest, DecodeRejectsTrailingGarbage) {
  // Regression: operator>> stops at the first non-numeric byte without
  // setting failbit, so "64junk" used to decode as memory=64 with the junk
  // silently dropped — a damaged entry loaded as if it were intact.
  const auto one = BenchmarkCache::decode_perfs("0:0:1.5:64");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].memory, 64u);
  EXPECT_EQ(BenchmarkCache::decode_perfs("3:0:1.25:4096,1:0:2.5:0").size(), 2u);
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:0:1.5:64junk"), Error);
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:0:1.5:64 "), Error);
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:0:1.5junk:64"), Error);
  // Values outside the entry's domain: a successful negative or infinite
  // time, a status the enum does not have, a signed workspace size.
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:0:-1.5:64"), Error);
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:0:1e999:64"), Error);
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:99:1.5:64"), Error);
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:-1:1.5:64"), Error);
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:0:1.5:-1"), Error);
  EXPECT_THROW(BenchmarkCache::decode_perfs("0:0:1.5:+1"), Error);
  // A failure keeps AlgoPerf's -1 time.
  EXPECT_EQ(BenchmarkCache::decode_perfs("5:8:-1:0")[0].status,
            Status::kExecutionFailed);
}

// ------------------------------------------------------------------ options

TEST(OptionsTest, EnvRoundTrip) {
  ::setenv("UCUDNN_BATCH_SIZE_POLICY", "all", 1);
  ::setenv("UCUDNN_WORKSPACE_POLICY", "wd", 1);
  ::setenv("UCUDNN_WORKSPACE_LIMIT", "64M", 1);
  ::setenv("UCUDNN_TOTAL_WORKSPACE_SIZE", "120M", 1);
  const Options opts = Options::from_env();
  EXPECT_EQ(opts.batch_size_policy, BatchSizePolicy::kAll);
  EXPECT_EQ(opts.workspace_policy, WorkspacePolicy::kWD);
  ASSERT_TRUE(opts.workspace_limit.has_value());
  EXPECT_EQ(*opts.workspace_limit, std::size_t{64} << 20);
  EXPECT_EQ(opts.total_workspace_size, std::size_t{120} << 20);
  for (const char* name :
       {"UCUDNN_BATCH_SIZE_POLICY", "UCUDNN_WORKSPACE_POLICY",
        "UCUDNN_WORKSPACE_LIMIT", "UCUDNN_TOTAL_WORKSPACE_SIZE"}) {
    ::unsetenv(name);
  }
  const Options defaults = Options::from_env();
  EXPECT_EQ(defaults.batch_size_policy, BatchSizePolicy::kPowerOfTwo);
  EXPECT_EQ(defaults.workspace_policy, WorkspacePolicy::kWR);
  EXPECT_FALSE(defaults.workspace_limit.has_value());
}

TEST(OptionsTest, OutOfRangeValuesAreRejectedNotNarrowed) {
  // Cast to int, 2^32 reads as 0 and 2^32 + 2 as 2; as a size, -1 reads as
  // 2^64 - 1. Each must be rejected instead.
  const std::pair<const char*, const char*> bad[] = {
      {"UCUDNN_MAX_RETRIES", "4294967296"},
      {"UCUDNN_MAX_RETRIES", "4294967298"},
      {"UCUDNN_WORKSPACE_LIMIT", "-1"},
      {"UCUDNN_TOTAL_WORKSPACE_SIZE", "-1"},
  };
  for (const auto& [name, value] : bad) {
    ::setenv(name, value, 1);
    try {
      Options::from_env();
      ADD_FAILURE() << name << "=" << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.status(), Status::kInvalidValue) << name << "=" << value;
    }
    ::unsetenv(name);
  }
}

// ------------------------------------------------------------ UcudnnHandle

Options wr_options(std::size_t limit, BatchSizePolicy policy) {
  Options opts;
  opts.batch_size_policy = policy;
  opts.workspace_limit = limit;
  return opts;
}

TEST(UcudnnHandleTest, ReportsZeroWorkspaceAndVirtualAlgo) {
  UcudnnHandle handle(p100(), wr_options(64 << 20, BatchSizePolicy::kPowerOfTwo));
  const ConvProblem p = conv2_like(64);
  EXPECT_EQ(handle.workspace_size(ConvKernelType::kForward, p, 5), 0u);
  EXPECT_EQ(handle.get_algorithm(ConvKernelType::kForward, p,
                                 mcudnn::AlgoPreference::kSpecifyWorkspaceLimit,
                                 8 << 20),
            kVirtualAlgo);
  EXPECT_EQ(handle.recorded_kernels().size(), 1u);
}

TEST(UcudnnHandleTest, CastOperatorExposesBaseHandle) {
  UcudnnHandle handle(p100(), wr_options(64 << 20, BatchSizePolicy::kPowerOfTwo));
  mcudnn::Handle& base = handle;  // the paper's integration trick
  EXPECT_EQ(base.device().spec().name, "P100-SXM2");
}

TEST(UcudnnHandleTest, MicroBatchedNumericEqualsUndivided) {
  // End-to-end numeric check on the host CPU: the wrapper's micro-batched
  // execution must match a plain full-batch convolution bit-for-tolerance.
  auto cpu = std::make_shared<device::Device>(device::host_cpu_spec());
  UcudnnHandle handle(cpu, wr_options(std::size_t{1} << 20,
                                      BatchSizePolicy::kPowerOfTwo));
  const ConvProblem p({8, 6, 10, 10}, {6, 6, 3, 3}, {.pad_h = 1, .pad_w = 1});

  Tensor x(p.x), w(TensorShape{p.w.k, p.w.c, p.w.r, p.w.s});
  Tensor y(p.y), y_ref(p.y), dy(p.y), dx(p.x), dx_ref(p.x);
  Tensor dw(TensorShape{p.w.k, p.w.c, p.w.r, p.w.s});
  Tensor dw_ref(TensorShape{p.w.k, p.w.c, p.w.r, p.w.s});
  fill_random(x, 1);
  fill_random(w, 2);
  fill_random(dy, 3);

  handle.convolution(ConvKernelType::kForward, p, 1.0f, x.data(), w.data(),
                     0.0f, y.data());
  handle.convolution(ConvKernelType::kBackwardData, p, 1.0f, dy.data(),
                     w.data(), 0.0f, dx.data());
  handle.convolution(ConvKernelType::kBackwardFilter, p, 1.0f, x.data(),
                     dy.data(), 0.0f, dw.data());

  kernels::execute(ConvKernelType::kForward, kernels::fwd_algo::kDirect, p,
                   x.data(), w.data(), y_ref.data(), 1.0f, 0.0f, nullptr, 0);
  kernels::execute(ConvKernelType::kBackwardData, kernels::bwd_data_algo::kAlgo0,
                   p, dy.data(), w.data(), dx_ref.data(), 1.0f, 0.0f, nullptr,
                   0);
  kernels::execute(ConvKernelType::kBackwardFilter,
                   kernels::bwd_filter_algo::kAlgo0, p, x.data(), dy.data(),
                   dw_ref.data(), 1.0f, 0.0f, nullptr, 0);

  EXPECT_LT(max_rel_diff(y.data(), y_ref.data(), p.y.count()), 5e-3);
  EXPECT_LT(max_rel_diff(dx.data(), dx_ref.data(), p.x.count()), 5e-3);
  EXPECT_LT(max_rel_diff(dw.data(), dw_ref.data(), p.w.count()), 5e-3);
}

TEST(UcudnnHandleTest, VirtualExecutionIsFasterWithLargerLimit) {
  // Modeled iteration time must improve when the workspace limit loosens.
  const ConvProblem p = conv2_like(256);
  double tight_ms = 0.0, loose_ms = 0.0;
  for (const bool loose : {false, true}) {
    auto dev = p100();
    UcudnnHandle handle(
        dev, wr_options(loose ? (std::size_t{512} << 20) : (1 << 20),
                        BatchSizePolicy::kPowerOfTwo));
    handle.convolution(ConvKernelType::kForward, p, 1.0f, nullptr, nullptr,
                       0.0f, nullptr);
    (loose ? loose_ms : tight_ms) = dev->clock_ms();
  }
  EXPECT_LT(loose_ms, tight_ms);
}

TEST(UcudnnHandleTest, WorkspaceIsAllocatedOnDeviceAndBounded) {
  auto dev = p100();
  const std::size_t limit = std::size_t{64} << 20;
  UcudnnHandle handle(dev, wr_options(limit, BatchSizePolicy::kPowerOfTwo));
  const ConvProblem p = conv2_like(256);
  handle.convolution(ConvKernelType::kForward, p, 1.0f, nullptr, nullptr, 0.0f,
                     nullptr);
  const Configuration* config =
      handle.configuration_for(ConvKernelType::kForward, p);
  ASSERT_NE(config, nullptr);
  EXPECT_LE(config->workspace, limit);
  EXPECT_EQ(dev->bytes_in_use(), config->workspace);
}

TEST(UcudnnHandleTest, WdEndToEnd) {
  auto dev = p100();
  Options opts;
  opts.workspace_policy = WorkspacePolicy::kWD;
  opts.total_workspace_size = std::size_t{120} << 20;
  opts.batch_size_policy = BatchSizePolicy::kPowerOfTwo;
  UcudnnHandle handle(dev, opts);

  std::vector<ConvProblem> problems = {conv2_like(64), small_problem(64)};
  for (const auto& p : problems) {
    for (ConvKernelType type :
         {ConvKernelType::kForward, ConvKernelType::kBackwardData,
          ConvKernelType::kBackwardFilter}) {
      handle.get_algorithm(type, p, mcudnn::AlgoPreference::kPreferFastest,
                           0);
    }
  }
  EXPECT_EQ(handle.recorded_kernels().size(), 6u);
  EXPECT_FALSE(handle.wd_finalized());

  // First convolution triggers WD optimization.
  handle.convolution(ConvKernelType::kForward, problems[0], 1.0f, nullptr,
                     nullptr, 0.0f, nullptr);
  ASSERT_TRUE(handle.wd_finalized());
  const WdPlan* plan = handle.wd_plan();
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->assignments.size(), 6u);
  EXPECT_LE(plan->total_workspace, opts.total_workspace_size);
  EXPECT_EQ(dev->usage_by_tag().at("wd_arena"), plan->total_workspace);

  // All kernels runnable afterwards.
  for (const auto& p : problems) {
    handle.convolution(ConvKernelType::kBackwardData, p, 1.0f, nullptr,
                       nullptr, 0.0f, nullptr);
    handle.convolution(ConvKernelType::kBackwardFilter, p, 1.0f, nullptr,
                       nullptr, 0.0f, nullptr);
  }
  // Post-finalization queries are ignored but harmless.
  EXPECT_EQ(handle.get_algorithm(ConvKernelType::kForward, problems[0],
                                 mcudnn::AlgoPreference::kPreferFastest, 0),
            kVirtualAlgo);
}

TEST(UcudnnHandleTest, WdNumericCorrectness) {
  auto cpu = std::make_shared<device::Device>(device::host_cpu_spec());
  Options opts;
  opts.workspace_policy = WorkspacePolicy::kWD;
  opts.total_workspace_size = std::size_t{4} << 20;
  opts.batch_size_policy = BatchSizePolicy::kPowerOfTwo;
  UcudnnHandle handle(cpu, opts);

  const ConvProblem p({6, 4, 9, 9}, {5, 4, 3, 3}, {.pad_h = 1, .pad_w = 1});
  handle.get_algorithm(ConvKernelType::kForward, p,
                       mcudnn::AlgoPreference::kPreferFastest, 0);

  Tensor x(p.x), w(TensorShape{p.w.k, p.w.c, p.w.r, p.w.s}), y(p.y), y_ref(p.y);
  fill_random(x, 4);
  fill_random(w, 5);
  handle.convolution(ConvKernelType::kForward, p, 1.0f, x.data(), w.data(),
                     0.0f, y.data());
  kernels::execute(ConvKernelType::kForward, kernels::fwd_algo::kDirect, p,
                   x.data(), w.data(), y_ref.data(), 1.0f, 0.0f, nullptr, 0);
  EXPECT_LT(max_rel_diff(y.data(), y_ref.data(), p.y.count()), 5e-3);
}

TEST(UcudnnHandleTest, OptimizationTimersAdvance) {
  UcudnnHandle handle(p100(), wr_options(64 << 20, BatchSizePolicy::kAll));
  handle.convolution(ConvKernelType::kForward, conv2_like(64), 1.0f, nullptr,
                     nullptr, 0.0f, nullptr);
  EXPECT_GT(handle.total_benchmark_ms(), 0.0);
  EXPECT_GE(handle.total_optimize_ms(), 0.0);
}

TEST(UcudnnHandleTest, WdOptimizeTimeExcludesBenchmarking) {
  // finalize_wd benchmarks every recorded kernel on a fresh handle; that time
  // belongs to total_benchmark_ms alone, so the two timers cannot add up to
  // more than the call took.
  Options opts;
  opts.workspace_policy = WorkspacePolicy::kWD;
  opts.total_workspace_size = std::size_t{120} << 20;
  opts.batch_size_policy = BatchSizePolicy::kAll;
  UcudnnHandle handle(p100(), opts);
  for (ConvKernelType type :
       {ConvKernelType::kForward, ConvKernelType::kBackwardData,
        ConvKernelType::kBackwardFilter}) {
    handle.get_algorithm(type, conv2_like(64),
                         mcudnn::AlgoPreference::kPreferFastest, 0);
  }
  ASSERT_EQ(handle.total_benchmark_ms(), 0.0);
  Timer timer;
  handle.finalize_wd();
  const double wall_ms = timer.elapsed_ms();
  ASSERT_TRUE(handle.wd_finalized());
  EXPECT_GT(handle.total_benchmark_ms(), 0.0);
  EXPECT_GE(handle.total_optimize_ms(), 0.0);
  EXPECT_LE(handle.total_optimize_ms() + handle.total_benchmark_ms(), wall_ms);
}

TEST(UcudnnHandleTest, CudnnShapedStatusApi) {
  UcudnnHandle handle(p100(), wr_options(64 << 20, BatchSizePolicy::kPowerOfTwo));
  const TensorDesc x{{64, 96, 27, 27}};
  const FilterDesc w{256, 96, 5, 5};
  const ConvGeometry conv{.pad_h = 2, .pad_w = 2};
  const TensorDesc y{{64, 256, 27, 27}};

  std::size_t bytes = 123;
  EXPECT_EQ(mcudnnGetConvolutionWorkspaceSize(handle, ConvKernelType::kForward,
                                              x, w, conv, y, 0, &bytes),
            Status::kSuccess);
  EXPECT_EQ(bytes, 0u);  // μ-cuDNN reports zero workspace
  int algo = -1;
  EXPECT_EQ(mcudnnGetConvolutionAlgorithm(
                handle, ConvKernelType::kForward, x, w, conv, y,
                mcudnn::AlgoPreference::kSpecifyWorkspaceLimit, 8 << 20, &algo),
            Status::kSuccess);
  EXPECT_EQ(algo, kVirtualAlgo);
  EXPECT_EQ(mcudnnConvolutionForward(handle, 1.0f, x, nullptr, w, nullptr,
                                     conv, algo, nullptr, 0, 0.0f, y, nullptr),
            Status::kSuccess);  // virtual mode: null data is fine
}

}  // namespace
}  // namespace ucudnn::core
