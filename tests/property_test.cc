// Property-based suites over SYNTHETIC benchmark tables: the WR dynamic
// program and the desirable-set construction are checked against brute-force
// enumeration on randomized instances, including the paper's §III-C1
// optimality lemma (pruning never loses the ILP optimum). Synthetic tables
// decouple these checks from the device model, so they exercise the
// optimizer's combinatorial core directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "core/types.h"
#include "core/wd_optimizer.h"
#include "core/wr_optimizer.h"
#include "ilp/ilp.h"

namespace ucudnn::core {
namespace {

// Builds a random benchmark table: `sizes` micro sizes 1..batch, each with
// `algos` micro-configurations of random time and workspace. Per-sample
// times shrink with size (realistic batching efficiency) plus noise.
MicroBenchmark random_table(unsigned seed, std::int64_t batch, int algos,
                            BatchSizePolicy policy) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> noise(0.7, 1.3);
  std::uniform_real_distribution<double> base_cost(0.5, 4.0);
  std::uniform_int_distribution<std::int64_t> ws_per_sample(0, 1000);

  MicroBenchmark table;
  table.sizes = candidate_micro_sizes(policy, batch);
  table.perfs.resize(table.sizes.size());
  std::vector<double> algo_cost(static_cast<std::size_t>(algos));
  std::vector<std::int64_t> algo_ws(static_cast<std::size_t>(algos));
  for (int a = 0; a < algos; ++a) {
    algo_cost[static_cast<std::size_t>(a)] = base_cost(rng);
    algo_ws[static_cast<std::size_t>(a)] = ws_per_sample(rng);
  }
  for (std::size_t i = 0; i < table.sizes.size(); ++i) {
    const double b = static_cast<double>(table.sizes[i]);
    for (int a = 0; a < algos; ++a) {
      mcudnn::AlgoPerf perf;
      perf.algo = a;
      perf.status = Status::kSuccess;
      perf.time_ms = algo_cost[static_cast<std::size_t>(a)] *
                     (b + 3.0) *  // fixed overhead + linear term
                     noise(rng);
      perf.memory = static_cast<std::size_t>(
          algo_ws[static_cast<std::size_t>(a)] * table.sizes[i]);
      table.perfs[i].push_back(perf);
    }
    std::sort(table.perfs[i].begin(), table.perfs[i].end(),
              [](const auto& l, const auto& r) { return l.time_ms < r.time_ms; });
  }
  return table;
}

double brute_force_wr(const MicroBenchmark& table, std::int64_t batch,
                      std::size_t limit) {
  if (batch == 0) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < table.sizes.size(); ++i) {
    if (table.sizes[i] > batch) continue;
    for (const auto& perf : table.perfs[i]) {
      if (perf.memory > limit) continue;
      best = std::min(best, perf.time_ms +
                                brute_force_wr(table, batch - table.sizes[i],
                                               limit));
      break;  // perfs sorted by time: first fitting one is the best
    }
  }
  return best;
}

class WrPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(WrPropertyTest, DpMatchesBruteForceOnRandomTables) {
  const unsigned seed = GetParam();
  const std::int64_t batch = 7 + (seed % 6);
  const auto table = random_table(seed, batch, 3 + seed % 3,
                                  BatchSizePolicy::kAll);
  for (const std::size_t limit : {std::size_t{0}, std::size_t{500},
                                  std::size_t{2000}, std::size_t{100000}}) {
    const double expected = brute_force_wr(table, batch, limit);
    if (!std::isfinite(expected)) {
      EXPECT_THROW(optimize_wr(table, batch, limit), Error);
      continue;
    }
    const Configuration config = optimize_wr(table, batch, limit);
    EXPECT_NEAR(config.time_ms, expected, 1e-9) << "limit " << limit;
    EXPECT_EQ(config.batch, batch);
    EXPECT_LE(config.workspace, limit);
  }
}

// Appends (workspace, time) of every division of `remaining` samples into
// `micros[first..]`, each multiset of micro-configurations once.
void enumerate_divisions(const std::vector<MicroConfig>& micros,
                         std::size_t first, std::int64_t remaining,
                         double time, std::size_t ws,
                         std::vector<std::pair<std::size_t, double>>& out) {
  if (remaining == 0) {
    out.emplace_back(ws, time);
    return;
  }
  for (std::size_t j = first; j < micros.size(); ++j) {
    if (micros[j].batch > remaining) continue;
    enumerate_divisions(micros, j, remaining - micros[j].batch,
                        time + micros[j].time_ms,
                        std::max(ws, micros[j].workspace), out);
  }
}

// The Pareto set of all divisions within `cap`, as (workspace, time) sorted
// by workspace ascending with strictly decreasing time.
std::vector<std::pair<std::size_t, double>> brute_force_front(
    const MicroBenchmark& table, std::int64_t batch, std::size_t cap) {
  std::vector<MicroConfig> micros;
  for (std::size_t i = 0; i < table.sizes.size(); ++i) {
    for (const auto& perf : table.perfs[i]) {
      if (perf.memory > cap) continue;
      micros.push_back(
          MicroConfig{perf.algo, table.sizes[i], perf.time_ms, perf.memory});
    }
  }
  std::vector<std::pair<std::size_t, double>> all;
  enumerate_divisions(micros, 0, batch, 0.0, 0, all);
  std::sort(all.begin(), all.end());
  std::vector<std::pair<std::size_t, double>> front;
  for (const auto& point : all) {
    if (front.empty() || point.second < front.back().second) {
      front.push_back(point);
    }
  }
  return front;
}

TEST_P(WrPropertyTest, FrontIsParetoAndCoversEveryLimit) {
  const unsigned seed = GetParam();
  const std::int64_t batch = 6 + (seed % 5);
  const auto table = random_table(seed * 131, batch, 4,
                                  BatchSizePolicy::kAll);
  // The same table with every workspace one byte larger: no division fits a
  // limit of 0, so the walk down the front must end on infeasibility.
  const MicroBenchmark no_zero_ws = [&] {
    MicroBenchmark shifted = table;
    for (auto& perfs : shifted.perfs) {
      for (auto& perf : perfs) perf.memory += 1;
    }
    return shifted;
  }();
  EXPECT_THROW(optimize_wr(no_zero_ws, batch, 0), Error);

  for (const MicroBenchmark* t : {&table, &no_zero_ws}) {
    // 50000 admits every division; 3000 cuts the front short.
    for (const std::size_t cap : {std::size_t{50000}, std::size_t{3000}}) {
      std::vector<Configuration> front;
      ASSERT_NO_THROW(front = desirable_configurations(*t, batch, cap));
      ASSERT_FALSE(front.empty());
      // Pareto structure.
      for (std::size_t i = 1; i < front.size(); ++i) {
        EXPECT_GT(front[i].workspace, front[i - 1].workspace);
        EXPECT_LT(front[i].time_ms, front[i - 1].time_ms);
      }
      // Each element is internally consistent.
      for (const auto& config : front) {
        EXPECT_EQ(config.batch, batch);
        double time = 0.0;
        std::size_t ws = 0;
        for (const auto& micro : config.micro) {
          time += micro.time_ms;
          ws = std::max(ws, micro.workspace);
        }
        EXPECT_NEAR(config.time_ms, time, 1e-9);
        EXPECT_EQ(config.workspace, ws);
        EXPECT_LE(config.workspace, cap);
      }
      // Every Pareto point of the brute-force enumeration is in the front.
      const auto expected = brute_force_front(*t, batch, cap);
      ASSERT_EQ(front.size(), expected.size()) << "cap " << cap;
      for (std::size_t i = 0; i < front.size(); ++i) {
        EXPECT_EQ(front[i].workspace, expected[i].first) << "entry " << i;
        EXPECT_NEAR(front[i].time_ms, expected[i].second, 1e-9)
            << "entry " << i;
      }
      // The front answers every WR query: best-within-limit == WR optimum.
      for (const std::size_t limit : {std::size_t{300}, std::size_t{1500},
                                      std::size_t{20000}, cap}) {
        const double expected_time =
            brute_force_wr(*t, batch, std::min(limit, cap));
        double from_front = std::numeric_limits<double>::infinity();
        for (const auto& config : front) {
          if (config.workspace <= limit) {
            from_front = std::min(from_front, config.time_ms);
          }
        }
        if (std::isfinite(expected_time)) {
          EXPECT_NEAR(from_front, expected_time, 1e-9) << "limit " << limit;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WrPropertyTest,
                         ::testing::Range(0u, 12u));

// The §III-C1 lemma: solving the WD ILP over the PRUNED desirable sets gives
// the same optimal objective as solving it over all (brute-force enumerated)
// configurations.
TEST(WdLemmaTest, PruningPreservesTheIlpOptimum) {
  for (unsigned seed = 0; seed < 6; ++seed) {
    const std::int64_t batch = 5;
    const int num_kernels = 3;
    std::vector<MicroBenchmark> tables;
    for (int k = 0; k < num_kernels; ++k) {
      tables.push_back(random_table(seed * 17 + static_cast<unsigned>(k),
                                    batch, 3, BatchSizePolicy::kAll));
    }
    const std::size_t total_limit = 6000;

    // Brute force: enumerate ALL divisions of each kernel (ordered
    // compositions collapse to multisets; enumerate recursively).
    struct Enumerator {
      const MicroBenchmark& table;
      std::size_t cap;
      std::vector<std::pair<double, std::size_t>> configs;  // (time, ws)
      void recurse(std::int64_t remaining, std::int64_t max_size, double time,
                   std::size_t ws) {
        if (remaining == 0) {
          configs.emplace_back(time, ws);
          return;
        }
        for (std::size_t i = 0; i < table.sizes.size(); ++i) {
          const std::int64_t size = table.sizes[i];
          if (size > remaining || size > max_size) continue;
          for (const auto& perf : table.perfs[i]) {
            if (perf.memory > cap) continue;
            recurse(remaining - size, size, time + perf.time_ms,
                    std::max(ws, perf.memory));
          }
        }
      }
    };

    std::vector<std::vector<std::pair<double, std::size_t>>> all_sets;
    for (const auto& table : tables) {
      Enumerator e{table, total_limit, {}};
      e.recurse(batch, batch, 0.0, 0);
      all_sets.push_back(std::move(e.configs));
    }
    // Brute-force joint optimum over the cross product.
    double best = std::numeric_limits<double>::infinity();
    for (const auto& a : all_sets[0]) {
      for (const auto& b : all_sets[1]) {
        for (const auto& c : all_sets[2]) {
          const std::size_t ws =
              round_up(a.second, kWdAlignment) +
              round_up(b.second, kWdAlignment) +
              round_up(c.second, kWdAlignment);
          if (ws <= total_limit) {
            best = std::min(best, a.first + b.first + c.first);
          }
        }
      }
    }
    ASSERT_TRUE(std::isfinite(best)) << "seed " << seed;

    // Pruned path: desirable sets -> MCKP.
    ilp::MckpProblem mckp;
    mckp.capacity = static_cast<std::int64_t>(total_limit);
    for (const auto& table : tables) {
      const auto front = desirable_configurations(table, batch, total_limit);
      std::vector<ilp::MckpItem> group;
      for (const auto& config : front) {
        group.push_back(ilp::MckpItem{
            config.time_ms,
            static_cast<std::int64_t>(round_up(config.workspace, kWdAlignment))});
      }
      mckp.groups.push_back(std::move(group));
    }
    const ilp::MckpResult result = ilp::solve_mckp(mckp);
    ASSERT_TRUE(result.feasible) << "seed " << seed;
    EXPECT_NEAR(result.cost, best, 1e-9) << "seed " << seed;
  }
}

TEST(WdLemmaTest, LpRelaxationLowerBoundsTheIlp) {
  // The simplex relaxation of the WD ILP must lower-bound the integral
  // optimum (sanity linking the two solver layers).
  for (unsigned seed = 50; seed < 56; ++seed) {
    std::mt19937 rng(seed);
    std::uniform_real_distribution<double> cost(1.0, 9.0);
    std::uniform_int_distribution<std::int64_t> weight(0, 30);
    ilp::MckpProblem p;
    p.capacity = 60;
    p.groups.resize(4);
    for (auto& group : p.groups) {
      for (int i = 0; i < 3; ++i) {
        group.push_back(ilp::MckpItem{cost(rng), weight(rng)});
      }
    }
    const ilp::LinearProgram lp = ilp::mckp_to_ilp(p);
    const ilp::LpResult relaxed = ilp::solve_lp(lp);
    const ilp::IlpResult integral = ilp::solve_binary_ilp(lp);
    ASSERT_TRUE(relaxed.feasible);
    ASSERT_TRUE(integral.feasible);
    EXPECT_LE(relaxed.objective, integral.objective + 1e-6) << "seed " << seed;
  }
}

TEST(MicroSizesPropertyTest, EveryBatchIsCoverable) {
  // Any mini-batch must be exactly coverable by candidate sizes under every
  // policy (otherwise the WR DP could be infeasible with fitting algos).
  for (std::int64_t batch = 1; batch <= 70; ++batch) {
    for (const auto policy :
         {BatchSizePolicy::kAll, BatchSizePolicy::kPowerOfTwo,
          BatchSizePolicy::kUndivided}) {
      const auto sizes = candidate_micro_sizes(policy, batch);
      std::vector<char> reachable(static_cast<std::size_t>(batch) + 1, 0);
      reachable[0] = 1;
      for (std::int64_t b = 1; b <= batch; ++b) {
        for (const std::int64_t s : sizes) {
          if (s <= b && reachable[static_cast<std::size_t>(b - s)]) {
            reachable[static_cast<std::size_t>(b)] = 1;
            break;
          }
        }
      }
      EXPECT_TRUE(reachable[static_cast<std::size_t>(batch)])
          << to_string(policy) << " batch " << batch;
    }
  }
}

TEST(ParetoPropertyTest, PruneIsIdempotentAndOrderInvariant) {
  std::mt19937 rng(9);
  std::uniform_real_distribution<double> time(1.0, 50.0);
  std::uniform_int_distribution<std::size_t> ws(0, 5000);
  std::vector<Configuration> configs;
  for (int i = 0; i < 60; ++i) {
    Configuration c;
    c.append(MicroConfig{0, 1, time(rng), ws(rng)});
    configs.push_back(std::move(c));
  }
  auto shuffled = configs;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  pareto_prune(configs);
  pareto_prune(shuffled);
  ASSERT_EQ(configs.size(), shuffled.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    EXPECT_EQ(configs[i].workspace, shuffled[i].workspace);
    EXPECT_DOUBLE_EQ(configs[i].time_ms, shuffled[i].time_ms);
  }
  auto again = configs;
  pareto_prune(again);
  EXPECT_EQ(again.size(), configs.size());
}

TEST(ParetoPropertyTest, WorkspaceCombinerIsMaxNotSum) {
  // DESIGN.md §5(4): sequential micro-batches share one buffer, so the
  // configuration's footprint must be the max of its micro workspaces. A
  // sum-combiner would forbid exactly the configurations the paper relies
  // on (e.g. 8 x 32:FFT would cost 8x the memory).
  Configuration c;
  for (int i = 0; i < 8; ++i) c.append(MicroConfig{4, 32, 2.0, 45 << 20});
  EXPECT_EQ(c.workspace, std::size_t{45} << 20);      // max
  EXPECT_NE(c.workspace, std::size_t{8 * 45} << 20);  // not sum
  EXPECT_EQ(c.batch, 256);
}

}  // namespace
}  // namespace ucudnn::core
