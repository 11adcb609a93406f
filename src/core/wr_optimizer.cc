#include "core/wr_optimizer.h"

#include <algorithm>
#include <limits>

#include "common/status.h"

namespace ucudnn::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Fastest micro-configuration of each candidate size within ws_limit.
// Returns one entry per bench.sizes index; batch 0 marks "none fits".
std::vector<MicroConfig> best_micro_configs(const MicroBenchmark& bench,
                                            std::size_t ws_limit) {
  std::vector<MicroConfig> best(bench.sizes.size());
  for (std::size_t i = 0; i < bench.sizes.size(); ++i) {
    for (const auto& perf : bench.perfs[i]) {  // ascending time
      if (perf.memory <= ws_limit) {
        best[i] = MicroConfig{perf.algo, bench.sizes[i], perf.time_ms,
                              perf.memory};
        break;
      }
    }
  }
  return best;
}

}  // namespace

Configuration optimize_wr(const MicroBenchmark& bench, std::int64_t batch,
                          std::size_t ws_limit) {
  check_param(batch >= 1, "batch must be >= 1");
  check_param(bench.sizes.size() == bench.perfs.size(),
              "benchmark table shape mismatch");
  const auto best = best_micro_configs(bench, ws_limit);

  // dp[b]: best total time to cover exactly b samples.
  std::vector<double> dp(static_cast<std::size_t>(batch) + 1, kInf);
  // parent[b] = (previous b, size index used).
  std::vector<std::pair<std::int64_t, std::size_t>> parent(
      static_cast<std::size_t>(batch) + 1, {-1, 0});
  dp[0] = 0.0;

  for (std::int64_t b = 1; b <= batch; ++b) {
    for (std::size_t i = 0; i < bench.sizes.size(); ++i) {
      const std::int64_t size = bench.sizes[i];
      if (size > b || best[i].batch == 0) continue;
      const double candidate =
          dp[static_cast<std::size_t>(b - size)] + best[i].time_ms;
      if (candidate < dp[static_cast<std::size_t>(b)]) {
        dp[static_cast<std::size_t>(b)] = candidate;
        parent[static_cast<std::size_t>(b)] = {b - size, i};
      }
    }
  }

  check(dp[static_cast<std::size_t>(batch)] < kInf, Status::kNotSupported,
        "no micro-batch division covers batch " + std::to_string(batch) +
            " within workspace limit " + std::to_string(ws_limit));

  // Reconstruct (micro-batches emitted largest-position-first; order is
  // semantically irrelevant, they run sequentially).
  Configuration config;
  std::int64_t b = batch;
  while (b > 0) {
    const auto [prev, index] = parent[static_cast<std::size_t>(b)];
    config.append(best[index]);
    b = prev;
  }
  return config;
}

Configuration plan_wr(MicroBenchmark& bench, std::int64_t batch,
                      std::size_t ws_limit, const MeasurePairsFn& measure) {
  for (;;) {
    Configuration config = optimize_wr(bench, batch, ws_limit);
    std::vector<BenchPair> pending;
    for (const MicroConfig& micro : config.micro) {
      const auto size = std::find(bench.sizes.begin(), bench.sizes.end(),
                                  micro.batch);
      const BenchPair pair{
          static_cast<std::size_t>(size - bench.sizes.begin()), micro.algo};
      if (!bench.measured(pair.size_index, pair.algo) &&
          std::find(pending.begin(), pending.end(), pair) == pending.end()) {
        pending.push_back(pair);
      }
    }
    if (pending.empty()) return config;
    // Each pass settles at least one bound, so the loop ends.
    const std::size_t before = bench.bounded_count();
    measure(bench, pending);
    check(bench.bounded_count() < before, Status::kInternalError,
          "measuring left every chosen bound unsettled");
  }
}

void pareto_prune(std::vector<Configuration>& configs) {
  if (configs.empty()) return;
  std::sort(configs.begin(), configs.end(),
            [](const Configuration& l, const Configuration& r) {
              if (l.workspace != r.workspace) return l.workspace < r.workspace;
              return l.time_ms < r.time_ms;
            });
  std::vector<Configuration> front;
  double best_time = kInf;
  for (auto& config : configs) {
    if (config.time_ms < best_time) {
      best_time = config.time_ms;
      front.push_back(std::move(config));
    }
  }
  configs = std::move(front);
}

std::vector<Configuration> desirable_configurations(const MicroBenchmark& bench,
                                                    std::int64_t batch,
                                                    std::size_t ws_cap) {
  check_param(batch >= 1, "batch must be >= 1");

  // M(b'): micro-configurations of size b' within the cap, themselves
  // Pareto-pruned (dominated micro-configs can never help).
  std::vector<std::vector<MicroConfig>> micro_sets(bench.sizes.size());
  for (std::size_t i = 0; i < bench.sizes.size(); ++i) {
    std::vector<Configuration> as_configs;
    for (const auto& perf : bench.perfs[i]) {
      if (perf.memory > ws_cap) continue;
      Configuration c;
      c.append(MicroConfig{perf.algo, bench.sizes[i], perf.time_ms, perf.memory});
      as_configs.push_back(std::move(c));
    }
    pareto_prune(as_configs);
    for (const auto& c : as_configs) micro_sets[i].push_back(c.micro[0]);
  }

  // D(0) = { empty }; D(b) = P( U_{b'} D(b - b') ++ M(b') ).
  std::vector<std::vector<Configuration>> d(static_cast<std::size_t>(batch) + 1);
  d[0].push_back(Configuration{});
  for (std::int64_t b = 1; b <= batch; ++b) {
    std::vector<Configuration> candidates;
    for (std::size_t i = 0; i < bench.sizes.size(); ++i) {
      const std::int64_t size = bench.sizes[i];
      if (size > b || micro_sets[i].empty()) continue;
      for (const auto& base : d[static_cast<std::size_t>(b - size)]) {
        for (const auto& micro : micro_sets[i]) {
          Configuration extended = base;
          extended.append(micro);
          candidates.push_back(std::move(extended));
        }
      }
    }
    pareto_prune(candidates);
    d[static_cast<std::size_t>(b)] = std::move(candidates);
  }
  return d[static_cast<std::size_t>(batch)];
}

}  // namespace ucudnn::core
