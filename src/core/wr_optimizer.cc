#include "core/wr_optimizer.h"

#include <algorithm>
#include <limits>
#include <optional>

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

// The WR DP: fastest division of `batch` under `ws_limit`, or nullopt when
// no micro-configuration of any usable size fits.
std::optional<Configuration> fastest_division(const MicroBenchmark& bench,
                                              std::int64_t batch,
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
  if (!(dp[static_cast<std::size_t>(batch)] < kInf)) return std::nullopt;

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

}  // namespace

Configuration optimize_wr(const MicroBenchmark& bench, std::int64_t batch,
                          std::size_t ws_limit) {
  std::optional<Configuration> config =
      fastest_division(bench, batch, ws_limit);
  check(config.has_value(), Status::kNotSupported,
        "no micro-batch division covers batch " + std::to_string(batch) +
            " within workspace limit " + std::to_string(ws_limit));
  return std::move(*config);
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
  // Each solve is the fastest division within the limit, so it is the
  // front entry at that limit; one byte below its workspace is the next.
  std::vector<Configuration> front;
  std::size_t limit = ws_cap;
  while (auto config = fastest_division(bench, batch, limit)) {
    const std::size_t workspace = config->workspace;
    front.push_back(std::move(*config));
    if (workspace == 0) break;
    limit = workspace - 1;
  }
  // Time never falls as the limit shrinks, except by rounding: drop each
  // entry that a smaller-workspace one matches.
  pareto_prune(front);
  return front;
}

}  // namespace ucudnn::core
