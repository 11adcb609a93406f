#include "core/benchmarker.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/workspace_audit.h"
#include "common/status.h"
#include "common/timer.h"
#include "kernels/registry.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ucudnn::core {

namespace {

telemetry::Counter& benchmark_runs_metric() {
  static telemetry::Counter c =
      telemetry::MetricsRegistry::instance().counter("ucudnn.benchmark.runs");
  return c;
}

telemetry::Counter& measured_metric() {
  static telemetry::Counter c = telemetry::MetricsRegistry::instance().counter(
      "ucudnn.benchmark.measured");
  return c;
}

telemetry::Counter& bounded_metric() {
  static telemetry::Counter c = telemetry::MetricsRegistry::instance().counter(
      "ucudnn.benchmark.bounded");
  return c;
}

telemetry::Histogram& benchmark_ms_histogram() {
  static telemetry::Histogram h =
      telemetry::MetricsRegistry::instance().histogram("ucudnn.benchmark.ms");
  return h;
}

bool contains(const std::vector<int>& algos, int algo) {
  return std::find(algos.begin(), algos.end(), algo) != algos.end();
}

const mcudnn::AlgoPerf* find_perf(const std::vector<mcudnn::AlgoPerf>& perfs,
                                  int algo) {
  const auto it =
      std::find_if(perfs.begin(), perfs.end(),
                   [&](const mcudnn::AlgoPerf& p) { return p.algo == algo; });
  return it == perfs.end() ? nullptr : &*it;
}

// Pairs find_algorithms ran (supported ones, failed or not).
std::uint64_t timed_count(const std::vector<mcudnn::AlgoPerf>& perfs) {
  return static_cast<std::uint64_t>(
      std::count_if(perfs.begin(), perfs.end(), [](const mcudnn::AlgoPerf& p) {
        return p.status != Status::kNotSupported;
      }));
}

}  // namespace

// ------------------------------------------------------------ MicroBenchmark

bool MicroBenchmark::measured(std::size_t i, int algo) const {
  return i >= bounded.size() || !contains(bounded[i], algo);
}

std::size_t MicroBenchmark::bounded_count() const {
  std::size_t n = 0;
  for (const auto& algos : bounded) n += algos.size();
  return n;
}

void MicroBenchmark::settle(std::size_t i, int algo,
                            std::optional<double> time_ms) {
  std::vector<int>& pending = bounded[i];
  pending.erase(std::remove(pending.begin(), pending.end(), algo),
                pending.end());
  std::vector<mcudnn::AlgoPerf>& list = perfs[i];
  const auto it =
      std::find_if(list.begin(), list.end(),
                   [&](const mcudnn::AlgoPerf& p) { return p.algo == algo; });
  if (it == list.end()) return;
  if (time_ms) {
    it->time_ms = *time_ms;
  } else {
    list.erase(it);
  }
}

void MicroBenchmark::derive_bounds() {
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    if (i < bounded.size()) {
      for (mcudnn::AlgoPerf& perf : perfs[i]) {
        if (!contains(bounded[i], perf.algo)) continue;
        double floor = std::numeric_limits<double>::infinity();
        for (std::size_t j = 0; j < sizes.size(); ++j) {
          if (sizes[j] >= sizes[i] || !measured(j, perf.algo)) continue;
          if (const mcudnn::AlgoPerf* timed = find_perf(perfs[j], perf.algo)) {
            floor = std::min(floor, timed->time_ms);
          }
        }
        perf.time_ms = std::isinf(floor) ? 0.0 : kBoundSlack * floor;
      }
    }
    std::stable_sort(perfs[i].begin(), perfs[i].end(),
                     [](const mcudnn::AlgoPerf& l, const mcudnn::AlgoPerf& r) {
                       return l.time_ms < r.time_ms;
                     });
  }
}

// --------------------------------------------------------------- Benchmarker

Benchmarker::Benchmarker(mcudnn::Handle handle,
                         std::shared_ptr<BenchmarkCache> cache)
    : handle_(std::move(handle)), cache_(std::move(cache)) {
  if (cache_ == nullptr) cache_ = std::make_shared<BenchmarkCache>();
}

void Benchmarker::add_benchmark_ms(double ms) {
  total_benchmark_ms_.add(ms);
  benchmark_ms_histogram().observe_ms(ms);
}

MicroBenchmark Benchmarker::table(ConvKernelType type,
                                  const kernels::ConvProblem& problem,
                                  BatchSizePolicy policy) {
  const telemetry::ScopedSpan span(
      "benchmark", [&] { return std::string(to_string(type)); });
  Timer timer;
  MicroBenchmark result;
  result.sizes = candidate_micro_sizes(policy, problem.batch());
  result.perfs.resize(result.sizes.size());
  result.bounded.resize(result.sizes.size());

  // Modeled timings cost nothing: on a simulated device every size is
  // settled at once.
  const bool simulated = handle_.device().is_simulated();
  const int algo_count = kernels::algo_count(type);
  std::vector<std::vector<int>> modeled(result.sizes.size());
  for (std::size_t i = 0; i < result.sizes.size(); ++i) {
    const std::optional<std::vector<mcudnn::AlgoPerf>> entry =
        cache_->find(device_name(), type, problem, result.sizes[i]);
    const kernels::ConvProblem micro = problem.with_batch(result.sizes[i]);
    for (int algo = 0; algo < algo_count; ++algo) {
      if (!kernels::algo_supported(type, algo, micro) ||
          cache_->is_blacklisted(device_name(), type, algo)) {
        continue;
      }
      if (const mcudnn::AlgoPerf* cached =
              entry ? find_perf(*entry, algo) : nullptr) {
        // A listed failure stays out.
        if (cached->status == Status::kSuccess) {
          result.perfs[i].push_back(*cached);
        }
        continue;
      }
      result.perfs[i].push_back({algo, Status::kSuccess, 0.0,
                                 kernels::algo_workspace(type, algo, micro)});
      result.bounded[i].push_back(algo);
    }
    if (simulated) modeled[i] = result.bounded[i];
  }
  evaluate_and_settle(type, problem, result, modeled);

  add_benchmark_ms(timer.elapsed_ms());
  benchmark_runs_metric().add(1);
  return result;
}

void Benchmarker::measure(ConvKernelType type,
                          const kernels::ConvProblem& problem,
                          MicroBenchmark& bench,
                          const std::vector<BenchPair>& pairs) {
  if (pairs.empty()) return;
  const telemetry::ScopedSpan span(
      "benchmark_measure", [&] { return std::string(to_string(type)); });
  Timer timer;
  std::vector<std::vector<int>> requests(bench.sizes.size());
  for (const BenchPair& pair : pairs) {
    check(!bench.measured(pair.size_index, pair.algo), Status::kInternalError,
          "measure() asked for a pair that is already measured");
    if (!contains(requests[pair.size_index], pair.algo)) {
      requests[pair.size_index].push_back(pair.algo);
    }
  }
  evaluate_and_settle(type, problem, bench, requests);
  add_benchmark_ms(timer.elapsed_ms());
}

void Benchmarker::evaluate_and_settle(
    ConvKernelType type, const kernels::ConvProblem& problem,
    MicroBenchmark& bench, const std::vector<std::vector<int>>& requests) {
  // Workspace-audit violations during benchmarking are attributed to the
  // benchmarker, not the WR/WD execution path.
  const analysis::ScopedAuditContext audit_context("benchmark");
  const bool simulated = handle_.device().is_simulated();
  for (std::size_t i = 0; i < bench.sizes.size(); ++i) {
    if (requests[i].empty()) continue;
    const std::vector<mcudnn::AlgoPerf> results = mcudnn::find_algorithms(
        handle_, type, problem.with_batch(bench.sizes[i]), requests[i]);
    if (!simulated) measured_metric().add(timed_count(results));
    for (const mcudnn::AlgoPerf& perf : results) {
      const bool usable =
          perf.status == Status::kSuccess &&
          !cache_->is_blacklisted(device_name(), type, perf.algo);
      bench.settle(i, perf.algo,
                   usable ? std::optional<double>(perf.time_ms) : std::nullopt);
    }
    // Merged before the next size runs, so a throw keeps the sizes already
    // paid for: the retried call resolves them as cache hits.
    cache_->merge(device_name(), type, problem, bench.sizes[i], results);
  }
  bench.derive_bounds();
}

MicroBenchmark Benchmarker::run(ConvKernelType type,
                                const kernels::ConvProblem& problem,
                                BatchSizePolicy policy) {
  MicroBenchmark result = table(type, problem, policy);
  std::vector<BenchPair> pairs;
  for (std::size_t i = 0; i < result.bounded.size(); ++i) {
    for (const int algo : result.bounded[i]) pairs.push_back({i, algo});
  }
  measure(type, problem, result, pairs);
  return result;
}

void Benchmarker::note_unmeasured(const MicroBenchmark& bench) {
  bounded_metric().add(bench.bounded_count());
}

}  // namespace ucudnn::core
