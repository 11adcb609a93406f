#include "core/benchmarker.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <thread>

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

// find_algorithms results of the sizes a Benchmarker evaluated: requests[i]
// lists the algorithms wanted at size i (none: size not evaluated).
struct Evaluation {
  std::vector<std::optional<std::vector<mcudnn::AlgoPerf>>> results;
  std::exception_ptr error;  // the first failing handle's, after the rest
};

// Evaluates each requested size on the handle that owns it (size index
// modulo the handle count), one worker thread per handle with work (§III-D).
Evaluation evaluate(const std::vector<mcudnn::Handle>& handles,
                    ConvKernelType type, const kernels::ConvProblem& problem,
                    const std::vector<std::int64_t>& sizes,
                    const std::vector<std::vector<int>>& requests) {
  Evaluation evaluation;
  evaluation.results.resize(sizes.size());
  std::vector<std::exception_ptr> errors(handles.size());
  std::vector<std::thread> threads;
  threads.reserve(handles.size());
  for (std::size_t w = 0; w < handles.size(); ++w) {
    bool has_work = false;
    for (std::size_t i = w; i < sizes.size(); i += handles.size()) {
      has_work = has_work || !requests[i].empty();
    }
    if (!has_work) continue;
    threads.emplace_back([&, w] {
      try {
        // Workspace-audit violations during benchmarking are attributed to
        // the benchmarker, not the WR/WD execution path.
        const analysis::ScopedAuditContext audit_context(
            "benchmark:dev" + std::to_string(w));
        for (std::size_t i = w; i < sizes.size(); i += handles.size()) {
          if (requests[i].empty()) continue;
          evaluation.results[i] = mcudnn::find_algorithms(
              handles[w], type, problem.with_batch(sizes[i]), requests[i]);
        }
      } catch (...) {
        errors[w] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& error : errors) {
    if (error && !evaluation.error) evaluation.error = error;
  }
  return evaluation;
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

Benchmarker::Benchmarker(std::vector<mcudnn::Handle> handles,
                         std::shared_ptr<BenchmarkCache> cache)
    : handles_(std::move(handles)), cache_(std::move(cache)) {
  check_param(!handles_.empty(), "benchmarker needs at least one handle");
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

  // Every candidate size belongs round-robin to the handle that measures
  // it, and its cache lookup, blacklist filter, and store are all keyed by
  // that handle's device name. Keying everything by device 0 (as an earlier
  // revision did) silently cross-pollutes the cache on heterogeneous nodes:
  // results measured on device w land under device 0's name.
  const int algo_count = kernels::algo_count(type);
  std::vector<std::vector<int>> misses(result.sizes.size());
  for (std::size_t i = 0; i < result.sizes.size(); ++i) {
    const std::size_t w = i % handles_.size();
    std::optional<CachedPerfs> hit =
        cache_->find(device_name(w), type, problem, result.sizes[i]);
    if (hit && hit->complete) {
      result.perfs[i] = std::move(hit->perfs);
      continue;
    }
    if (!hit && handles_[w].device().is_simulated()) {
      // Modeled timings cost nothing: evaluate every algorithm at once.
      for (int algo = 0; algo < algo_count; ++algo) misses[i].push_back(algo);
      continue;
    }
    const kernels::ConvProblem micro = problem.with_batch(result.sizes[i]);
    for (int algo = 0; algo < algo_count; ++algo) {
      if (!kernels::algo_supported(type, algo, micro) ||
          cache_->is_blacklisted(device_name(w), type, algo)) {
        continue;
      }
      if (const mcudnn::AlgoPerf* cached =
              hit ? find_perf(hit->perfs, algo) : nullptr) {
        // A partial entry lists failed algorithms too; they stay out.
        if (cached->status == Status::kSuccess) {
          result.perfs[i].push_back(*cached);
        }
        continue;
      }
      result.perfs[i].push_back({algo, Status::kSuccess, 0.0,
                                 kernels::algo_workspace(type, algo, micro)});
      result.bounded[i].push_back(algo);
    }
  }

  Evaluation evaluation =
      evaluate(handles_, type, problem, result.sizes, misses);
  // Store whatever the workers finished before surfacing any error, so a
  // single failing device does not discard the benchmarking the others
  // already paid for — the retried call resolves those as cache hits.
  for (std::size_t i = 0; i < result.sizes.size(); ++i) {
    if (!evaluation.results[i]) continue;
    std::vector<mcudnn::AlgoPerf>& perfs = *evaluation.results[i];
    const std::string& device = device_name(i % handles_.size());
    // Keep only successful, non-blacklisted entries; they arrive
    // time-sorted.
    perfs.erase(std::remove_if(perfs.begin(), perfs.end(),
                               [&](const mcudnn::AlgoPerf& p) {
                                 return p.status != Status::kSuccess ||
                                        cache_->is_blacklisted(device, type,
                                                               p.algo);
                               }),
                perfs.end());
    cache_->store(device, type, problem, result.sizes[i], perfs);
    result.perfs[i] = std::move(perfs);
  }
  if (evaluation.error) std::rethrow_exception(evaluation.error);
  if (result.bounded_count() > 0) result.derive_bounds();

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

  const Evaluation evaluation =
      evaluate(handles_, type, problem, bench.sizes, requests);
  for (std::size_t i = 0; i < bench.sizes.size(); ++i) {
    if (!evaluation.results[i]) continue;
    const std::vector<mcudnn::AlgoPerf>& results = *evaluation.results[i];
    const std::size_t w = i % handles_.size();
    if (!handles_[w].device().is_simulated()) {
      measured_metric().add(timed_count(results));
    }
    const std::string& device = device_name(w);
    for (const mcudnn::AlgoPerf& perf : results) {
      const bool usable = perf.status == Status::kSuccess &&
                          !cache_->is_blacklisted(device, type, perf.algo);
      bench.settle(i, perf.algo,
                   usable ? std::optional<double>(perf.time_ms) : std::nullopt);
    }
    cache_->merge(device, type, problem, bench.sizes[i], results,
                  bench.bounded[i].empty());
  }
  if (evaluation.error) std::rethrow_exception(evaluation.error);
  bench.derive_bounds();
  add_benchmark_ms(timer.elapsed_ms());
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
