#include "core/benchmarker.h"

#include <algorithm>
#include <thread>

#include "analysis/workspace_audit.h"
#include "common/status.h"
#include "common/timer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ucudnn::core {

namespace {

telemetry::Counter& benchmark_runs_metric() {
  static telemetry::Counter c =
      telemetry::MetricsRegistry::instance().counter("ucudnn.benchmark.runs");
  return c;
}

telemetry::Histogram& benchmark_ms_histogram() {
  static telemetry::Histogram h =
      telemetry::MetricsRegistry::instance().histogram("ucudnn.benchmark.ms");
  return h;
}

}  // namespace

Benchmarker::Benchmarker(std::vector<mcudnn::Handle> handles,
                         std::shared_ptr<BenchmarkCache> cache)
    : handles_(std::move(handles)), cache_(std::move(cache)) {
  check_param(!handles_.empty(), "benchmarker needs at least one handle");
  if (cache_ == nullptr) cache_ = std::make_shared<BenchmarkCache>();
}

MicroBenchmark Benchmarker::run(ConvKernelType type,
                                const kernels::ConvProblem& problem,
                                BatchSizePolicy policy) {
  const telemetry::ScopedSpan span(
      "benchmark", [&] { return std::string(to_string(type)); });
  Timer timer;
  MicroBenchmark result;
  result.sizes = candidate_micro_sizes(policy, problem.batch());
  result.perfs.resize(result.sizes.size());

  // Every candidate size is assigned round-robin to the handle that will
  // measure it, and its cache lookup, blacklist filter, and store are all
  // keyed by that handle's device name. Keying everything by device 0 (as an
  // earlier revision did) silently cross-pollutes the cache on heterogeneous
  // nodes: results measured on device w land under device 0's name.
  std::vector<std::vector<std::size_t>> assigned(handles_.size());
  for (std::size_t i = 0; i < result.sizes.size(); ++i) {
    const std::size_t w = i % handles_.size();
    const std::string& device_name = handles_[w].device().spec().name;
    if (auto hit =
            cache_->lookup(device_name, type, problem, result.sizes[i])) {
      result.perfs[i] = std::move(*hit);
    } else {
      assigned[w].push_back(i);
    }
  }

  // Evaluate misses, one worker thread per handle with work (§III-D).
  const bool any_miss = std::any_of(
      assigned.begin(), assigned.end(),
      [](const std::vector<std::size_t>& a) { return !a.empty(); });
  if (any_miss) {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(handles_.size());
    std::vector<char> done(result.sizes.size(), 0);
    threads.reserve(handles_.size());
    for (std::size_t w = 0; w < handles_.size(); ++w) {
      if (assigned[w].empty()) continue;
      threads.emplace_back([&, w] {
        try {
          // Workspace-audit violations during benchmarking are attributed to
          // the benchmarker, not the WR/WD execution path.
          const analysis::ScopedAuditContext audit_context(
              "benchmark:dev" + std::to_string(w));
          const std::string& device_name = handles_[w].device().spec().name;
          for (const std::size_t i : assigned[w]) {
            auto perfs = mcudnn::find_algorithms(
                handles_[w], type, problem.with_batch(result.sizes[i]));
            // Keep only successful, non-blacklisted entries; they arrive
            // time-sorted.
            perfs.erase(std::remove_if(perfs.begin(), perfs.end(),
                                       [&](const mcudnn::AlgoPerf& p) {
                                         return p.status != Status::kSuccess ||
                                                cache_->is_blacklisted(
                                                    device_name, type, p.algo);
                                       }),
                        perfs.end());
            result.perfs[i] = std::move(perfs);
            done[i] = 1;
          }
        } catch (...) {
          errors[w] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    // Store whatever the workers finished before surfacing any error, so a
    // single failing device does not discard the benchmarking the others
    // already paid for — the retried call resolves those as cache hits.
    for (std::size_t w = 0; w < handles_.size(); ++w) {
      const std::string& device_name = handles_[w].device().spec().name;
      for (const std::size_t i : assigned[w]) {
        if (!done[i]) continue;
        cache_->store(device_name, type, problem, result.sizes[i],
                      result.perfs[i]);
      }
    }
    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }

  const double elapsed_ms = timer.elapsed_ms();
  total_benchmark_ms_.add(elapsed_ms);
  benchmark_runs_metric().add(1);
  benchmark_ms_histogram().observe_ms(elapsed_ms);
  return result;
}

}  // namespace ucudnn::core
