// Micro-batch benchmarking (step 1 of the WR algorithm, §III-B): for every
// candidate micro-batch size b', evaluate all convolution algorithms with
// cudnnFindConvolution*Algorithm-style benchmarking, through the cache.
// Candidate sizes can be distributed over several homogeneous devices and
// evaluated concurrently (§III-D "parallel micro-configuration evaluation").
#pragma once

#include <memory>
#include <vector>

#include "core/benchmark_cache.h"
#include "core/types.h"
#include "mcudnn/mcudnn.h"
#include "telemetry/metrics.h"

namespace ucudnn::core {

/// Benchmark table of one kernel: perfs[i] holds the SUPPORTED algorithm
/// results (ascending time) for micro-batch size sizes[i].
struct MicroBenchmark {
  std::vector<std::int64_t> sizes;
  std::vector<std::vector<mcudnn::AlgoPerf>> perfs;
};

class Benchmarker {
 public:
  /// Handle 0 is the primary. Handles are normally homogeneous (one
  /// mini-batch's candidates only make sense on one device model), but each
  /// measurement is keyed by its measuring handle's device name, so a
  /// heterogeneous set cannot cross-pollute the cache.
  Benchmarker(std::vector<mcudnn::Handle> handles,
              std::shared_ptr<BenchmarkCache> cache);

  /// Benchmarks every candidate micro size of `problem`'s batch under
  /// `policy`. Results are cached by (device, kernel, problem, micro size).
  MicroBenchmark run(ConvKernelType type, const kernels::ConvProblem& problem,
                     BatchSizePolicy policy);

  /// Accumulated wall-clock time spent benchmarking (the §IV-B1
  /// "time to optimization" accounting). Atomic: concurrent run() calls on
  /// the same Benchmarker must not lose updates.
  double total_benchmark_ms() const noexcept {
    return total_benchmark_ms_.value();
  }

  const std::shared_ptr<BenchmarkCache>& cache() const noexcept {
    return cache_;
  }

 private:
  std::vector<mcudnn::Handle> handles_;
  std::shared_ptr<BenchmarkCache> cache_;
  telemetry::InstanceDoubleCounter total_benchmark_ms_{
      "ucudnn.benchmark.total_ms"};
};

}  // namespace ucudnn::core
