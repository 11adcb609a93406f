// Micro-batch benchmarking (step 1 of the WR algorithm, §III-B): for every
// candidate micro-batch size b', evaluate the convolution algorithms with
// cudnnFindConvolution*Algorithm-style benchmarking, through the cache.
// Sizes are evaluated in order on one handle's device, in the calling thread.
//
// Timing is the expensive part on real kernels, so a table can be built
// lazily: every (size, algorithm) pair that is not cached gets a lower bound
// instead of a timing, and the WR planner (plan_wr) times only the pairs its
// optimum depends on. A kernel's time does not fall when its batch grows, so
// an untimed pair (b, a) is bounded by kBoundSlack times the smallest timing
// of `a` at a smaller candidate size (0 when there is none).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/benchmark_cache.h"
#include "core/types.h"
#include "mcudnn/mcudnn.h"
#include "telemetry/metrics.h"

namespace ucudnn::core {

/// Safety factor on the bound of an untimed pair: it must stay below that
/// pair's timing for lazy planning to find the exhaustive optimum. Timings
/// of one algorithm do rise with the batch, but single-shot timings of
/// sub-0.2 ms Winograd/GEMM kernels on the host CPU come out inverted (the
/// smaller batch slower) now and then: 9-12 times per full benchmark of the
/// CIFAR-10 training kernels on a 4-vCPU x86 VM, once by 14x. Replayed
/// offline over 13 such benchmarks, every slack from 0.25 to 1.0 still
/// found the exhaustive optimum; 0.8 keeps a margin for about 5 more timed
/// pairs of 230 (120 instead of 115 at an 8 MiB limit). See
/// docs/optimizer.md "Benchmarking".
inline constexpr double kBoundSlack = 0.8;

/// One (candidate size index, algorithm id) pair of a MicroBenchmark.
struct BenchPair {
  std::size_t size_index = 0;
  int algo = -1;

  bool operator==(const BenchPair&) const = default;
};

/// Benchmark table of one kernel: perfs[i] holds the usable algorithms for
/// micro-batch size sizes[i], ascending by time_ms. That value is a timing,
/// or for the algorithms listed in bounded[i] a lower bound on one. A
/// complete table has no bounds (`bounded` may then be empty).
struct MicroBenchmark {
  std::vector<std::int64_t> sizes;
  std::vector<std::vector<mcudnn::AlgoPerf>> perfs;
  std::vector<std::vector<int>> bounded;

  /// Whether (sizes[i], algo)'s value is a timing rather than a bound.
  bool measured(std::size_t i, int algo) const;
  /// Number of pairs whose value is a bound.
  std::size_t bounded_count() const;
  /// Replaces the bound of (sizes[i], algo) with its timing, or drops the
  /// algorithm from that size when there is none (it failed or is
  /// blacklisted). Call derive_bounds() after the last one.
  void settle(std::size_t i, int algo, std::optional<double> time_ms);
  /// Recomputes every bound from the timings (see kBoundSlack) and re-sorts
  /// each size by value.
  void derive_bounds();
};

class Benchmarker {
 public:
  /// Every measurement is keyed by `handle`'s device name, so one cache can
  /// serve Benchmarkers on different devices without cross-pollution.
  Benchmarker(mcudnn::Handle handle, std::shared_ptr<BenchmarkCache> cache);

  /// The table of every candidate micro size of `problem`'s batch under
  /// `policy`, built lazily. For each supported, non-blacklisted algorithm
  /// the cache entry decides: a listed success gives its timing, a listed
  /// failure leaves the algorithm out, and an unlisted one gets a lower
  /// bound. On a simulated device find_algorithms runs no kernel, so those
  /// bounds are measured at once and the table is complete.
  MicroBenchmark table(ConvKernelType type, const kernels::ConvProblem& problem,
                       BatchSizePolicy policy);

  /// Times the given bounded pairs of `bench` (built by table() for the same
  /// kernel), caches them, and re-derives the remaining bounds. Each size's
  /// pairs are one find_algorithms call.
  void measure(ConvKernelType type, const kernels::ConvProblem& problem,
               MicroBenchmark& bench, const std::vector<BenchPair>& pairs);

  /// The complete table: table() with every bound measured. Results are
  /// cached by (device, kernel, problem, micro size).
  MicroBenchmark run(ConvKernelType type, const kernels::ConvProblem& problem,
                     BatchSizePolicy policy);

  /// Counts the pairs `bench` still holds as bounds (pairs its plan never
  /// needed timed). Call once per table, when planning is done with it.
  void note_unmeasured(const MicroBenchmark& bench);

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
  const std::string& device_name() const {
    return handle_.device().spec().name;
  }
  void add_benchmark_ms(double ms);
  /// Evaluates requests[i] at size i, settles the results in `bench` and
  /// merges them into the cache size by size, then re-derives the bounds.
  void evaluate_and_settle(ConvKernelType type,
                           const kernels::ConvProblem& problem,
                           MicroBenchmark& bench,
                           const std::vector<std::vector<int>>& requests);

  mcudnn::Handle handle_;
  std::shared_ptr<BenchmarkCache> cache_;
  telemetry::InstanceDoubleCounter total_benchmark_ms_{
      "ucudnn.benchmark.total_ms"};
};

}  // namespace ucudnn::core
