// Core μ-cuDNN data model: micro-configurations, configurations, batch-size
// policies and workspace policies — the vocabulary of §III of the paper.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "kernels/conv_problem.h"

namespace ucudnn::core {

/// One micro-batch assignment: run `algo` on `batch` samples. A convolution
/// kernel's "configuration" is a list of these covering the mini-batch
/// (e.g. <c(64, FFT), c(64, FFT), c(128, GEMM)> in the paper's notation).
struct MicroConfig {
  int algo = -1;
  std::int64_t batch = 0;
  double time_ms = 0.0;
  std::size_t workspace = 0;

  bool operator==(const MicroConfig&) const = default;
};

/// A full division of the mini-batch. Micro-batches execute sequentially and
/// share one workspace, so the configuration's footprint is the MAX of the
/// micro workspaces while its cost is the SUM of the micro times.
struct Configuration {
  std::vector<MicroConfig> micro;
  std::int64_t batch = 0;
  double time_ms = 0.0;
  std::size_t workspace = 0;

  void append(const MicroConfig& m) {
    micro.push_back(m);
    batch += m.batch;
    time_ms += m.time_ms;
    workspace = std::max(workspace, m.workspace);
  }

  bool empty() const noexcept { return micro.empty(); }
  std::size_t size() const noexcept { return micro.size(); }

  /// Human-readable form like "[64:FFT, 64:FFT, 128:GEMM]".
  std::string to_string(ConvKernelType type) const;
};

/// §III-D batch-size policies: which micro-batch sizes get benchmarked.
enum class BatchSizePolicy { kAll, kPowerOfTwo, kUndivided };

constexpr std::string_view to_string(BatchSizePolicy p) noexcept {
  switch (p) {
    case BatchSizePolicy::kAll: return "all";
    case BatchSizePolicy::kPowerOfTwo: return "powerOfTwo";
    case BatchSizePolicy::kUndivided: return "undivided";
  }
  return "unknown";
}

/// Parses "all" / "powerOfTwo" / "undivided" (throws kInvalidValue).
BatchSizePolicy parse_batch_size_policy(const std::string& text);

/// §III-A workspace policies.
enum class WorkspacePolicy { kWR, kWD };

constexpr std::string_view to_string(WorkspacePolicy p) noexcept {
  return p == WorkspacePolicy::kWR ? "WR" : "WD";
}

WorkspacePolicy parse_workspace_policy(const std::string& text);

/// Candidate micro-batch sizes for a mini-batch of `batch` under `policy`,
/// ascending. powerOfTwo additionally contains `batch` itself when it is not
/// a power of two, so every mini-batch remains coverable.
std::vector<std::int64_t> candidate_micro_sizes(BatchSizePolicy policy,
                                                std::int64_t batch);

/// Counters for every graceful-degradation event the planner/executor stack
/// performed (ROADMAP robustness north-star: a recoverable resource condition
/// must never abort a training run). Owned by the UcudnnHandle facade, shared
/// by reference with the Planner and the Executor, and logged at teardown
/// next to the audit report.
///
/// The fields stay public (tests and reports read them per handle), but
/// increments go through the count_* methods, which also mirror each event
/// into the process-wide MetricsRegistry under ucudnn.degradation.*.
struct DegradationStats {
  std::uint64_t retries = 0;                 // transient kernel failures retried
  std::uint64_t degraded_allocations = 0;    // workspace limits halved on OOM
  std::uint64_t blacklisted_algorithms = 0;  // algos retired after retries
  std::uint64_t solver_fallbacks = 0;        // infeasible WD -> per-kernel WR
  std::uint64_t cache_quarantines = 0;       // corrupt cache files quarantined
  std::uint64_t wd_unrecorded_fallbacks = 0; // WD misses routed to WR

  void count_retry();
  void count_degraded_allocation();
  void count_blacklisted_algorithm();
  void count_solver_fallback();
  void count_cache_quarantine();
  void count_wd_unrecorded_fallback();

  bool any() const noexcept {
    return retries != 0 || degraded_allocations != 0 ||
           blacklisted_algorithms != 0 || solver_fallbacks != 0 ||
           cache_quarantines != 0 || wd_unrecorded_fallbacks != 0;
  }
  std::string to_string() const;
};

/// One convolution kernel instance a framework asked about: the unit of WD
/// optimization ("kernel" in §III-C).
struct KernelRequest {
  ConvKernelType type = ConvKernelType::kForward;
  kernels::ConvProblem problem;
  std::string label;  // e.g. "conv2(Forward)" — used in reports
};

/// A recorded kernel's identity: its index in the Planner's append-only
/// recorded-kernel list. Interned once per distinct (type, problem) value,
/// so every per-kernel table is a slot indexed by it.
using KernelId = std::size_t;

}  // namespace ucudnn::core
