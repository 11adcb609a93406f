// μ-cuDNN: the transparent wrapper (§III-D, §III-E).
//
// Integration mirrors the paper: replace the cuDNN handle type with
// UcudnnHandle. The wrapper
//  * answers GetConvolution*Algorithm with a virtual algorithm ID and
//    GetConvolution*WorkspaceSize with zero, so the framework neither picks
//    an algorithm nor allocates workspace itself;
//  * records every kernel the framework asks about (the WD pipeline needs
//    all layer parameters before the first real convolution, §III-E);
//  * on Convolution* calls, fetches an ExecutionPlan from the Planner
//    (optimizing lazily on the first call, from the PlanCache afterwards)
//    and hands it to the Executor — using beta-accumulation for
//    BackwardFilter so semantics are unchanged;
//  * delegates everything else to mcudnn via a cast operator to the wrapped
//    handle, the same trick the paper uses.
//
// The handle itself is a thin facade; policy lives in core/planner.h and
// mechanics in core/executor.h, with core/plan.h as the IR between them.
#pragma once

#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/benchmarker.h"
#include "core/executor.h"
#include "core/options.h"
#include "core/plan.h"
#include "core/planner.h"
#include "core/types.h"
#include "core/wd_optimizer.h"
#include "mcudnn/mcudnn.h"
#include "telemetry/report.h"

namespace ucudnn::core {

/// The algorithm ID μ-cuDNN hands back to frameworks; any value the
/// framework echoes into Convolution* is ignored there.
inline constexpr int kVirtualAlgo = 0;

/// UcudnnHandle_t equivalent.
class UcudnnHandle {
 public:
  /// Host-CPU device, options from the environment.
  UcudnnHandle();
  explicit UcudnnHandle(std::shared_ptr<device::Device> dev);
  UcudnnHandle(std::shared_ptr<device::Device> dev, Options options);
  /// Multi-device node: device 0 executes; up to options.benchmark_devices
  /// devices evaluate micro-benchmarks in parallel (§III-D).
  UcudnnHandle(const device::Node& node, Options options);
  ~UcudnnHandle();

  UcudnnHandle(const UcudnnHandle&) = delete;
  UcudnnHandle& operator=(const UcudnnHandle&) = delete;

  /// The cast-operator integration trick: any API expecting the plain cuDNN
  /// handle receives the wrapped one.
  operator mcudnn::Handle&() noexcept { return handle_; }
  mcudnn::Handle& base() noexcept { return handle_; }
  const mcudnn::Handle& base() const noexcept { return handle_; }

  device::Device& device() const noexcept { return handle_.device(); }
  /// Fixed at construction: the planner and executor hold a const reference.
  const Options& options() const noexcept { return options_; }

  /// Optional label attached to the NEXT recorded kernel (layer name in
  /// reports and memory tags).
  void set_next_kernel_label(std::string label);

  // --- wrapper API (problem level) -------------------------------------

  /// Always 0: μ-cuDNN manages workspace internally.
  std::size_t workspace_size(ConvKernelType type,
                             const kernels::ConvProblem& problem, int algo);

  /// Records the kernel (and the framework's workspace limit) and returns
  /// the virtual algorithm ID.
  int get_algorithm(ConvKernelType type, const kernels::ConvProblem& problem,
                    mcudnn::AlgoPreference preference, std::size_t ws_limit);

  /// Runs the optimized micro-batched convolution: plan (or PlanCache hit),
  /// then execute — with the planner's tail-re-plan policy wired into the
  /// executor's failure handling.
  void convolution(ConvKernelType type, const kernels::ConvProblem& problem,
                   float alpha, const float* a, const float* b, float beta,
                   float* out);

  // --- WD control (§III-E) ---------------------------------------------

  /// Freezes the recorded kernel list and runs WD optimization now
  /// (otherwise it runs at the first Convolution* call). Subsequent
  /// GetConvolution*Algorithm calls are ignored, as in the paper's Caffe
  /// integration.
  void finalize_wd();
  bool wd_finalized() const noexcept { return planner_.wd_finalized(); }
  const WdPlan* wd_plan() const noexcept { return planner_.wd_plan(); }

  // --- introspection (benches, tests) ----------------------------------

  /// The configuration that will run / ran for this kernel (null before
  /// optimization).
  const Configuration* configuration_for(ConvKernelType type,
                                         const kernels::ConvProblem& problem);

  /// Recorded kernel requests, in registration order (indexed by the
  /// planner's KernelId).
  const std::vector<KernelRequest>& recorded_kernels() const noexcept {
    return planner_.kernels();
  }

  /// Direct benchmark access (e.g. to plot a Fig. 8 Pareto front).
  MicroBenchmark benchmark(ConvKernelType type,
                           const kernels::ConvProblem& problem,
                           BatchSizePolicy policy);

  /// Wall time spent benchmarking micro-configurations so far.
  double total_benchmark_ms() const noexcept {
    return planner_.benchmarker().total_benchmark_ms();
  }
  /// Wall time spent in DP/ILP optimization so far (excludes benchmarking).
  double total_optimize_ms() const noexcept {
    return planner_.total_optimize_ms();
  }
  /// Wall time spent re-benchmarking during tail re-plans (degraded path).
  double total_replan_benchmark_ms() const noexcept {
    return planner_.total_replan_benchmark_ms();
  }

  const std::shared_ptr<BenchmarkCache>& cache() const noexcept {
    return planner_.benchmarker().cache();
  }

  /// The steady-state plan cache (hit/miss counters, blacklist epoch).
  const PlanCache& plan_cache() const noexcept { return planner_.plan_cache(); }

  /// Degradation events accumulated over the handle's lifetime.
  const DegradationStats& degradation_stats() const noexcept { return stats_; }

  /// Execution report ("plan explain"): per-kernel micro-batch division and
  /// per-segment algorithm, estimated vs measured segment times, workspace
  /// declared vs audit-touched bytes, plan-cache/degradation context, and
  /// WR/WD policy metadata. Assembled on demand from planner provenance and
  /// executor measurements; the destructor dumps it to UCUDNN_REPORT_FILE
  /// when set (JSON when the path ends in ".json", pretty text otherwise).
  telemetry::ExecutionReport execution_report() const;

 private:
  // Per-kernel execution bookkeeping backing execution_report(): the plan
  // actually run, the planner's provenance for it, and per-segment measured
  // times accumulated by the executor's MeasureFn callback. Stats reset
  // whenever the kernel's plan changes (re-optimization, epoch bump).
  struct SegmentStat {
    std::int64_t batch = 0;
    int algo = -1;
    bool accumulate = false;
    std::size_t workspace = 0;
    double estimated_ms = 0.0;
    double measured_ms_total = 0.0;
    std::uint64_t runs = 0;
  };
  struct KernelExecRecord {
    std::shared_ptr<const ExecutionPlan> plan;
    std::string provenance;
    std::size_t ws_limit = 0;
    std::uint64_t executions = 0;
    std::uint64_t replans = 0;
    std::vector<SegmentStat> segments;
  };

  /// The execution record for this kernel, created on first execution.
  KernelExecRecord& exec_record(KernelId id);
  /// Interns the kernel with the planner, appending it to the recorded list
  /// if unseen (frameworks that never call GetConvolution*Algorithm — the
  /// TensorFlow integration style, §IV-B2 — are recorded on first
  /// execution), and consumes the pending label either way.
  KernelId record_kernel(ConvKernelType type,
                         const kernels::ConvProblem& problem);
  void init_cache_from_file();

  mcudnn::Handle handle_;
  Options options_;
  DegradationStats stats_;  // shared by reference with planner_/executor_
  Planner planner_;
  Executor executor_;
  std::string next_label_;
  // Execution records indexed by KernelId (empty until first execution);
  // exec_order_ lists the executed ids in first-execution order.
  std::vector<std::optional<KernelExecRecord>> exec_records_;
  std::vector<KernelId> exec_order_;
};

// --- free-function overloads mirroring the mcudnn problem-level API -------
// (a framework written generically against `get_algorithm(handle, ...)`
// works with either handle type).

inline std::size_t workspace_size(UcudnnHandle& handle, ConvKernelType type,
                                  const kernels::ConvProblem& p, int algo) {
  return handle.workspace_size(type, p, algo);
}

inline int get_algorithm(
    UcudnnHandle& handle, ConvKernelType type, const kernels::ConvProblem& p,
    mcudnn::AlgoPreference preference,
    std::size_t ws_limit = std::numeric_limits<std::size_t>::max()) {
  return handle.get_algorithm(type, p, preference, ws_limit);
}

inline void convolution(UcudnnHandle& handle, ConvKernelType type,
                        const kernels::ConvProblem& p, float alpha,
                        const float* a, const float* b, float beta, float* out,
                        int /*algo*/, void* /*workspace*/,
                        std::size_t /*workspace_bytes*/) {
  handle.convolution(type, p, alpha, a, b, beta, out);
}

// --- cuDNN-shaped Status API for UcudnnHandle ------------------------------

[[nodiscard]] Status mcudnnGetConvolutionWorkspaceSize(UcudnnHandle& handle,
                                         ConvKernelType type,
                                         const TensorDesc& in,
                                         const FilterDesc& w,
                                         const ConvGeometry& conv,
                                         const TensorDesc& out, int algo,
                                         std::size_t* bytes);

[[nodiscard]] Status mcudnnGetConvolutionAlgorithm(UcudnnHandle& handle, ConvKernelType type,
                                     const TensorDesc& in, const FilterDesc& w,
                                     const ConvGeometry& conv,
                                     const TensorDesc& out,
                                     mcudnn::AlgoPreference preference,
                                     std::size_t ws_limit, int* algo);

[[nodiscard]] Status mcudnnConvolutionForward(UcudnnHandle& handle, float alpha,
                                const TensorDesc& x_desc, const float* x,
                                const FilterDesc& w_desc, const float* w,
                                const ConvGeometry& conv, int algo,
                                void* workspace, std::size_t workspace_bytes,
                                float beta, const TensorDesc& y_desc, float* y);

[[nodiscard]] Status mcudnnConvolutionBackwardData(UcudnnHandle& handle, float alpha,
                                     const FilterDesc& w_desc, const float* w,
                                     const TensorDesc& dy_desc, const float* dy,
                                     const ConvGeometry& conv, int algo,
                                     void* workspace,
                                     std::size_t workspace_bytes, float beta,
                                     const TensorDesc& dx_desc, float* dx);

[[nodiscard]] Status mcudnnConvolutionBackwardFilter(UcudnnHandle& handle, float alpha,
                                       const TensorDesc& x_desc, const float* x,
                                       const TensorDesc& dy_desc,
                                       const float* dy, const ConvGeometry& conv,
                                       int algo, void* workspace,
                                       std::size_t workspace_bytes, float beta,
                                       const FilterDesc& dw_desc, float* dw);

}  // namespace ucudnn::core
