#include "core/ucudnn.h"

#include <algorithm>
#include <utility>

#include "analysis/workspace_audit.h"
#include "common/logging.h"
#include "kernels/registry.h"
#include "telemetry/metrics.h"

namespace ucudnn::core {

namespace {

Options validated(Options options) {
  check(options.max_retries >= 0, Status::kBadParam,
        "Options::max_retries must be >= 0 (got " +
            std::to_string(options.max_retries) + ")");
  return options;
}

/// A plan segment's unmeasured execution-report entry.
telemetry::SegmentReport segment_report(ConvKernelType type,
                                        const PlanSegment& seg) {
  telemetry::SegmentReport s;
  s.batch = seg.batch;
  s.algo = seg.algo;
  s.algo_name =
      seg.algo < 0 ? "?" : std::string(kernels::algo_name(type, seg.algo));
  s.accumulate = seg.accumulate;
  s.workspace_bytes = seg.workspace;
  s.estimated_ms = seg.time_ms;
  return s;
}

}  // namespace

UcudnnHandle::UcudnnHandle()
    : UcudnnHandle(std::make_shared<device::Device>(device::host_cpu_spec()),
                   Options::from_env()) {}

UcudnnHandle::UcudnnHandle(std::shared_ptr<device::Device> dev)
    : UcudnnHandle(std::move(dev), Options::from_env()) {}

UcudnnHandle::UcudnnHandle(std::shared_ptr<device::Device> dev, Options options)
    : handle_(std::move(dev)),
      options_(validated(std::move(options))),
      planner_(handle_, options_,
               Benchmarker(handle_, std::make_shared<BenchmarkCache>()),
               stats_),
      executor_(handle_, options_, stats_) {
  init_cache_from_file();
}

void UcudnnHandle::init_cache_from_file() {
  if (options_.cache_path.empty()) return;
  // Loading happens here (not in a free helper) so a quarantined file is
  // visible in the handle's degradation stats.
  const CacheLoadResult result =
      planner_.benchmarker().cache()->load_file(options_.cache_path);
  if (result == CacheLoadResult::kQuarantined) stats_.cache_quarantines.add();
}

UcudnnHandle::~UcudnnHandle() {
  if (const std::string& report_path = telemetry::report_file_path();
      !report_path.empty()) {
    try {
      telemetry::write_report_file(execution_report(), report_path);
    } catch (const std::exception& e) {
      UCUDNN_LOG_WARN << "failed to write execution report: " << e.what();
    }
  }
  if (analysis::workspace_audit_enabled()) analysis::log_audit_report();
  if (stats_.any()) {
    UCUDNN_LOG_WARN << "degradation stats: " << stats_.to_string();
  }
  if (telemetry::telemetry_enabled()) {
    // One source of truth: the process-wide registry sums every handle's
    // counters (docs/observability.md).
    UCUDNN_LOG_INFO << "telemetry metrics snapshot:\n"
                    << telemetry::MetricsRegistry::instance().to_text();
  }
  if (!options_.cache_path.empty()) {
    try {
      planner_.benchmarker().cache()->save_file(options_.cache_path);
    } catch (const std::exception& e) {
      UCUDNN_LOG_WARN << "failed to persist benchmark cache: " << e.what();
    }
  }
}

void UcudnnHandle::set_next_kernel_label(std::string label) {
  MutexLock lock(mutex_);
  next_label_ = std::move(label);
}

KernelId UcudnnHandle::record_kernel(ConvKernelType type,
                                     const kernels::ConvProblem& problem) {
  std::optional<KernelId> id = planner_.find_kernel(type, problem);
  if (!id) {
    std::string label = next_label_;
    if (label.empty()) {
      label.append("kernel").append(std::to_string(recorded_kernels().size()));
    }
    label.append("(").append(to_string(type)).append(")");
    id = planner_.add_kernel(KernelRequest{type, problem, std::move(label)});
  }
  next_label_.clear();
  return *id;
}

std::size_t UcudnnHandle::workspace_size(ConvKernelType type,
                                         const kernels::ConvProblem& problem,
                                         int algo) {
  (void)type;
  (void)problem;
  (void)algo;
  return 0;  // μ-cuDNN manages workspace internally.
}

int UcudnnHandle::get_algorithm(ConvKernelType type,
                                const kernels::ConvProblem& problem,
                                mcudnn::AlgoPreference preference,
                                std::size_t ws_limit) {
  MutexLock lock(mutex_);
  // After WD finalization further queries are ignored (§III-E).
  if (wd_finalized()) return kVirtualAlgo;

  // Record unique kernels for WD, with the framework-provided limit.
  planner_.record_limit(record_kernel(type, problem),
                        mcudnn::workspace_limit(preference, ws_limit));
  return kVirtualAlgo;
}

MicroBenchmark UcudnnHandle::benchmark(ConvKernelType type,
                                       const kernels::ConvProblem& problem,
                                       BatchSizePolicy policy) {
  MutexLock lock(mutex_);
  return planner_.benchmarker().run(type, problem, policy);
}

void UcudnnHandle::finalize_wd() {
  MutexLock lock(mutex_);
  planner_.finalize_wd();
}

const Configuration* UcudnnHandle::configuration_for(
    ConvKernelType type, const kernels::ConvProblem& problem) {
  MutexLock lock(mutex_);
  const std::optional<KernelId> id = planner_.find_kernel(type, problem);
  return id ? planner_.configuration_for(*id) : nullptr;
}

UcudnnHandle::KernelExecRecord& UcudnnHandle::exec_record(KernelId id) {
  if (id >= exec_records_.size()) exec_records_.resize(id + 1);
  std::optional<KernelExecRecord>& record = exec_records_[id];
  if (!record) {
    record.emplace();
    exec_order_.push_back(id);
  }
  return *record;
}

void UcudnnHandle::convolution(ConvKernelType type,
                               const kernels::ConvProblem& problem, float alpha,
                               const float* a, const float* b, float beta,
                               float* out) {
  KernelId id = 0;
  std::optional<PlannedConvolution> planned;
  {
    MutexLock lock(mutex_);
    id = record_kernel(type, problem);
    // nullopt: the home workspace is leased and no spare could be
    // allocated, so wait for a call to hand its lease back.
    while (!(planned = planner_.plan(id))) lease_returned_.wait(mutex_);

    // Execution-report bookkeeping: refresh the record when the plan changed
    // (first call, or re-optimization after a new limit or a blacklist that
    // hit the kernel's division), which resets segment stats.
    KernelExecRecord& record = exec_record(id);
    if (record.plan != planned->plan) {
      record.plan = planned->plan;
      record.provenance = planner_.provenance_for(id);
      record.ws_limit = planned->plan->binding.kind == WorkspaceKind::kWdArena
                            ? options_.total_workspace_size
                            : planner_.effective_limit(id);
      record.segments.clear();
      record.segments.reserve(planned->plan->segments.size());
      for (const PlanSegment& seg : planned->plan->segments) {
        record.segments.push_back(segment_report(type, seg));
      }
    }
    ++record.executions;
  }

  // Filled while the kernel runs, without the lock. Reused per thread, so a
  // steady call allocates nothing for it.
  thread_local std::vector<MeasuredSegment> measured;
  measured.clear();
  int replans = 0;
  const WorkspaceLease& lease = planned->lease;
  try {
    executor_.run(
        *planned->plan, alpha, a, b, beta, out, lease.data(), lease.bytes,
        [&](int algo, std::int64_t done, int ordinal) {
          ++replans;
          MutexLock lock(mutex_);
          return planner_.replan_tail(type, problem, algo, done, lease.bytes,
                                      ordinal);
        },
        [](std::size_t idx, const PlanSegment& seg, double measured_ms) {
          measured.push_back({idx, seg, measured_ms});
        });
  } catch (...) {
    finish_call(id, *planned, replans, measured, false);
    throw;
  }
  finish_call(id, *planned, replans, measured, true);
}

void UcudnnHandle::finish_call(KernelId id, PlannedConvolution& planned,
                               int replans,
                               const std::vector<MeasuredSegment>& measured,
                               bool completed) {
  {
    MutexLock lock(mutex_);
    planner_.release(std::move(planned.lease));
    KernelExecRecord& record = *exec_records_[id];
    record.replans += static_cast<std::uint64_t>(replans);
    // A plan replaced since this call began has reset the stats; times of
    // the old plan are dropped.
    if (record.plan == planned.plan) {
      std::size_t executed = 0;
      for (const MeasuredSegment& m : measured) {
        if (m.index >= record.segments.size()) {
          record.segments.resize(m.index + 1);
        }
        telemetry::SegmentReport& s = record.segments[m.index];
        if (s.batch != m.segment.batch || s.algo != m.segment.algo) {
          // A tail re-plan replaced the schedule at this index; restart its
          // stats from the replacement segment's estimate.
          s = segment_report(planned.plan->type, m.segment);
        }
        s.measured_ms_total += m.ms;
        ++s.runs;
        executed = std::max(executed, m.index + 1);
      }
      if (completed && replans > 0 && record.segments.size() > executed) {
        // The re-planned schedule is shorter than the recorded one; the
        // stale tail slots were never run under the new plan.
        record.segments.resize(executed);
      }
    }
  }
  lease_returned_.notify_all();
}

telemetry::ExecutionReport UcudnnHandle::execution_report() const {
  MutexLock lock(mutex_);
  telemetry::ExecutionReport report;
  report.device = handle_.device().spec().name;
  report.policy = std::string(to_string(options_.workspace_policy));
  report.batch_size_policy =
      std::string(to_string(options_.batch_size_policy));
  report.plan_cache_hits = planner_.plan_cache_hits();
  report.plan_cache_misses = planner_.plan_cache_misses();
  if (stats_.any()) report.degradation = stats_.to_string();

  report.kernels.reserve(exec_order_.size());
  for (const KernelId id : exec_order_) {
    const KernelRequest& kernel = recorded_kernels()[id];
    const KernelExecRecord& record = *exec_records_[id];
    telemetry::KernelReport kr;
    kr.label = kernel.label;
    kr.kernel_type = std::string(to_string(kernel.type));
    kr.problem = kernel.problem.to_string();
    if (record.plan) {
      kr.plan = record.plan->to_string();
      kr.policy =
          record.plan->binding.kind == WorkspaceKind::kWdArena ? "WD" : "WR";
      kr.workspace_kind = std::string(to_string(record.plan->binding.kind));
      kr.workspace_declared = record.plan->workspace;
    }
    kr.provenance = record.provenance;
    kr.workspace_limit = record.ws_limit;
    kr.executions = record.executions;
    kr.replans = record.replans;
    kr.segments = record.segments;
    report.kernels.push_back(std::move(kr));
  }

  for (const auto& [kernel, stats] : analysis::audit_report()) {
    telemetry::WorkspaceAuditReport ar;
    ar.kernel = kernel;
    ar.declared_bytes = stats.declared_bytes;
    ar.touched_bytes = stats.max_touched;
    ar.runs = stats.runs;
    report.audit.push_back(std::move(ar));
  }
  return report;
}

double UcudnnHandle::estimation_error_pct() const noexcept {
  MutexLock lock(mutex_);
  telemetry::SegmentErrorMean mean;
  for (const KernelId id : exec_order_) mean.add(exec_records_[id]->segments);
  return mean.pct();
}

// --- cuDNN-shaped Status API ------------------------------------------------

Status mcudnnGetConvolutionWorkspaceSize(UcudnnHandle& handle,
                                         ConvKernelType type,
                                         const TensorDesc& in,
                                         const FilterDesc& w,
                                         const ConvGeometry& conv,
                                         const TensorDesc& out, int algo,
                                         std::size_t* bytes) {
  UCUDNN_API_BODY({
    check_param(bytes != nullptr, "null output pointer");
    *bytes = handle.workspace_size(
        type, mcudnn::make_problem(type, in, w, conv, out), algo);
  });
}

Status mcudnnGetConvolutionAlgorithm(UcudnnHandle& handle, ConvKernelType type,
                                     const TensorDesc& in, const FilterDesc& w,
                                     const ConvGeometry& conv,
                                     const TensorDesc& out,
                                     mcudnn::AlgoPreference preference,
                                     std::size_t ws_limit, int* algo) {
  UCUDNN_API_BODY({
    check_param(algo != nullptr, "null output pointer");
    *algo = handle.get_algorithm(
        type, mcudnn::make_problem(type, in, w, conv, out), preference,
        ws_limit);
  });
}

Status mcudnnConvolutionForward(UcudnnHandle& handle, float alpha,
                                const TensorDesc& x_desc, const float* x,
                                const FilterDesc& w_desc, const float* w,
                                const ConvGeometry& conv, int algo,
                                void* workspace, std::size_t workspace_bytes,
                                float beta, const TensorDesc& y_desc, float* y) {
  (void)algo;
  (void)workspace;
  (void)workspace_bytes;
  UCUDNN_API_BODY({
    handle.convolution(ConvKernelType::kForward,
                       mcudnn::make_problem(ConvKernelType::kForward, x_desc,
                                            w_desc, conv, y_desc),
                       alpha, x, w, beta, y);
  });
}

Status mcudnnConvolutionBackwardData(UcudnnHandle& handle, float alpha,
                                     const FilterDesc& w_desc, const float* w,
                                     const TensorDesc& dy_desc, const float* dy,
                                     const ConvGeometry& conv, int algo,
                                     void* workspace,
                                     std::size_t workspace_bytes, float beta,
                                     const TensorDesc& dx_desc, float* dx) {
  (void)algo;
  (void)workspace;
  (void)workspace_bytes;
  UCUDNN_API_BODY({
    handle.convolution(ConvKernelType::kBackwardData,
                       mcudnn::make_problem(ConvKernelType::kBackwardData,
                                            dy_desc, w_desc, conv, dx_desc),
                       alpha, dy, w, beta, dx);
  });
}

Status mcudnnConvolutionBackwardFilter(UcudnnHandle& handle, float alpha,
                                       const TensorDesc& x_desc, const float* x,
                                       const TensorDesc& dy_desc,
                                       const float* dy, const ConvGeometry& conv,
                                       int algo, void* workspace,
                                       std::size_t workspace_bytes, float beta,
                                       const FilterDesc& dw_desc, float* dw) {
  (void)algo;
  (void)workspace;
  (void)workspace_bytes;
  UCUDNN_API_BODY({
    handle.convolution(ConvKernelType::kBackwardFilter,
                       mcudnn::make_problem(ConvKernelType::kBackwardFilter,
                                            x_desc, dw_desc, conv, dy_desc),
                       alpha, x, dy, beta, dw);
  });
}

}  // namespace ucudnn::core
