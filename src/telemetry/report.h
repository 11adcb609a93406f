// ExecutionReport — the "plan explain" data model (docs/observability.md,
// "Execution reports & bench artifacts").
//
// For every convolution kernel a handle executed, the report captures the
// chosen micro-batch division with per-segment algorithms, DP/ILP-estimated
// vs executor-measured milliseconds per segment, workspace declared vs
// audit-touched bytes (when UCUDNN_AUDIT_WORKSPACE is on), plan-cache and
// degradation context, and the WR/WD policy metadata. The planner supplies
// the estimates, division, and provenance; the executor supplies measured
// segment times; the UcudnnHandle facade assembles the report on demand
// (UcudnnHandle::execution_report()) and dumps it at handle teardown when
// UCUDNN_REPORT_FILE is set — as JSON when the path ends in ".json", as the
// pretty text table otherwise.
//
// Layering contract (tools/check_layering.py): telemetry is a leaf, so this
// is a pure data model — strings and numbers only, populated by core through
// plain assignment, with no includes of core headers. UCUDNN_REPORT_FILE is
// therefore read with std::getenv, like the other telemetry variables.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ucudnn::telemetry {

/// One micro-batch segment of a kernel's plan: the DP-estimated cost next to
/// what the executor actually measured (device-clock delta on simulated
/// devices, wall clock on measured ones), accumulated over runs.
struct SegmentReport {
  std::int64_t batch = 0;
  int algo = -1;
  std::string algo_name;
  bool accumulate = false;          ///< BackwardFilter beta-accumulation
  std::uint64_t workspace_bytes = 0;  ///< declared workspace need
  double estimated_ms = 0.0;        ///< planner's modeled cost
  double measured_ms_total = 0.0;   ///< sum over runs
  std::uint64_t runs = 0;

  double measured_ms_avg() const noexcept {
    return runs == 0 ? 0.0 : measured_ms_total / static_cast<double>(runs);
  }
  /// |measured - estimated| / estimated * 100; 0 while unmeasured or when
  /// the estimate is 0.
  double error_pct() const noexcept;
};

/// One executed conv kernel: its division, provenance, and workspace story.
struct KernelReport {
  std::string label;        ///< layer label, e.g. "conv2(Forward)"
  std::string kernel_type;  ///< "Forward" | "BackwardData" | "BackwardFilter"
  std::string problem;      ///< ConvProblem::to_string()
  std::string plan;         ///< ExecutionPlan::to_string() — the explain line
  std::string policy;       ///< "WR" | "WD"
  std::string provenance;   ///< optimizer path, e.g. "wr_dp", "wd_mckp_dp"
  std::string workspace_kind;  ///< none | perKernel | sharedWR | wdArena
  std::uint64_t workspace_limit = 0;     ///< effective limit given to the DP
  std::uint64_t workspace_declared = 0;  ///< plan's declared workspace bytes
  std::uint64_t executions = 0;  ///< whole-plan runs through the executor
  std::uint64_t replans = 0;     ///< mid-batch tail re-plans observed
  std::vector<SegmentReport> segments;

  double estimated_ms() const noexcept;  ///< sum of segment estimates
  double measured_ms() const noexcept;   ///< sum of per-segment averages
  double error_pct() const noexcept;     ///< plan-level estimate error
};

/// Declared-vs-touched high-water of one audited kernel
/// (analysis::workspace_audit; present only under UCUDNN_AUDIT_WORKSPACE).
struct WorkspaceAuditReport {
  std::string kernel;  ///< audit display name, e.g. "WR/GEMM"
  std::uint64_t declared_bytes = 0;
  std::uint64_t touched_bytes = 0;
  std::uint64_t runs = 0;

  /// touched/declared in percent (0 when nothing was declared). Mirrored as
  /// the ucudnn.audit.ws_utilization.<kernel> gauge.
  double utilization_pct() const noexcept;
};

/// The full report of one UcudnnHandle.
struct ExecutionReport {
  std::string device;             ///< executing device name
  std::string policy;             ///< "WR" | "WD"
  std::string batch_size_policy;  ///< all | powerOfTwo | undivided
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  std::uint64_t plan_cache_epoch = 0;
  std::string degradation;  ///< DegradationStats::to_string(), "" = none
  std::vector<KernelReport> kernels;
  std::vector<WorkspaceAuditReport> audit;

  /// Mean per-segment |measured - estimated| / estimated over every measured
  /// segment, in percent. 0 when nothing was measured.
  double estimation_error_pct() const noexcept;
  /// Measured segments contributing to estimation_error_pct().
  std::uint64_t measured_segments() const noexcept;

  /// Pretty "plan explain" table (embeds each kernel's plan string).
  std::string to_text() const;
  /// Machine-readable form, schema "ucudnn-execution-report-v1".
  std::string to_json() const;
};

/// UCUDNN_REPORT_FILE ("" when unset). Read once per process with
/// std::getenv — telemetry is a leaf.
const std::string& report_file_path() noexcept;

/// Writes to_json() when `path` ends in ".json", to_text() otherwise.
/// stdio-only, so safe from destructors during static teardown.
void write_report_file(const ExecutionReport& report, const std::string& path);

}  // namespace ucudnn::telemetry
