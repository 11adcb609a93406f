// ExecutionPlan — the fully-resolved micro-batch schedule IR.
//
// The paper's pipeline is two-phase: optimize micro-batch divisions (WR DP
// §III-B/D, WD Pareto + ILP §III-C/E), then execute the resulting schedule.
// This header is the boundary object between those phases: a plan is a
// sequence of segments, each carrying its sub-batch, algorithm, precomputed
// operand offsets and beta-accumulation flag, plus a workspace binding
// describing which buffer the segments share. Everything execution needs is
// resolved here at plan-build time, so the steady-state hot path neither
// re-derives strides nor consults the optimizer.
//
// Layering contract (enforced by tools/check_layering.py): this translation
// unit depends only on the core data model — it includes neither the
// planner nor the executor.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.h"

namespace ucudnn::core {

/// Where a plan's workspace lives. The planner owns the buffers; the binding
/// names one of them so a cached plan stays valid across buffer growth (the
/// pointer is resolved at fetch time, not stored in the plan).
enum class WorkspaceKind {
  kNone,       ///< zero-workspace plan; nothing is bound
  kPerKernel,  ///< the kernel's private WR buffer (§III-A per-layer workspace)
  kSharedWr,   ///< the single shared WR buffer (sequential execution)
  kWdArena,    ///< a slice of the WD arena (§III-C one arena per network)
};

constexpr std::string_view to_string(WorkspaceKind k) noexcept {
  switch (k) {
    case WorkspaceKind::kNone: return "none";
    case WorkspaceKind::kPerKernel: return "perKernel";
    case WorkspaceKind::kSharedWr: return "sharedWR";
    case WorkspaceKind::kWdArena: return "wdArena";
  }
  return "unknown";
}

struct WorkspaceBinding {
  WorkspaceKind kind = WorkspaceKind::kNone;
  std::size_t offset = 0;  ///< byte offset into the WD arena (kWdArena only)
  std::size_t bytes = 0;   ///< bytes the plan may use from the bound buffer

  bool operator==(const WorkspaceBinding&) const = default;
};

/// Per-micro-batch element strides of the three operands (0 = the operand is
/// not sliced along the batch dimension). This is THE stride computation for
/// the whole library; kForward slices x and y, kBackwardData slices dy and
/// dx, kBackwardFilter slices x and dy while dw accumulates in place.
struct OperandStrides {
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t out = 0;
};

OperandStrides operand_strides(ConvKernelType type,
                               const kernels::ConvProblem& problem) noexcept;

/// One executable unit: run `algo` on `batch` samples at precomputed operand
/// offsets. Offsets are in elements from the start of each full operand
/// (cumulative batch x stride), so execution is pure pointer arithmetic.
struct PlanSegment {
  std::int64_t batch = 0;
  int algo = -1;
  std::int64_t a_offset = 0;
  std::int64_t b_offset = 0;
  std::int64_t out_offset = 0;
  /// BackwardFilter accumulates dw across micro-batches with beta = 1 (the
  /// output-scale trick, §III-A); true for every BackwardFilter segment
  /// after the first. False segments receive the caller's beta.
  bool accumulate = false;
  double time_ms = 0.0;       ///< modeled/measured cost of this segment
  std::size_t workspace = 0;  ///< declared workspace need of this segment

  bool operator==(const PlanSegment&) const = default;
};

/// A fully-resolved micro-batched convolution: the unit handed from the
/// planner to the executor, stored in the planner's per-kernel slot.
struct ExecutionPlan {
  ConvKernelType type = ConvKernelType::kForward;
  kernels::ConvProblem problem;       ///< the full mini-batch problem
  std::vector<PlanSegment> segments;  ///< covers problem.batch() exactly
  WorkspaceBinding binding;
  std::size_t workspace = 0;  ///< max over segment workspaces (shared buffer)
  double time_ms = 0.0;       ///< sum over segment times

  std::int64_t batch() const noexcept { return problem.batch(); }

  /// Human-readable dump, e.g.
  /// "Forward x(8,6,10,10) [4:GEMM@0, 4:GEMM@384(acc)] ws=12288 perKernel".
  std::string to_string() const;
};

/// Lowers an optimizer Configuration into an ExecutionPlan: computes operand
/// strides once, walks the division accumulating offsets, and marks
/// BackwardFilter accumulation segments. Throws Error(kInternalError) when
/// the configuration does not cover the mini-batch.
ExecutionPlan build_plan(ConvKernelType type,
                         const kernels::ConvProblem& problem,
                         const Configuration& config,
                         const WorkspaceBinding& binding);

/// Lowers a tail re-plan (the division replacing the not-yet-executed rest
/// of a mini-batch after `done` samples) into splice-ready segments: offsets
/// continue from `done`, and for BackwardFilter every segment after the
/// global first (done > 0, or any non-leading segment) keeps accumulating —
/// preserving the partial dw bitwise across the splice. Throws
/// Error(kInternalError) when the tail does not cover the remaining batch.
std::vector<PlanSegment> build_tail_segments(
    ConvKernelType type, const kernels::ConvProblem& problem,
    const Configuration& tail, std::int64_t done);

}  // namespace ucudnn::core
