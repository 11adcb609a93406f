// WD (Workspace Division) optimization, §III-C of the paper: one workspace
// arena per network, divided among all convolution kernels. Per-kernel
// desirable-configuration sets (Pareto fronts) feed a 0-1 ILP
//
//   min  Σ_k Σ_{c ∈ D_k} t_{k,c} · x_{k,c}
//   s.t. Σ_k Σ_c m_{k,c} · x_{k,c} ≤ W_total,   Σ_c x_{k,c} = 1  ∀k,
//
// which is a multiple-choice knapsack, solved exactly by the MCKP DP (the
// GLPK-replacement path, ilp::solve_mckp). The DP keeps the (workspace,
// time) Pareto front of partial sums kernel by kernel, merging the previous
// front shifted by each configuration. Weights are multiples of
// kWdAlignment, so a front has at most W_total / 256 + 1 entries; the
// largest on the committed benches is 3,734 (sim_resnet50, 2 GiB arena). The
// branch-and-bound ILP solver in src/ilp stays a cross-validation and
// ablation tool over the same WdKnapsack.
#pragma once

#include <vector>

#include "core/benchmarker.h"
#include "core/types.h"
#include "ilp/ilp.h"

namespace ucudnn::core {

/// One kernel's outcome: its chosen configuration and the byte range
/// [offset, offset + config.workspace) it owns inside the shared arena.
struct WdAssignment {
  Configuration config;
  std::size_t offset = 0;
};

struct WdPlan {
  std::vector<WdAssignment> assignments;  // parallel to the request list
  std::size_t total_workspace = 0;        // arena bytes actually used
  double total_time_ms = 0.0;             // Σ configured kernel times
  std::size_t num_variables = 0;          // ILP size after Pareto pruning
  std::size_t num_variables_unpruned = 0; // |A|-per-division upper bound proxy
  double solve_ms = 0.0;                  // ilp::solve_mckp wall time
};

/// The WD problem before solving: each request's desirable set and the
/// multiple-choice knapsack over them (group g = request g, item i =
/// fronts[g][i], weights segment-aligned).
struct WdKnapsack {
  std::vector<std::vector<Configuration>> fronts;
  ilp::MckpProblem mckp;
  std::size_t num_variables_unpruned = 0;
};

/// Benchmarks every request and builds its knapsack. Throws
/// Error(kNotSupported) when some kernel has no configuration within
/// `total_limit`.
WdKnapsack build_wd_knapsack(Benchmarker& benchmarker,
                             const std::vector<KernelRequest>& requests,
                             std::size_t total_limit, BatchSizePolicy policy);

/// Runs the full WD pipeline: benchmark -> desirable sets -> MCKP DP ->
/// segment assignment. Throws Error(kNotSupported) if no feasible division
/// exists (cannot happen when zero-workspace algorithms are available).
WdPlan optimize_wd(Benchmarker& benchmarker,
                   const std::vector<KernelRequest>& requests,
                   std::size_t total_limit, BatchSizePolicy policy);

/// Workspace segment alignment inside the WD arena.
inline constexpr std::size_t kWdAlignment = 256;

}  // namespace ucudnn::core
