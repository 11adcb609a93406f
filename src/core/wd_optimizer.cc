#include "core/wd_optimizer.h"

#include "common/mathutil.h"
#include "common/status.h"
#include "common/timer.h"
#include "core/wr_optimizer.h"

namespace ucudnn::core {

WdKnapsack build_wd_knapsack(Benchmarker& benchmarker,
                             const std::vector<KernelRequest>& requests,
                             std::size_t total_limit, BatchSizePolicy policy) {
  WdKnapsack knapsack;
  knapsack.mckp.capacity = static_cast<std::int64_t>(total_limit);
  knapsack.fronts.reserve(requests.size());
  knapsack.mckp.groups.reserve(requests.size());
  // Identical kernels share benchmark results via the cache, e.g. ResNet's
  // replicated layers.
  for (const auto& request : requests) {
    const MicroBenchmark bench =
        benchmarker.run(request.type, request.problem, policy);
    auto front = desirable_configurations(bench, request.problem.batch(),
                                          total_limit);
    check(!front.empty(), Status::kNotSupported,
          "no feasible configuration for kernel " + request.label);
    // Estimate of the unpruned candidate count for the ablation report:
    // algorithms-per-size ^ divisions is astronomical; we report the sum of
    // benchmarked micro-configs as a conservative proxy instead.
    for (const auto& perfs : bench.perfs) {
      knapsack.num_variables_unpruned += perfs.size();
    }
    // Weights are segment-aligned so that the arena layout never overruns
    // the limit.
    std::vector<ilp::MckpItem> group;
    group.reserve(front.size());
    for (const auto& config : front) {
      group.push_back(ilp::MckpItem{
          config.time_ms,
          static_cast<std::int64_t>(round_up(config.workspace, kWdAlignment))});
    }
    knapsack.mckp.groups.push_back(std::move(group));
    knapsack.fronts.push_back(std::move(front));
  }
  return knapsack;
}

WdPlan optimize_wd(Benchmarker& benchmarker,
                   const std::vector<KernelRequest>& requests,
                   std::size_t total_limit, BatchSizePolicy policy) {
  WdPlan plan;
  if (requests.empty()) return plan;
  const WdKnapsack knapsack =
      build_wd_knapsack(benchmarker, requests, total_limit, policy);
  plan.num_variables_unpruned = knapsack.num_variables_unpruned;
  for (const auto& front : knapsack.fronts) plan.num_variables += front.size();

  Timer timer;
  const ilp::MckpResult result = ilp::solve_mckp(knapsack.mckp);
  check(result.feasible, Status::kNotSupported,
        "WD ILP infeasible for total workspace limit " +
            std::to_string(total_limit));
  plan.solve_ms = timer.elapsed_ms();

  // Lay out arena segments in request order.
  std::size_t cursor = 0;
  plan.assignments.reserve(requests.size());
  for (std::size_t g = 0; g < knapsack.fronts.size(); ++g) {
    const int choice = result.selection[g];
    check(choice >= 0, Status::kInternalError, "WD selection incomplete");
    WdAssignment assignment;
    assignment.config = knapsack.fronts[g][static_cast<std::size_t>(choice)];
    assignment.offset = cursor;
    cursor += round_up(assignment.config.workspace, kWdAlignment);
    plan.total_time_ms += assignment.config.time_ms;
    plan.assignments.push_back(std::move(assignment));
  }
  plan.total_workspace = cursor;
  check(plan.total_workspace <= total_limit, Status::kInternalError,
        "WD arena layout exceeds the limit");
  return plan;
}

}  // namespace ucudnn::core
