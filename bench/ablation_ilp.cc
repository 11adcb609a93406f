// Ablations for the design choices called out in DESIGN.md §5:
//  1. Pareto pruning — desirable-set sizes vs the unpruned candidate space
//     (the reason the WD ILP is solvable at all, §III-C1).
//  2. WD solver choice — exact MCKP DP vs branch-and-bound over simplex
//     relaxations: identical objectives, different solve times.
//  3. Batch-size policy quality gap — how much end-to-end time `powerOfTwo`
//     leaves on the table vs `all`, against its benchmarking-time saving.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/timer.h"
#include "core/benchmarker.h"
#include "core/wd_optimizer.h"
#include "core/wr_optimizer.h"
#include "frameworks/caffepp/model_zoo.h"
#include "ilp/ilp.h"

using namespace ucudnn;

int main(int argc, char** argv) {
  bench::BenchArtifact artifact("ablation_ilp", argc, argv);
  artifact.config("device", "P100-SXM2");
  auto dev = bench::make_device("P100-SXM2");

  // ---- 1. Pareto pruning -------------------------------------------------
  std::printf("[1] Pareto pruning: desirable-set sizes (AlexNet conv2, "
              "batch 256, cap 120 MiB)\n");
  core::Benchmarker benchmarker(mcudnn::Handle(dev), nullptr);
  const auto problem = bench::alexnet_conv2(256);
  std::printf("%-12s %22s %18s\n", "policy", "unpruned candidates*",
              "Pareto front size");
  for (const auto policy :
       {core::BatchSizePolicy::kPowerOfTwo, core::BatchSizePolicy::kAll}) {
    const auto table = benchmarker.run(ConvKernelType::kForward, problem,
                                       policy);
    // Unpruned proxy: number of distinct micro-configurations; the full
    // division space is |A|^(#divisions), i.e. astronomically larger.
    std::size_t micro_configs = 0;
    for (const auto& perfs : table.perfs) micro_configs += perfs.size();
    const auto front = core::desirable_configurations(table, 256,
                                                      std::size_t{120} << 20);
    std::printf("%-12s %22zu %18zu\n", std::string(to_string(policy)).c_str(),
                micro_configs, front.size());
    artifact.add_row(bench::BenchRow()
                         .col("section", "pareto_pruning")
                         .col("policy", std::string(to_string(policy)))
                         .col("micro_configs", micro_configs)
                         .col("front_size", front.size()));
  }
  std::printf("(* micro-configurations only; unconstrained division count is "
              "O(|A|^B))\n\n");

  // ---- 2. Solver comparison ----------------------------------------------
  std::printf("[2] WD solver: exact MCKP DP vs branch-and-bound ILP "
              "(AlexNet, 120 MiB total)\n");
  std::vector<core::KernelRequest> requests;
  {
    core::UcudnnHandle probe(bench::make_device("P100-SXM2"),
                             bench::wr_options(std::size_t{8} << 20,
                                               core::BatchSizePolicy::kUndivided));
    caffepp::Net net(probe, "alexnet");
    caffepp::build_alexnet(net, 256);
    requests = probe.recorded_kernels();
  }
  // Both solvers get the one knapsack the WD optimizer builds.
  core::Benchmarker wd_bench(mcudnn::Handle(dev), benchmarker.cache());
  Timer build_timer;
  const core::WdKnapsack knapsack = core::build_wd_knapsack(
      wd_bench, requests, std::size_t{120} << 20,
      core::BatchSizePolicy::kPowerOfTwo);
  const double build_ms = build_timer.elapsed_ms();
  std::size_t variables = 0;
  for (const auto& group : knapsack.mckp.groups) variables += group.size();
  for (const bool dp : {true, false}) {
    const char* solver = dp ? "MCKP DP" : "B&B simplex";
    Timer timer;
    double objective = 0.0;
    if (dp) {
      objective = ilp::solve_mckp(knapsack.mckp).cost;
    } else {
      objective =
          ilp::solve_binary_ilp(ilp::mckp_to_ilp(knapsack.mckp)).objective;
    }
    const double solve_ms = timer.elapsed_ms();
    std::printf("  %-18s objective %10.3f ms, vars %4zu, solve %8.3f ms, "
                "pipeline %8.1f ms\n",
                solver, objective, variables, solve_ms, build_ms + solve_ms);
    artifact.add_row(bench::BenchRow()
                         .col("section", "wd_solver")
                         .col("solver", solver)
                         .col("objective_ms", objective)
                         .col("variables", variables)
                         .col("solve_ms", solve_ms));
  }
  std::printf("\n");

  // ---- 3. Policy quality gap ---------------------------------------------
  std::printf("[3] Policy quality vs optimization cost (AlexNet conv "
              "kernels, 64 MiB/kernel)\n");
  double quality[2] = {0, 0};
  double bench_ms[2] = {0, 0};
  int idx = 0;
  for (const auto policy :
       {core::BatchSizePolicy::kPowerOfTwo, core::BatchSizePolicy::kAll}) {
    core::Benchmarker fresh(mcudnn::Handle(bench::make_device("P100-SXM2")),
                            nullptr);
    double total = 0.0;
    for (const auto& request : requests) {
      const auto table = fresh.run(request.type, request.problem, policy);
      total += core::optimize_wr(table, request.problem.batch(),
                                 std::size_t{64} << 20)
                   .time_ms;
    }
    quality[idx] = total;
    bench_ms[idx] = fresh.total_benchmark_ms();
    std::printf("  %-12s configured conv time %10.2f ms, benchmarking "
                "%8.1f ms\n",
                std::string(to_string(policy)).c_str(), total, bench_ms[idx]);
    artifact.add_row(bench::BenchRow()
                         .col("section", "policy_quality")
                         .col("policy", std::string(to_string(policy)))
                         .col("conv_time_ms", total)
                         .col("benchmark_ms", bench_ms[idx]));
    ++idx;
  }
  std::printf("  all gains %.1f%% quality for %.1fx more benchmarking\n\n",
              100.0 * (quality[0] - quality[1]) / quality[0],
              bench_ms[1] / std::max(1e-9, bench_ms[0]));

  // ---- 4. WR workspace combiner: max vs sum --------------------------------
  std::printf("[4] Workspace combiner (DESIGN.md 5.4): sequential micro-"
              "batches share ONE buffer,\n    so a configuration costs "
              "max(micro ws), not sum(micro ws)\n");
  {
    const auto table = benchmarker.run(ConvKernelType::kForward, problem,
                                       core::BatchSizePolicy::kPowerOfTwo);
    const auto config = core::optimize_wr(table, 256, std::size_t{64} << 20);
    std::size_t sum = 0;
    for (const auto& micro : config.micro) sum += micro.workspace;
    std::printf("  conv2 @64 MiB picks %s\n",
                config.to_string(ConvKernelType::kForward).c_str());
    std::printf("  max-combiner footprint: %7.1f MiB (fits the limit)\n",
                bench::mib(config.workspace));
    std::printf("  sum-combiner would need: %6.1f MiB (%.1fx the limit -> "
                "the paper's configurations would be unreachable)\n",
                bench::mib(sum),
                static_cast<double>(sum) / (64.0 * 1024 * 1024));
  }
  return 0;
}
