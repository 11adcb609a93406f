// Fig. 14 reproduction: how WD divides a 120 MiB arena among AlexNet's 15
// convolution kernels (5 layers x Forward/BackwardFilter/BackwardData) on
// P100-SXM2, batch 256. The paper observes that conv2+conv3 take 93.7% of
// the arena while conv4/conv5 get under 3 MiB each — WD spends memory where
// the time payoff is.
#include <cstdio>

#include "bench/bench_util.h"
#include "frameworks/caffepp/model_zoo.h"

using namespace ucudnn;

int main(int argc, char** argv) {
  std::printf("Fig. 14: WD workspace division, AlexNet on P100-SXM2, "
              "batch 256, 120 MiB total\n\n");

  bench::BenchArtifact artifact("fig14_wd_division", argc, argv);
  artifact.config("device", "P100-SXM2");
  artifact.config("batch", 256);
  artifact.config("arena_mib", 120);
  artifact.paper("conv23_arena_share_pct", 93.7);

  auto dev = bench::make_device("P100-SXM2");
  core::UcudnnHandle handle(
      dev, bench::wd_options(std::size_t{120} << 20,
                             core::BatchSizePolicy::kPowerOfTwo));
  caffepp::Net net(handle, "alexnet");
  caffepp::build_alexnet(net, 256);
  net.forward();  // triggers WD optimization
  const core::WdPlan* plan = handle.wd_plan();
  if (plan == nullptr) {
    std::printf("WD plan missing!\n");
    return 1;
  }

  std::printf("%-28s %10s %10s   %s\n", "kernel", "ws[MiB]", "time[ms]",
              "configuration");
  bench::print_rule(108);
  const auto& requests = handle.recorded_kernels();
  std::size_t conv23 = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    const auto& assignment = plan->assignments[i];
    std::printf("%-28s %10.2f %10.3f   %s\n", request.label.c_str(),
                bench::mib(assignment.config.workspace),
                assignment.config.time_ms,
                assignment.config.to_string(request.type).c_str());
    artifact.add_row(
        bench::BenchRow()
            .col("kernel", request.label)
            .col("workspace_mib", bench::mib(assignment.config.workspace))
            .col("time_ms", assignment.config.time_ms)
            .col("configuration", assignment.config.to_string(request.type)));
    if (request.label.rfind("conv2", 0) == 0 ||
        request.label.rfind("conv3", 0) == 0) {
      conv23 += assignment.config.workspace;
    }
  }
  bench::print_rule(108);
  std::printf("arena used: %.1f / 120 MiB; ILP variables: %zu\n",
              bench::mib(plan->total_workspace), plan->num_variables);
  // Wall-clock, so off stdout: the figure prints the same bytes every run.
  std::fprintf(stderr, "solve: %.2f ms\n", plan->solve_ms);
  std::printf("conv2+conv3 share of assigned workspace: %.1f%% (paper: 93.7%%)\n",
              100.0 * static_cast<double>(conv23) /
                  static_cast<double>(std::max<std::size_t>(1, plan->total_workspace)));
  return 0;
}
