// Fig. 8 reproduction: the desirable-configuration set (Pareto front in the
// execution-time x workspace plane) of AlexNet conv2 (Forward) on P100-SXM2
// with a 120 MiB workspace cap and mini-batch 256. Each point lists the
// micro-batch division and chosen algorithms, like the colored bars of the
// paper's figure (whose top-left point was 2 x 128 @ FFT_TILING).
#include <cstdio>

#include "bench/bench_util.h"
#include "core/benchmarker.h"
#include "core/wr_optimizer.h"

using namespace ucudnn;

int main(int argc, char** argv) {
  std::printf("Fig. 8: desirable configurations of AlexNet conv2 (Forward), "
              "P100-SXM2\n");
  std::printf("workspace cap 120 MiB, mini-batch 256, batch-size policy: all\n\n");

  bench::BenchArtifact artifact("fig08_pareto_front", argc, argv);
  artifact.config("device", "P100-SXM2");
  artifact.config("batch", 256);
  artifact.config("workspace_cap_mib", 120);
  artifact.paper("max_front_size", 68.0);

  core::Benchmarker benchmarker(mcudnn::Handle(bench::make_device("P100-SXM2")),
                                nullptr);
  const auto problem = bench::alexnet_conv2(256);
  const auto table = benchmarker.run(ConvKernelType::kForward, problem,
                                     core::BatchSizePolicy::kAll);
  const auto front = core::desirable_configurations(table, 256,
                                                    std::size_t{120} << 20);

  std::printf("%12s %12s   %s\n", "ws [MiB]", "time [ms]", "configuration");
  bench::print_rule();
  for (const auto& config : front) {
    std::printf("%12.2f %12.3f   %s\n", bench::mib(config.workspace),
                config.time_ms,
                config.to_string(ConvKernelType::kForward).c_str());
    artifact.add_row(
        bench::BenchRow()
            .col("configuration", config.to_string(ConvKernelType::kForward))
            .col("workspace_mib", bench::mib(config.workspace))
            .col("time_ms", config.time_ms));
  }
  bench::print_rule();
  std::printf("front size: %zu desirable configurations "
              "(paper: at most 68 across AlexNet's kernels)\n",
              front.size());
  return 0;
}
