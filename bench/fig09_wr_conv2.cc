// Fig. 9 reproduction: WR-optimized forward convolution of AlexNet's conv2
// on P100-SXM2 with a 64 MiB workspace limit and mini-batch 256, comparing
// the three batch-size policies. The paper's headline: powerOfTwo unlocks
// FFT at micro-batch 32 within ~49 MiB; `all` adds Winograd-class choices,
// reaching 2.33x over undivided.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/benchmarker.h"
#include "core/wr_optimizer.h"

using namespace ucudnn;

int main(int argc, char** argv) {
  std::printf("Fig. 9: WR optimization of AlexNet conv2 (Forward), "
              "P100-SXM2, 64 MiB limit, batch 256\n\n");

  bench::BenchArtifact artifact("fig09_wr_conv2", argc, argv);
  artifact.config("device", "P100-SXM2");
  artifact.config("batch", 256);
  artifact.config("workspace_limit_mib", 64);
  artifact.paper("all_speedup", 2.33);
  artifact.paper("fft_ws_mib", 48.9);

  core::Benchmarker benchmarker(mcudnn::Handle(bench::make_device("P100-SXM2")),
                                nullptr);
  const auto problem = bench::alexnet_conv2(256);
  const std::size_t limit = std::size_t{64} << 20;

  double undivided_ms = 0.0;
  std::printf("%-12s %10s %10s %8s   %s\n", "policy", "time[ms]", "ws[MiB]",
              "speedup", "configuration");
  bench::print_rule(100);
  for (const auto policy :
       {core::BatchSizePolicy::kUndivided, core::BatchSizePolicy::kPowerOfTwo,
        core::BatchSizePolicy::kAll}) {
    const auto table = benchmarker.run(ConvKernelType::kForward, problem,
                                       policy);
    const auto config = core::optimize_wr(table, 256, limit);
    if (policy == core::BatchSizePolicy::kUndivided) {
      undivided_ms = config.time_ms;
    }
    std::printf("%-12s %10.3f %10.2f %7.2fx   %s\n",
                std::string(to_string(policy)).c_str(), config.time_ms,
                bench::mib(config.workspace), undivided_ms / config.time_ms,
                config.to_string(ConvKernelType::kForward).c_str());
    artifact.add_row(
        bench::BenchRow()
            .col("policy", std::string(to_string(policy)))
            .col("time_ms", config.time_ms)
            .col("workspace_mib", bench::mib(config.workspace))
            .col("speedup", undivided_ms / config.time_ms)
            .col("configuration",
                 config.to_string(ConvKernelType::kForward)));
  }
  bench::print_rule(100);
  std::printf("(paper: FFT @ micro-batch 32 using 48.9 MiB; all = 2.33x over "
              "undivided)\n");
  return 0;
}
