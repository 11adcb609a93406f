// Extension experiment (paper §III-A motivation, §VI outlook): WD's per-
// network arena "enables small groups of convolution operations, as in the
// Inception module, to run concurrently". This harness quantifies that on
// the stream-aware device simulator: the four Inception-branch forward
// chains run on four streams (wall time = max over branches), comparing
//   (a) WR with the budget split evenly per kernel   vs
//   (b) WD dividing the same total budget by the ILP,
// both executed sequentially and concurrently.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/benchmarker.h"
#include "core/wd_optimizer.h"
#include "core/wr_optimizer.h"

using namespace ucudnn;

namespace {

// The six convolutions of a GoogLeNet inception(3a) module at batch 64,
// grouped by branch (branch index -> stream).
struct Kernel {
  const char* name;
  int branch;
  kernels::ConvProblem problem;
};

std::vector<Kernel> inception_kernels() {
  const std::int64_t n = 64;
  return {
      {"1x1", 0, {{n, 192, 28, 28}, {64, 192, 1, 1}, {}}},
      {"3x3_reduce", 1, {{n, 192, 28, 28}, {96, 192, 1, 1}, {}}},
      {"3x3", 1, {{n, 96, 28, 28}, {128, 96, 3, 3}, {.pad_h = 1, .pad_w = 1}}},
      {"5x5_reduce", 2, {{n, 192, 28, 28}, {16, 192, 1, 1}, {}}},
      {"5x5", 2, {{n, 16, 28, 28}, {32, 16, 5, 5}, {.pad_h = 2, .pad_w = 2}}},
      {"pool_proj", 3, {{n, 192, 28, 28}, {32, 192, 1, 1}, {}}},
  };
}

// Executes the chosen configurations, each kernel on its branch's stream
// (or all on stream 0 for the sequential baseline), and returns wall ms.
double execute(const std::vector<Kernel>& kernels,
               const std::vector<core::Configuration>& configs,
               bool concurrent) {
  auto dev = bench::make_device("P100-SXM2");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    mcudnn::Handle handle(dev, mcudnn::ExecMode::kVirtual);
    handle.set_stream(concurrent ? kernels[i].branch : 0);
    for (const auto& micro : configs[i].micro) {
      mcudnn::convolution(handle, ConvKernelType::kForward,
                          kernels[i].problem.with_batch(micro.batch), 1.0f,
                          nullptr, nullptr, 0.0f, nullptr, micro.algo, nullptr,
                          micro.workspace);
    }
  }
  dev->sync_streams();
  return dev->clock_ms();
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArtifact artifact("ext_streams_wd", argc, argv);
  artifact.config("device", "P100-SXM2");
  artifact.config("batch", 64);
  std::printf("Extension: concurrent Inception branches under WR vs WD\n");
  std::printf("(inception-3a forward kernels, batch 64, P100-SXM2, four "
              "streams)\n\n");

  const auto kernels = inception_kernels();
  core::Benchmarker benchmarker({mcudnn::Handle(bench::make_device("P100-SXM2"))},
                                nullptr);

  for (const std::size_t total_mib : {24, 96}) {
    const std::size_t total = total_mib << 20;
    const std::size_t per_kernel = total / kernels.size();

    // WR: every kernel gets total/6.
    std::vector<core::Configuration> wr_configs;
    for (const auto& kernel : kernels) {
      const auto table = benchmarker.run(ConvKernelType::kForward,
                                         kernel.problem,
                                         core::BatchSizePolicy::kPowerOfTwo);
      wr_configs.push_back(
          core::optimize_wr(table, kernel.problem.batch(), per_kernel));
    }

    // WD: the ILP divides the same total.
    std::vector<core::KernelRequest> requests;
    for (const auto& kernel : kernels) {
      requests.push_back(
          {ConvKernelType::kForward, kernel.problem, kernel.name});
    }
    const core::WdPlan plan =
        core::optimize_wd(benchmarker, requests, total,
                          core::BatchSizePolicy::kPowerOfTwo);
    std::vector<core::Configuration> wd_configs;
    for (const auto& assignment : plan.assignments) {
      wd_configs.push_back(assignment.config);
    }

    std::printf("--- total workspace %zu MiB (%zu MiB/kernel for WR) ---\n",
                total_mib, per_kernel >> 20);
    const double wr_seq = execute(kernels, wr_configs, false);
    const double wr_con = execute(kernels, wr_configs, true);
    const double wd_seq = execute(kernels, wd_configs, false);
    const double wd_con = execute(kernels, wd_configs, true);
    std::printf("%-22s %10s %12s %10s\n", "", "seq [ms]", "concurrent",
                "overlap");
    std::printf("%-22s %10.3f %12.3f %9.2fx\n", "WR (even split)", wr_seq,
                wr_con, wr_seq / wr_con);
    std::printf("%-22s %10.3f %12.3f %9.2fx\n", "WD (ILP division)", wd_seq,
                wd_con, wd_seq / wd_con);
    artifact.add_row(bench::BenchRow()
                         .col("policy", "WR")
                         .col("total_mib", total_mib)
                         .col("sequential_ms", wr_seq)
                         .col("concurrent_ms", wr_con)
                         .col("overlap_speedup", wr_seq / wr_con));
    artifact.add_row(bench::BenchRow()
                         .col("policy", "WD")
                         .col("total_mib", total_mib)
                         .col("sequential_ms", wd_seq)
                         .col("concurrent_ms", wd_con)
                         .col("overlap_speedup", wd_seq / wd_con));
    std::printf("WD vs WR: %.2fx sequential, %.2fx concurrent\n\n",
                wr_seq / wd_seq, wr_con / wd_con);
    std::printf("WD segment sizes: ");
    for (std::size_t i = 0; i < kernels.size(); ++i) {
      std::printf("%s=%.1fMiB ", kernels[i].name,
                  bench::mib(wd_configs[i].workspace));
    }
    std::printf("\n\n");
  }
  std::printf("Takeaway: the ILP shifts budget to the 3x3/5x5 branches whose\n"
              "FFT/Winograd configurations need it, which pays off twice —\n"
              "shorter critical path when branches overlap on streams.\n");
  return 0;
}
