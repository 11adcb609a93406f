// Table I reproduction: the evaluation-environment specification. The
// hardware rows come from this reproduction's simulated device profiles; the
// software rows list the substitutions built for this repository (see
// DESIGN.md §2) and the host the HostCpu kernels run on: the instruction
// set of the GEMM register tile and the kernel pool size.
#include <cstdio>

#include "bench/bench_util.h"
#include "common/simd.h"
#include "common/thread_pool.h"

using namespace ucudnn;

int main(int argc, char** argv) {
  bench::BenchArtifact artifact("table1_environment", argc, argv);
  std::printf("Table I: evaluation environment specification\n\n");
  std::printf("%-22s %14s %14s %14s\n", "", "TSUBAME-KFC/DL", "TSUBAME 3",
              "DGX-1");
  bench::print_rule(70);
  const device::DeviceSpec specs[] = {device::k80_spec(),
                                      device::p100_sxm2_spec(),
                                      device::v100_sxm2_spec()};
  for (const auto& spec : specs) {
    artifact.add_row(bench::BenchRow()
                         .col("gpu", spec.name)
                         .col("sp_peak_tflops", spec.peak_sp_gflops / 1e3)
                         .col("mem_bandwidth_gbs", spec.mem_bandwidth_gbs)
                         .col("memory_gib", bench::mib(spec.memory_bytes) / 1024));
  }
  std::printf("%-22s %14s %14s %14s\n", "GPU (simulated)", specs[0].name.c_str(),
              specs[1].name.c_str(), specs[2].name.c_str());
  std::printf("%-22s %11.2f TF %11.2f TF %11.2f TF\n", "SP peak",
              specs[0].peak_sp_gflops / 1e3, specs[1].peak_sp_gflops / 1e3,
              specs[2].peak_sp_gflops / 1e3);
  std::printf("%-22s %9.0f GB/s %9.0f GB/s %9.0f GB/s\n", "memory bandwidth",
              specs[0].mem_bandwidth_gbs, specs[1].mem_bandwidth_gbs,
              specs[2].mem_bandwidth_gbs);
  std::printf("%-22s %10.0f GiB %10.0f GiB %10.0f GiB\n", "device memory",
              bench::mib(specs[0].memory_bytes) / 1024,
              bench::mib(specs[1].memory_bytes) / 1024,
              bench::mib(specs[2].memory_bytes) / 1024);
  bench::print_rule(70);
  std::printf("%-22s %s\n", "cuDNN substitute", "mcudnn (this repo)");
  std::printf("%-22s %s\n", "GLPK substitute", "ilp: simplex + B&B + MCKP DP");
  std::printf("%-22s %s\n", "Caffe substitute", "caffepp (this repo)");
  std::printf("%-22s %s\n", "TensorFlow substitute", "tfmini (this repo)");
  std::printf("%-22s %s\n", "C++ standard", "C++20");
  const std::size_t pool_threads = ThreadPool::global().num_threads();
  std::printf("%-22s %s\n", "host SIMD (GEMM tile)", simd::active_isa());
  std::printf("%-22s %zu\n", "kernel pool threads", pool_threads);
  artifact.config("simd_isa", simd::active_isa());
  artifact.config("kernel_pool_threads", pool_threads);
  return 0;
}
