// Offline benchmarking tool (§III-D): pre-benchmarks a model's convolution
// kernels into a file-based database that later runs — or other nodes of a
// homogeneous cluster, via a network filesystem — load instead of
// re-benchmarking.
//
// Usage: offline_cache_tool <cache.db> [model] [batch] [policy]
//   model:  alexnet | alexnet-grouped | resnet18 | resnet50 | densenet40
//   batch:  mini-batch size (default 256)
//   policy: undivided | powerOfTwo | all (default powerOfTwo)
//
// Exits non-zero if pass 2, which loads pass 1's database, calls
// find_algorithms at all or ends with a different number of entries.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "common/timer.h"
#include "frameworks/caffepp/model_zoo.h"
#include "telemetry/metrics.h"

using namespace ucudnn;

namespace {

void build(caffepp::Net& net, const std::string& model, std::int64_t batch) {
  if (model == "alexnet") {
    caffepp::build_alexnet(net, batch);
  } else if (model == "alexnet-grouped") {
    caffepp::build_alexnet_grouped(net, batch);
  } else if (model == "resnet18") {
    caffepp::build_resnet18(net, batch);
  } else if (model == "resnet50") {
    caffepp::build_resnet50(net, batch);
  } else if (model == "densenet40") {
    caffepp::build_densenet40(net, batch);
  } else {
    throw Error(Status::kInvalidValue, "unknown model: " + model);
  }
}

double benchmark_model(const std::string& cache_path, const std::string& model,
                       std::int64_t batch, core::BatchSizePolicy policy,
                       std::size_t* cache_entries) {
  auto dev = std::make_shared<device::Device>(device::p100_sxm2_spec());
  core::Options opts;
  opts.batch_size_policy = policy;
  opts.workspace_limit = std::size_t{64} << 20;
  opts.cache_path = cache_path;
  core::UcudnnHandle handle(dev, opts);
  caffepp::Net net(handle, model,
                   caffepp::NetOptions{std::size_t{64} << 20, true});
  build(net, model, batch);
  Timer timer;
  net.forward();  // triggers benchmarking + optimization of every kernel
  net.backward();
  const double elapsed = timer.elapsed_ms();
  *cache_entries = handle.cache()->size();
  return elapsed;  // handle destructor persists the database
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <cache.db> [model] [batch] [policy]\n", argv[0]);
    return 2;
  }
  const std::string cache_path = argv[1];
  const std::string model = argc > 2 ? argv[2] : "alexnet";
  const std::int64_t batch = argc > 3 ? std::atoll(argv[3]) : 256;
  const core::BatchSizePolicy policy =
      core::parse_batch_size_policy(argc > 4 ? argv[4] : "powerOfTwo");

  std::size_t entries = 0;
  std::printf("pass 1: benchmarking %s (batch %lld, policy %s) into %s\n",
              model.c_str(), static_cast<long long>(batch),
              std::string(to_string(policy)).c_str(), cache_path.c_str());
  const double cold = benchmark_model(cache_path, model, batch, policy,
                                      &entries);
  std::printf("  %.1f ms, database now holds %zu benchmark entries\n", cold,
              entries);

  std::printf("pass 2: same model, database preloaded (simulates another run "
              "or another cluster node)\n");
  const telemetry::Counter find_calls =
      telemetry::MetricsRegistry::instance().counter(
          "ucudnn.mcudnn.find_algorithms");
  const std::uint64_t finds_before = find_calls.value();
  const std::size_t cold_entries = entries;
  const double warm = benchmark_model(cache_path, model, batch, policy,
                                      &entries);
  const std::uint64_t warm_finds = find_calls.value() - finds_before;
  std::printf("  %.1f ms (%.1fx faster startup), %zu entries, %llu "
              "find_algorithms calls\n",
              warm, cold / warm, entries,
              static_cast<unsigned long long>(warm_finds));
  if (warm_finds != 0 || entries != cold_entries) {
    std::fprintf(stderr,
                 "pass 2 re-benchmarked: %llu find_algorithms calls, %zu "
                 "entries after pass 1's %zu\n",
                 static_cast<unsigned long long>(warm_finds), entries,
                 cold_entries);
    return 1;
  }
  return 0;
}
