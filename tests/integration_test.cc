// Cross-module integration tests: whole-framework numeric equivalence under
// different μ-cuDNN policies, cross-framework parity, cache persistence
// across handles, multi-device benchmarking through the handle, and failure
// injection (device OOM, infeasible WD).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "core/ucudnn.h"
#include "frameworks/caffepp/model_zoo.h"
#include "frameworks/caffepp/net.h"
#include "frameworks/tfmini/tfmini.h"
#include "telemetry/metrics.h"

namespace ucudnn {
namespace {

std::shared_ptr<device::Device> cpu() {
  return std::make_shared<device::Device>(device::host_cpu_spec());
}

core::Options wr(std::size_t limit, core::BatchSizePolicy policy =
                                        core::BatchSizePolicy::kPowerOfTwo) {
  core::Options opts;
  opts.batch_size_policy = policy;
  opts.workspace_limit = limit;
  return opts;
}

// Builds a small but representative net and returns (output, input-grad,
// one conv weight grad) after forward+backward with deterministic init.
struct NetResult {
  std::vector<float> output;
  std::vector<float> input_grad;
};

NetResult run_small_net(core::UcudnnHandle& handle) {
  caffepp::Net net(handle, "itest", caffepp::NetOptions{1 << 20, true});
  net.input("data", {6, 3, 14, 14});
  std::string top = net.conv("c1", "data", 8, 3, 1, 1);
  top = net.relu("r1", top);
  top = net.conv("c2", top, 8, 3, 1, 1);
  top = net.pool_max("p1", top, 2, 2);
  top = net.fc("f1", top, 10);
  top = net.softmax_loss("loss", top);
  net.init(99);
  net.forward();
  net.backward();

  NetResult result;
  caffepp::Blob* out = net.blob("f1");
  result.output.assign(out->data(), out->data() + out->count());
  caffepp::Blob* in = net.blob("data");
  result.input_grad.assign(in->diff(), in->diff() + in->count());
  return result;
}

TEST(PolicyEquivalenceTest, AllPoliciesProduceTheSameNumerics) {
  // The whole point of μ-cuDNN: hardware efficiency changes, semantics do
  // not. Undivided vs powerOfTwo vs all, tight vs loose workspace — outputs
  // and gradients must agree to float tolerance.
  core::UcudnnHandle baseline(cpu(),
                              wr(std::size_t{256} << 20,
                                 core::BatchSizePolicy::kUndivided));
  const NetResult expected = run_small_net(baseline);

  struct Case {
    std::size_t limit;
    core::BatchSizePolicy policy;
  };
  for (const Case c : {Case{0, core::BatchSizePolicy::kPowerOfTwo},
                       Case{64 << 10, core::BatchSizePolicy::kPowerOfTwo},
                       Case{1 << 20, core::BatchSizePolicy::kAll},
                       Case{8 << 20, core::BatchSizePolicy::kAll}}) {
    core::UcudnnHandle handle(cpu(), wr(c.limit, c.policy));
    const NetResult got = run_small_net(handle);
    EXPECT_LT(max_rel_diff(got.output.data(), expected.output.data(),
                           static_cast<std::int64_t>(expected.output.size())),
              1e-3)
        << "limit " << c.limit;
    EXPECT_LT(max_rel_diff(got.input_grad.data(), expected.input_grad.data(),
                           static_cast<std::int64_t>(expected.input_grad.size())),
              2e-3)
        << "limit " << c.limit;
  }
}

TEST(PolicyEquivalenceTest, WdMatchesWrNumerics) {
  core::UcudnnHandle baseline(cpu(), wr(std::size_t{256} << 20,
                                        core::BatchSizePolicy::kUndivided));
  const NetResult expected = run_small_net(baseline);

  core::Options wd;
  wd.workspace_policy = core::WorkspacePolicy::kWD;
  wd.total_workspace_size = std::size_t{3} << 20;
  wd.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  core::UcudnnHandle handle(cpu(), wd);
  const NetResult got = run_small_net(handle);
  EXPECT_LT(max_rel_diff(got.output.data(), expected.output.data(),
                         static_cast<std::int64_t>(expected.output.size())),
            1e-3);
  EXPECT_LT(max_rel_diff(got.input_grad.data(), expected.input_grad.data(),
                         static_cast<std::int64_t>(expected.input_grad.size())),
            2e-3);
}

TEST(CrossFrameworkTest, CaffeppAndTfminiAgreeOnAConvolution) {
  // One conv layer, identical weights and inputs, both frameworks, both
  // through μ-cuDNN: outputs must match.
  const TensorShape in_shape{3, 4, 10, 10};
  Tensor x(in_shape), w(TensorShape{6, 4, 3, 3});
  fill_random(x, 7);
  fill_random(w, 8);

  // caffepp (bias disabled so both compute pure convolutions).
  std::vector<float> y_caffe;
  {
    core::UcudnnHandle handle(cpu(), wr(1 << 20));
    caffepp::Net net(handle, "x", caffepp::NetOptions{1 << 20, true});
    net.input("data", in_shape);
    net.conv("c", "data", 6, 3, 1, 1, /*bias=*/false);
    net.init(1);
    // Overwrite the random init with our fixed weights and input.
    std::copy(x.data(), x.data() + x.count(), net.blob("data")->data());
    auto* layer = dynamic_cast<caffepp::ConvLayer*>(net.layers()[0].get());
    ASSERT_NE(layer, nullptr);
    std::copy(w.data(), w.data() + w.count(), layer->params()[0]->data());
    net.forward();
    caffepp::Blob* out = net.blob("c");
    y_caffe.assign(out->data(), out->data() + out->count());
  }

  // tfmini.
  std::vector<float> y_tf;
  {
    tfmini::Graph graph;
    const int input = graph.placeholder("x", in_shape);
    const int weights = graph.variable("w", {6, 4, 3, 3});
    const int conv = graph.conv2d("c", input, weights, 1, tfmini::Padding::kSame);
    core::UcudnnHandle handle(cpu(), wr(1 << 20));
    tfmini::Session session(graph, handle);
    session.initialize(1);
    std::copy(x.data(), x.data() + x.count(), session.data(input));
    std::copy(w.data(), w.data() + w.count(), session.data(weights));
    session.run_forward();
    const std::int64_t count = graph.op(conv).shape.count();
    y_tf.assign(session.data(conv), session.data(conv) + count);
  }

  ASSERT_EQ(y_caffe.size(), y_tf.size());
  EXPECT_LT(max_rel_diff(y_caffe.data(), y_tf.data(),
                         static_cast<std::int64_t>(y_caffe.size())),
            1e-4);
}

TEST(CachePersistenceTest, SecondHandleReusesTheDatabase) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_itest_cache.db")
          .string();
  std::remove(path.c_str());

  const kernels::ConvProblem problem({16, 8, 12, 12}, {8, 8, 3, 3},
                                     {.pad_h = 1, .pad_w = 1});
  auto dev = std::make_shared<device::Device>(device::p100_sxm2_spec());

  core::Configuration first_config;
  {
    core::Options opts = wr(std::size_t{32} << 20);
    opts.cache_path = path;
    core::UcudnnHandle handle(dev, opts);
    handle.convolution(ConvKernelType::kForward, problem, 1.0f, nullptr,
                       nullptr, 0.0f, nullptr);
    first_config =
        *handle.configuration_for(ConvKernelType::kForward, problem);
    EXPECT_GT(handle.cache()->size(), 0u);
  }  // destructor persists the DB

  {
    core::Options opts = wr(std::size_t{32} << 20);
    opts.cache_path = path;
    core::UcudnnHandle handle(dev, opts);
    EXPECT_GT(handle.cache()->size(), 0u);  // loaded from disk
    handle.convolution(ConvKernelType::kForward, problem, 1.0f, nullptr,
                       nullptr, 0.0f, nullptr);
    const core::Configuration* config =
        handle.configuration_for(ConvKernelType::kForward, problem);
    ASSERT_NE(config, nullptr);
    EXPECT_EQ(config->micro.size(), first_config.micro.size());
    EXPECT_DOUBLE_EQ(config->time_ms, first_config.time_ms);
    // All benchmark lookups were cache hits: nothing new got measured.
    EXPECT_LT(handle.total_benchmark_ms(), 50.0);
  }
  std::remove(path.c_str());
}

TEST(CachePersistenceTest, DatabaseServesAnotherBatchSize) {
  // Entries are keyed on the micro problem they timed, so a database written
  // while planning a net at batch 16 holds every micro problem (sizes 1-8)
  // of the same net at batch 8.
  const std::string path =
      (std::filesystem::temp_directory_path() / "ucudnn_itest_batches.db")
          .string();
  std::remove(path.c_str());
  auto dev = std::make_shared<device::Device>(device::p100_sxm2_spec());
  const auto plan_net = [&](std::int64_t batch) {
    core::Options opts = wr(std::size_t{1} << 20);
    opts.cache_path = path;
    core::UcudnnHandle handle(dev, opts);
    caffepp::Net net(handle, "reuse", caffepp::NetOptions{1 << 20, true});
    net.input("data", {batch, 3, 14, 14});
    std::string top = net.conv("c1", "data", 8, 3, 1, 1);
    top = net.conv("c2", top, 16, 3, 2, 1);
    top = net.fc("f1", top, 10);
    net.softmax_loss("loss", top);
    net.init(5);
    net.forward();
    net.backward();
    return handle.cache()->size();
  };  // the handle's destructor saves the database

  const std::size_t entries = plan_net(16);
  EXPECT_GT(entries, 0u);
  const telemetry::Counter find_calls =
      telemetry::MetricsRegistry::instance().counter(
          "ucudnn.mcudnn.find_algorithms");
  const std::uint64_t before = find_calls.value();
  EXPECT_EQ(plan_net(8), entries);
  EXPECT_EQ(find_calls.value(), before);
  std::remove(path.c_str());
}

TEST(FailureInjectionTest, DeviceOomDegradesToSmallerWorkspace) {
  device::DeviceSpec tiny = device::p100_sxm2_spec();
  tiny.memory_bytes = 4 << 20;  // 4 MiB device
  auto dev = std::make_shared<device::Device>(tiny);
  core::UcudnnHandle handle(dev, wr(std::size_t{512} << 20,
                                    core::BatchSizePolicy::kPowerOfTwo));
  // conv2-scale kernel wants far more workspace than the device has; the
  // handle halves the limit until a configuration fits instead of aborting.
  const kernels::ConvProblem problem({64, 96, 27, 27}, {256, 96, 5, 5},
                                     {.pad_h = 2, .pad_w = 2});
  handle.convolution(ConvKernelType::kForward, problem, 1.0f, nullptr, nullptr,
                     0.0f, nullptr);
  EXPECT_GT(handle.degradation_stats().degraded_allocations.value(), 0u);
  const core::Configuration* config =
      handle.configuration_for(ConvKernelType::kForward, problem);
  ASSERT_NE(config, nullptr);
  EXPECT_LE(config->workspace, std::size_t{4} << 20);
}

TEST(FailureInjectionTest, DeviceOomFailFastSurfacesAllocFailed) {
  device::DeviceSpec tiny = device::p100_sxm2_spec();
  tiny.memory_bytes = 4 << 20;
  auto dev = std::make_shared<device::Device>(tiny);
  core::Options opts =
      wr(std::size_t{512} << 20, core::BatchSizePolicy::kPowerOfTwo);
  opts.fail_fast = true;
  core::UcudnnHandle handle(dev, opts);
  const kernels::ConvProblem problem({64, 96, 27, 27}, {256, 96, 5, 5},
                                     {.pad_h = 2, .pad_w = 2});
  try {
    handle.convolution(ConvKernelType::kForward, problem, 1.0f, nullptr,
                       nullptr, 0.0f, nullptr);
    FAIL() << "expected allocation failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kAllocFailed);
  }
  EXPECT_EQ(handle.degradation_stats().degraded_allocations.value(), 0u);
}

TEST(FailureInjectionTest, WdArenaDegradesToDeviceCapacity) {
  device::DeviceSpec tiny = device::p100_sxm2_spec();
  tiny.memory_bytes = 8 << 20;
  auto dev = std::make_shared<device::Device>(tiny);
  core::Options opts;
  opts.workspace_policy = core::WorkspacePolicy::kWD;
  opts.total_workspace_size = std::size_t{64} << 20;  // > device memory
  core::UcudnnHandle handle(dev, opts);
  // conv2-scale kernel: its best configuration inside a 64 MiB arena needs
  // well over the 8 MiB this device has. The planner re-solves with halved
  // arena limits until the allocation fits.
  const kernels::ConvProblem problem({64, 96, 27, 27}, {256, 96, 5, 5},
                                     {.pad_h = 2, .pad_w = 2});
  handle.get_algorithm(ConvKernelType::kForward, problem,
                       mcudnn::AlgoPreference::kPreferFastest, 0);
  handle.convolution(ConvKernelType::kForward, problem, 1.0f, nullptr, nullptr,
                     0.0f, nullptr);
  EXPECT_GT(handle.degradation_stats().degraded_allocations.value(), 0u);
  ASSERT_NE(handle.wd_plan(), nullptr);
  EXPECT_LE(handle.wd_plan()->total_workspace, std::size_t{8} << 20);
}

TEST(FailureInjectionTest, WdArenaFailFastSurfacesAllocFailed) {
  device::DeviceSpec tiny = device::p100_sxm2_spec();
  tiny.memory_bytes = 8 << 20;
  auto dev = std::make_shared<device::Device>(tiny);
  core::Options opts;
  opts.workspace_policy = core::WorkspacePolicy::kWD;
  opts.total_workspace_size = std::size_t{64} << 20;
  opts.fail_fast = true;
  core::UcudnnHandle handle(dev, opts);
  const kernels::ConvProblem problem({64, 96, 27, 27}, {256, 96, 5, 5},
                                     {.pad_h = 2, .pad_w = 2});
  handle.get_algorithm(ConvKernelType::kForward, problem,
                       mcudnn::AlgoPreference::kPreferFastest, 0);
  EXPECT_THROW(handle.convolution(ConvKernelType::kForward, problem, 1.0f,
                                  nullptr, nullptr, 0.0f, nullptr),
               Error);
}

TEST(FailureInjectionTest, FinalizeWdRequiresWdPolicy) {
  core::UcudnnHandle handle(cpu(), wr(1 << 20));
  EXPECT_THROW(handle.finalize_wd(), Error);
}

TEST(SharedWorkspaceTest, SequentialSharingIsNumericallySound) {
  core::Options opts = wr(std::size_t{2} << 20);
  opts.share_wr_workspace = true;
  core::UcudnnHandle shared(cpu(), opts);
  const NetResult got = run_small_net(shared);

  core::UcudnnHandle baseline(cpu(), wr(std::size_t{2} << 20));
  const NetResult expected = run_small_net(baseline);
  EXPECT_LT(max_rel_diff(got.output.data(), expected.output.data(),
                         static_cast<std::int64_t>(expected.output.size())),
            1e-5);
  // And it really did allocate less: one shared buffer only.
  const auto usage = shared.device().usage_by_tag();
  EXPECT_TRUE(usage.count("shared:ws"));
}

TEST(AlexNetIntegrationTest, NumericSingleIterationOnCpu) {
  // An AlexNet-shaped stack (same layer types and strides, spatially scaled
  // down 4x so the numeric CPU run stays fast) forward+backward through
  // μ-cuDNN end to end — the full stack in numeric mode.
  core::UcudnnHandle handle(cpu(), wr(std::size_t{8} << 20));
  caffepp::Net net(handle, "alexnet",
                   caffepp::NetOptions{std::size_t{8} << 20, true});
  {
    std::string top = net.input("data", {2, 3, 59, 59});
    top = net.conv("conv1", top, 24, 11, 4, 0);   // -> 13x13
    top = net.relu("relu1", top);
    top = net.lrn("norm1", top);
    top = net.pool_max("pool1", top, 3, 2);       // -> 6x6
    top = net.conv("conv2", top, 64, 5, 1, 2);
    top = net.relu("relu2", top);
    top = net.pool_max("pool2", top, 3, 2);       // -> 2x2
    top = net.conv("conv3", top, 96, 3, 1, 1);
    top = net.relu("relu3", top);
    top = net.fc("fc6", top, 256);
    top = net.relu("relu6", top);
    top = net.dropout("drop6", top);
    top = net.fc("fc8", top, 50);
    net.softmax_loss("loss", top);
  }
  net.init(5);
  net.forward();
  const float loss = net.blob("loss")->data()[0];
  EXPECT_TRUE(std::isfinite(loss));
  net.backward();
  caffepp::Blob* fc8 = net.blob("fc8");
  double norm = 0.0;
  for (std::int64_t i = 0; i < fc8->count(); ++i) {
    ASSERT_TRUE(std::isfinite(fc8->diff()[i]));
    norm += std::abs(fc8->diff()[i]);
  }
  EXPECT_GT(norm, 0.0);
}

}  // namespace
}  // namespace ucudnn
