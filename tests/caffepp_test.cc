// Tests for the mini-Caffe framework: layer shape inference, finite-
// difference gradient checks through every layer type (the property that
// backward() really is the derivative of forward()), model-zoo shape
// sanity, virtual-mode timing, and the per-layer memory accounting.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <random>

#include "common/thread_pool.h"
#include "frameworks/caffepp/model_zoo.h"
#include "frameworks/caffepp/net.h"
#include "frameworks/ops.h"

namespace ucudnn::caffepp {
namespace {

std::shared_ptr<device::Device> cpu() {
  return std::make_shared<device::Device>(device::host_cpu_spec());
}

std::shared_ptr<device::Device> p100() {
  return std::make_shared<device::Device>(device::p100_sxm2_spec());
}

core::Options wr_options(std::size_t limit = std::size_t{1} << 20) {
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = limit;
  return opts;
}

// Scalar objective: mean of the net's final blob (matches the 1/count diff
// seed Net::backward uses).
double objective(Net& net, const std::string& top) {
  net.forward();
  Blob* b = net.blob(top);
  double acc = 0.0;
  for (std::int64_t i = 0; i < b->count(); ++i) acc += b->data()[i];
  return acc / static_cast<double>(b->count());
}

// Finite-difference check of d(objective)/d(input) against the analytic
// bottom diff, on a sample of elements.
void check_input_gradient(Net& net, const std::string& input,
                          const std::string& top, double tolerance = 6e-2,
                          float eps = 5e-2f) {
  net.init(7);
  const double base = objective(net, top);
  (void)base;
  net.forward();
  net.backward();
  Blob* in = net.blob(input);
  std::vector<float> analytic(static_cast<std::size_t>(in->count()));
  std::copy(in->diff(), in->diff() + in->count(), analytic.begin());

  const std::int64_t stride = std::max<std::int64_t>(1, in->count() / 24);
  double worst = 0.0;
  double scale = 1e-8;
  for (std::int64_t i = 0; i < in->count(); i += stride) {
    const float saved = in->data()[i];
    in->data()[i] = saved + eps;
    const double plus = objective(net, top);
    in->data()[i] = saved - eps;
    const double minus = objective(net, top);
    in->data()[i] = saved;
    const double numeric = (plus - minus) / (2.0 * eps);
    worst = std::max(worst, std::abs(numeric - analytic[i]));
    scale = std::max(
        {scale, std::abs(numeric), static_cast<double>(std::abs(analytic[i]))});
  }
  EXPECT_LT(worst / scale, tolerance);
}

TEST(NetBuilderTest, ShapesPropagate) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "shapes");
  net.input("data", {2, 3, 17, 17});
  net.conv("c1", "data", 8, 3, 2, 1);          // 17 -> 9
  net.pool_max("p1", "c1", 3, 2);              // 9 -> 4
  net.fc("f1", "p1", 10);
  EXPECT_EQ(net.blob("c1")->shape(), (TensorShape{2, 8, 9, 9}));
  EXPECT_EQ(net.blob("p1")->shape(), (TensorShape{2, 8, 4, 4}));
  EXPECT_EQ(net.blob("f1")->shape(), (TensorShape{2, 10, 1, 1}));
}

TEST(NetBuilderTest, RejectsDuplicatesAndUnknownBlobs) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "bad");
  net.input("data", {1, 1, 4, 4});
  EXPECT_THROW(net.input("data", {1, 1, 4, 4}), Error);
  EXPECT_THROW(net.conv("c", "nope", 1, 3), Error);
  net.input("a", {1, 2, 4, 4});
  net.input("b", {1, 3, 4, 4});
  EXPECT_THROW(net.eltwise_sum("s", "a", "b"), Error);  // shape mismatch
}

// ----------------------------- gradient checks ------------------------------

TEST(GradientTest, ConvLayer) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {2, 3, 7, 7});
  net.conv("c", "data", 4, 3, 1, 1);
  check_input_gradient(net, "data", "c");
}

TEST(GradientTest, ConvLayerStrided) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {2, 2, 9, 9});
  net.conv("c", "data", 3, 3, 2, 0);
  check_input_gradient(net, "data", "c");
}

TEST(GradientTest, ReluLayerOutOfPlace) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {2, 3, 5, 5});
  net.relu("r", "data", /*in_place=*/false);
  check_input_gradient(net, "data", "r");
}

TEST(GradientTest, MaxPoolLayer) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {2, 2, 8, 8});
  net.pool_max("p", "data", 2, 2);
  // Small eps: large perturbations flip the argmax (max-pool is only
  // piecewise differentiable).
  check_input_gradient(net, "data", "p", 6e-2, /*eps=*/1e-3f);
}

TEST(GradientTest, AvgPoolLayer) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {2, 2, 8, 8});
  net.pool_avg("p", "data", 2, 2);
  check_input_gradient(net, "data", "p");
}

TEST(GradientTest, LrnLayer) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {2, 8, 4, 4});
  net.lrn("n", "data");
  check_input_gradient(net, "data", "n");
}

TEST(GradientTest, FcLayer) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {3, 4, 2, 2});
  net.fc("f", "data", 5);
  check_input_gradient(net, "data", "f");
}

TEST(GradientTest, BatchNormLayer) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {4, 3, 5, 5});
  // A plain mean objective is degenerate for BN (the normalized output's
  // batch mean is constant), so feed it through an FC head.
  std::string top = net.batch_norm("bn", "data");
  top = net.fc("head", top, 3);
  check_input_gradient(net, "data", top, /*tolerance=*/0.1);
}

TEST(GradientTest, EltwiseAndConcat) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {2, 3, 5, 5});
  net.conv("a", "data", 3, 1);
  net.conv("b", "data", 3, 1);
  net.eltwise_sum("s", "a", "b");
  net.concat("cat", {"s", "a"});
  check_input_gradient(net, "data", "cat");
}

TEST(GradientTest, SoftmaxLoss) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {4, 6, 1, 1});
  net.softmax_loss("loss", "data");
  check_input_gradient(net, "data", "loss");
}

TEST(GradientTest, SmallCompositeNetwork) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "g");
  net.input("data", {2, 3, 12, 12});
  std::string top = net.conv("c1", "data", 6, 3, 1, 1);
  top = net.relu("r1", top);
  top = net.pool_max("p1", top, 2, 2);
  top = net.conv("c2", top, 8, 3, 1, 1);
  top = net.relu("r2", top);
  top = net.fc("f1", top, 5);
  top = net.softmax_loss("loss", top);
  check_input_gradient(net, "data", top, /*tolerance=*/0.1, /*eps=*/2e-3f);
}

// --------------------------------- zoo --------------------------------------

TEST(ModelZooTest, AlexNetShapes) {
  core::UcudnnHandle handle(p100(), wr_options(std::size_t{64} << 20));
  Net net(handle, "alexnet");
  build_alexnet(net, 16);
  EXPECT_EQ(net.blob("conv1")->shape(), (TensorShape{16, 96, 55, 55}));
  EXPECT_EQ(net.blob("pool1")->shape(), (TensorShape{16, 96, 27, 27}));
  EXPECT_EQ(net.blob("conv2")->shape(), (TensorShape{16, 256, 27, 27}));
  EXPECT_EQ(net.blob("pool2")->shape(), (TensorShape{16, 256, 13, 13}));
  EXPECT_EQ(net.blob("conv5")->shape(), (TensorShape{16, 256, 13, 13}));
  EXPECT_EQ(net.blob("pool5")->shape(), (TensorShape{16, 256, 6, 6}));
  EXPECT_EQ(net.blob("fc8")->shape(), (TensorShape{16, 1000, 1, 1}));
  EXPECT_EQ(net.conv_problems().size(), 5u);
}

TEST(ModelZooTest, ResNet18Shapes) {
  core::UcudnnHandle handle(p100(), wr_options(std::size_t{64} << 20));
  Net net(handle, "resnet18");
  build_resnet18(net, 4);
  EXPECT_EQ(net.blob("conv1")->shape(), (TensorShape{4, 64, 112, 112}));
  EXPECT_EQ(net.blob("pool1")->shape(), (TensorShape{4, 64, 56, 56}));
  EXPECT_EQ(net.blob("res5b_sum")->shape(), (TensorShape{4, 512, 7, 7}));
  EXPECT_EQ(net.blob("pool5")->shape(), (TensorShape{4, 512, 1, 1}));
  // 2 blocks/stage * 2 convs + 3 downsample convs + conv1 = 20.
  EXPECT_EQ(net.conv_problems().size(), 20u);
}

TEST(ModelZooTest, ResNet50Shapes) {
  core::UcudnnHandle handle(p100(), wr_options(std::size_t{64} << 20));
  Net net(handle, "resnet50");
  build_resnet50(net, 2);
  EXPECT_EQ(net.blob("res5c_sum")->shape(), (TensorShape{2, 2048, 7, 7}));
  // 16 blocks * 3 convs + 4 downsample + conv1 = 53.
  EXPECT_EQ(net.conv_problems().size(), 53u);
}

TEST(ModelZooTest, DenseNet40Shapes) {
  core::UcudnnHandle handle(p100(), wr_options(std::size_t{64} << 20));
  Net net(handle, "densenet");
  build_densenet40(net, 8, 40);
  // After block 1: 80 + 12*40 = 560 channels at 32x32.
  EXPECT_EQ(net.blob("dense1_12_concat")->shape(),
            (TensorShape{8, 560, 32, 32}));
  // Conv layers: 1 stem + 36 dense + 2 transitions = 39.
  EXPECT_EQ(net.conv_problems().size(), 39u);
}

TEST(ModelZooTest, InceptionModuleShapes) {
  core::UcudnnHandle handle(p100(), wr_options(std::size_t{64} << 20));
  Net net(handle, "inception");
  net.input("data", {8, 192, 28, 28});
  const std::string top = build_inception_module(net, "data", "inc3a");
  EXPECT_EQ(net.blob(top)->shape(), (TensorShape{8, 256, 28, 28}));
  EXPECT_EQ(net.conv_problems().size(), 6u);
}

// ----------------------------- virtual timing --------------------------------

TEST(NetTimingTest, VirtualModeProducesPerLayerBreakdown) {
  auto dev = p100();
  core::UcudnnHandle handle(dev, wr_options(std::size_t{64} << 20));
  Net net(handle, "alexnet");
  build_alexnet(net, 64);
  const auto times = net.time(2);
  EXPECT_FALSE(times.empty());
  double total = 0.0;
  for (const auto& lt : times) {
    EXPECT_GE(lt.forward_ms, 0.0) << lt.name;
    EXPECT_GE(lt.backward_ms, 0.0) << lt.name;
    total += lt.forward_ms + lt.backward_ms;
  }
  EXPECT_GT(total, 0.0);
  EXPECT_NEAR(net.last_iteration_ms(), total, 1e-9);
  // Convolutions must dominate AlexNet (they do in the paper's breakdowns).
  double conv_total = 0.0;
  for (const auto& lt : times) {
    if (lt.name.rfind("conv", 0) == 0) {
      conv_total += lt.forward_ms + lt.backward_ms;
    }
  }
  EXPECT_GT(conv_total, 0.4 * total);
}

TEST(NetTimingTest, LargerWorkspaceIsFasterInVirtualMode) {
  double times[2] = {0, 0};
  int idx = 0;
  for (const std::size_t limit : {std::size_t{8} << 20, std::size_t{512} << 20}) {
    auto dev = p100();
    core::UcudnnHandle handle(dev, wr_options(limit));
    Net net(handle, "alexnet");
    build_alexnet(net, 64);
    net.time(1);
    times[idx++] = net.last_iteration_ms();
  }
  EXPECT_LT(times[1], times[0]);
}

TEST(NetMemoryTest, ReportCoversLayersAndWorkspace) {
  auto dev = p100();
  core::UcudnnHandle handle(dev, wr_options(std::size_t{64} << 20));
  Net net(handle, "alexnet");
  build_alexnet(net, 32);
  net.forward();  // triggers workspace allocation
  const auto report = net.memory_report();
  ASSERT_TRUE(report.count("conv2"));
  EXPECT_GT(report.at("conv2").data, 0u);
  EXPECT_GT(report.at("conv2").param, 0u);
  EXPECT_GT(report.at("conv2").workspace, 0u);
  ASSERT_TRUE(report.count("fc6"));
  EXPECT_GT(report.at("fc6").param, report.at("conv2").param);
  // Total tracked bytes match the device's view.
  std::size_t total = 0;
  for (const auto& [layer, m] : report) total += m.total();
  EXPECT_EQ(total, dev->bytes_in_use());
}

TEST(ConvLayerTest, BiasGradientEqualsSerialDoubleSumBitwise) {
  // dbias is reduced in parallel over channels on the global pool (one
  // worker per hardware thread). Each channel keeps its n-then-i double sum,
  // so the result equals the serial reduction bitwise whatever the thread
  // count. 18 channels leave chunks that are not a multiple of the four
  // channels summed side by side.
  core::UcudnnHandle handle(cpu(), wr_options());
  const LayerContext ctx{handle, handle.base().device_ptr(), false};
  const TensorShape in{3, 4, 9, 9};
  const FilterDesc filter{18, 4, 3, 3};
  const ConvGeometry geom{.pad_h = 1, .pad_w = 1};
  const TensorShape out = geom.output_shape(in, filter);
  Blob bottom(ctx.dev, "data", in);
  Blob top(ctx.dev, "c1", out);
  ConvLayer layer(ctx, "c1", &bottom, &top, filter, geom, /*bias=*/true,
                  std::size_t{1} << 20);
  std::mt19937 rng(5);
  layer.init_params(rng);
  // Magnitudes spread over six decades, so a different summation order
  // changes the rounded sum.
  std::uniform_real_distribution<float> unit(-1.0f, 1.0f);
  std::uniform_real_distribution<float> decade(-3.0f, 3.0f);
  for (std::int64_t i = 0; i < bottom.count(); ++i) bottom.data()[i] = unit(rng);
  for (std::int64_t i = 0; i < top.count(); ++i) {
    top.diff()[i] = unit(rng) * std::pow(10.0f, decade(rng));
  }
  fill_constant(bottom.diff(), bottom.count(), 0.0f);

  layer.backward(ctx);

  const std::int64_t plane = out.h * out.w;
  Blob* bias = layer.params().at(1);
  for (std::int64_t k = 0; k < out.c; ++k) {
    double acc = 0.0;
    for (std::int64_t n = 0; n < out.n; ++n) {
      const float* dy = top.diff() + (n * out.c + k) * plane;
      for (std::int64_t i = 0; i < plane; ++i) acc += dy[i];
    }
    EXPECT_EQ(std::bit_cast<std::uint32_t>(bias->diff()[k]),
              std::bit_cast<std::uint32_t>(static_cast<float>(acc)))
        << "channel " << k << " on "
        << ThreadPool::global().num_threads() << " threads";
  }
}

TEST(LayerBackwardTest, DirectBackwardOnFreshBlobsAllocatesEachDiffOnce) {
  // Drives each layer's backward directly, without Net::backward's up-front
  // diff allocation, so the first diff() call of every bottom (and of the
  // batch-norm parameters) happens inside the layer. A layer must resolve
  // its diffs before its parallel loop: a diff() call inside a loop body
  // races on the lazy allocation, which the tsan preset reports and which
  // can allocate one diff per worker. The loops run on the global pool (one
  // worker per hardware thread).
  core::UcudnnHandle handle(cpu(), wr_options());
  const LayerContext ctx{handle, handle.base().device_ptr(), false};
  std::vector<std::unique_ptr<Blob>> blobs;
  const auto blob = [&](const std::string& name, const TensorShape& shape) {
    blobs.push_back(std::make_unique<Blob>(ctx.dev, name, shape));
    fill_random(blobs.back()->data(), blobs.back()->count(), blobs.size());
    return blobs.back().get();
  };
  // Forward, seed the top diff, then run backward on still-fresh `lazy`
  // blobs.
  const auto check = [&](Layer& layer, Blob* top,
                         const std::vector<Blob*>& lazy) {
    std::mt19937 rng(7);
    layer.init_params(rng);
    layer.forward(ctx);
    fill_random(top->diff(), top->count(), 11);
    layer.backward(ctx);
    const auto usage = ctx.dev->usage_by_tag();
    for (Blob* b : lazy) {
      EXPECT_EQ(usage.at(b->name() + ":diff"), b->bytes())
          << layer.name() << ": " << b->name();
      double norm = 0.0;
      for (std::int64_t i = 0; i < b->count(); ++i) {
        ASSERT_TRUE(std::isfinite(b->diff()[i])) << b->name();
        norm += std::abs(b->diff()[i]);
      }
      EXPECT_GT(norm, 0.0) << layer.name() << ": " << b->name();
    }
  };
  const TensorShape shape{4, 8, 8, 8};
  for (const auto mode : {frameworks::ops::PoolMode::kMax,
                          frameworks::ops::PoolMode::kAvgWindow}) {
    const std::string name =
        mode == frameworks::ops::PoolMode::kMax ? "max" : "avg";
    Blob* x = blob(name + "_x", shape);
    Blob* y = blob(name, {4, 8, 4, 4});
    PoolLayer pool(ctx, name, x, y, {mode, 3, 2, 1});
    check(pool, y, {x});
  }
  {
    Blob* x = blob("lrn_x", shape);
    Blob* y = blob("lrn", shape);
    LrnLayer lrn(ctx, "lrn", x, y, 5, 1e-4f, 0.75f, 1.0f);
    check(lrn, y, {x});
  }
  {
    Blob* x = blob("bn_x", shape);
    Blob* y = blob("bn", shape);
    BatchNormLayer bn(ctx, "bn", x, y);
    const std::vector<Blob*> params = bn.params();
    check(bn, y, {x, params[0], params[1]});
  }
  {
    Blob* a = blob("cat_a", {4, 3, 8, 8});
    Blob* b = blob("cat_b", {4, 5, 8, 8});
    Blob* y = blob("cat", shape);
    ConcatLayer concat("cat", {a, b}, y);
    check(concat, y, {a, b});
  }
}

TEST(NetNumericTest, ForwardBackwardRunsOnCpu) {
  core::UcudnnHandle handle(cpu(), wr_options());
  Net net(handle, "tiny");
  net.input("data", {2, 3, 16, 16});
  std::string top = net.conv("c1", "data", 4, 3, 1, 1);
  top = net.relu("r1", top);
  top = net.batch_norm("bn1", top);
  top = net.pool_max("p1", top, 2, 2);
  top = net.fc("f1", top, 10);
  top = net.dropout("d1", top, 0.5f);
  top = net.softmax_loss("loss", top);
  net.init(3);
  net.forward();
  const float loss = net.blob("loss")->data()[0];
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0f);
  net.backward();
  // Input gradient must be finite and not identically zero.
  Blob* in = net.blob("data");
  double norm = 0.0;
  for (std::int64_t i = 0; i < in->count(); ++i) {
    EXPECT_TRUE(std::isfinite(in->diff()[i]));
    norm += std::abs(in->diff()[i]);
  }
  EXPECT_GT(norm, 0.0);
}

// --------------------------------- host ops ----------------------------------

namespace ops = frameworks::ops;

ops::Target host_target(device::Device& dev) { return {dev, false}; }

std::uint32_t bits(float v) { return std::bit_cast<std::uint32_t>(v); }

// Values that tell a select from a branch or an arithmetic mask: NaN, both
// zeros, infinities, negatives and positives.
const float kSpecials[] = {std::numeric_limits<float>::quiet_NaN(),
                           0.0f,
                           -0.0f,
                           -1.5f,
                           2.25f,
                           -std::numeric_limits<float>::infinity(),
                           std::numeric_limits<float>::infinity(),
                           -std::numeric_limits<float>::denorm_min(),
                           3e-39f};

// Spans several parallel chunks of the elementwise ops.
constexpr std::int64_t kReluCount = 3 * (1 << 14) + 5;

std::vector<float> special_pattern(std::int64_t count, std::size_t shift) {
  std::vector<float> v(static_cast<std::size_t>(count));
  constexpr std::size_t n = std::size(kSpecials);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = kSpecials[(i + shift + i / n) % n];
  }
  return v;
}

TEST(HostOpsTest, ReluForwardIsBitwiseStdMax) {
  device::Device dev(device::host_cpu_spec());
  const std::vector<float> x = special_pattern(kReluCount, 0);
  std::vector<float> y(x.size());
  ops::relu_forward(host_target(dev), kReluCount, x.data(), y.data());
  for (std::size_t i = 0; i < x.size(); ++i) {
    ASSERT_EQ(bits(y[i]), bits(std::max(0.0f, x[i]))) << "x=" << x[i];
  }
  std::vector<float> in_place = x;
  ops::relu_forward(host_target(dev), kReluCount, in_place.data(),
                    in_place.data());
  EXPECT_EQ(std::memcmp(in_place.data(), y.data(), y.size() * sizeof(float)),
            0);
}

TEST(HostOpsTest, ReluBackwardIsBitwiseTheBranchyReference) {
  device::Device dev(device::host_cpu_spec());
  // y, dy and the accumulated dx each walk the specials at a different
  // phase, so every (y, dy, dx) combination occurs.
  const std::vector<float> y = special_pattern(kReluCount, 0);
  const std::vector<float> dy = special_pattern(kReluCount, 4);
  const std::vector<float> dx0 = special_pattern(kReluCount, 7);

  std::vector<float> masked = dy;
  ops::relu_backward(host_target(dev), kReluCount, y.data(), masked.data(),
                     masked.data());
  std::vector<float> accumulated = dx0;
  ops::relu_backward(host_target(dev), kReluCount, y.data(), dy.data(),
                     accumulated.data());
  for (std::size_t i = 0; i < y.size(); ++i) {
    float in_place = dy[i];
    if (y[i] <= 0.0f) in_place = 0.0f;
    ASSERT_EQ(bits(masked[i]), bits(in_place))
        << "in place, y=" << y[i] << " dy=" << dy[i];
    float out_of_place = dx0[i];
    out_of_place += y[i] > 0.0f ? dy[i] : 0.0f;
    ASSERT_EQ(bits(accumulated[i]), bits(out_of_place))
        << "out of place, y=" << y[i] << " dy=" << dy[i] << " dx=" << dx0[i];
  }
}

// The general max-pool scan, written out: windows clipped to the plane,
// visited row by row, a value taken only when strictly greater than the
// running maximum, and the argmax starting at the window's first in-bounds
// element.
void reference_max_pool(const ops::Pool& pool, const TensorShape& in,
                        const TensorShape& out, const float* x, float* y,
                        std::int32_t* argmax) {
  for (std::int64_t nc = 0; nc < out.n * out.c; ++nc) {
    const float* xp = x + nc * in.h * in.w;
    for (std::int64_t i = 0; i < out.h; ++i) {
      for (std::int64_t j = 0; j < out.w; ++j) {
        const std::int64_t top = i * pool.stride - pool.pad;
        const std::int64_t left = j * pool.stride - pool.pad;
        const std::int64_t h0 = std::max<std::int64_t>(0, top);
        const std::int64_t w0 = std::max<std::int64_t>(0, left);
        const std::int64_t h1 = std::min(in.h, top + pool.window);
        const std::int64_t w1 = std::min(in.w, left + pool.window);
        float best = -std::numeric_limits<float>::infinity();
        auto best_idx = static_cast<std::int32_t>(h0 * in.w + w0);
        for (std::int64_t h = h0; h < h1; ++h) {
          for (std::int64_t w = w0; w < w1; ++w) {
            if (xp[h * in.w + w] > best) {
              best = xp[h * in.w + w];
              best_idx = static_cast<std::int32_t>(h * in.w + w);
            }
          }
        }
        const std::int64_t o = (nc * out.h + i) * out.w + j;
        y[o] = best;
        argmax[o] = best_idx;
      }
    }
  }
}

// Inputs with ties (few distinct values), -inf and NaN on every plane.
std::vector<float> tie_heavy_input(std::int64_t count) {
  std::vector<float> x(static_cast<std::size_t>(count));
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> pick(0, 9);
  for (float& v : x) {
    const int k = pick(rng);
    v = k == 0   ? -std::numeric_limits<float>::infinity()
        : k == 1 ? std::numeric_limits<float>::quiet_NaN()
                 : static_cast<float>(k % 4) - 1.0f;
  }
  return x;
}

TEST(HostOpsTest, MaxPoolMatchesTheReferenceScanBitwise) {
  device::Device dev(device::host_cpu_spec());
  struct Case {
    ops::Pool pool;
    TensorShape in;
  };
  const Case cases[] = {
      // The 2x2/2 path, even and odd edges (odd ones floor).
      {{ops::PoolMode::kMax, 2, 2, 0}, {2, 3, 8, 8}},
      {{ops::PoolMode::kMax, 2, 2, 0}, {2, 3, 7, 9}},
      {{ops::PoolMode::kMax, 2, 2, 0}, {1, 2, 5, 2}},
      {{ops::PoolMode::kMax, 2, 2, 0}, {16, 16, 32, 32}},
      // The general loop: padded, overlapping and stride-1 windows.
      {{ops::PoolMode::kMax, 3, 2, 1}, {2, 3, 7, 9}},
      {{ops::PoolMode::kMax, 2, 1, 0}, {2, 3, 5, 6}},
      {{ops::PoolMode::kMax, 2, 2, 1}, {2, 3, 6, 7}},
  };
  for (const Case& c : cases) {
    const TensorShape out{
        c.in.n, c.in.c,
        ops::pool_out_edge(c.in.h, c.pool.window, c.pool.stride, c.pool.pad),
        ops::pool_out_edge(c.in.w, c.pool.window, c.pool.stride, c.pool.pad)};
    SCOPED_TRACE(testing::Message()
                 << "window " << c.pool.window << " stride " << c.pool.stride
                 << " pad " << c.pool.pad << " in " << c.in.h << "x" << c.in.w);
    const std::vector<float> x = tie_heavy_input(c.in.count());
    std::vector<float> y(static_cast<std::size_t>(out.count()));
    std::vector<float> y_ref(y.size());
    std::vector<std::int32_t> am(y.size()), am_ref(y.size());
    ops::pool_forward(host_target(dev), c.pool, c.in, out, x.data(), y.data(),
                      am.data());
    reference_max_pool(c.pool, c.in, out, x.data(), y_ref.data(),
                       am_ref.data());
    EXPECT_EQ(std::memcmp(y.data(), y_ref.data(), y.size() * sizeof(float)), 0);
    EXPECT_EQ(am, am_ref);
  }
}

TEST(HostOpsTest, MaxPoolGradientOfAnUnbeatenWindowStaysInIt) {
  // A window where nothing beats -inf (all -inf, or NaN) must route its
  // gradient to one of its own pixels, on the 2x2/2 path and the general one.
  device::Device dev(device::host_cpu_spec());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float ninf = -std::numeric_limits<float>::infinity();
  for (const ops::Pool pool : {ops::Pool{ops::PoolMode::kMax, 2, 2, 0},
                               ops::Pool{ops::PoolMode::kMax, 3, 3, 0}}) {
    for (const float fill : {nan, ninf}) {
      const std::int64_t edge = 2 * pool.window;
      const TensorShape in{1, 1, edge, edge};
      const TensorShape out{1, 1, 2, 2};
      std::vector<float> x(static_cast<std::size_t>(in.count()), 1.0f);
      // Output (1, 1)'s window holds only `fill`.
      for (std::int64_t h = pool.window; h < edge; ++h) {
        for (std::int64_t w = pool.window; w < edge; ++w) {
          x[static_cast<std::size_t>(h * edge + w)] = fill;
        }
      }
      std::vector<float> y(4);
      std::vector<std::int32_t> am(4);
      ops::pool_forward(host_target(dev), pool, in, out, x.data(), y.data(),
                        am.data());
      EXPECT_EQ(y[3], ninf);
      const std::vector<float> dy = {0.0f, 0.0f, 0.0f, 1.0f};
      std::vector<float> dx(x.size(), 0.0f);
      ops::pool_backward(host_target(dev), pool, in, out, dy.data(), am.data(),
                         dx.data());
      const std::int64_t first = pool.window * edge + pool.window;
      EXPECT_EQ(am[3], first) << "window " << pool.window << " fill " << fill;
      EXPECT_EQ(dx[static_cast<std::size_t>(first)], 1.0f);
      EXPECT_EQ(dx[0], 0.0f);
    }
  }
}

}  // namespace
}  // namespace ucudnn::caffepp
