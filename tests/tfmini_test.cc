// Tests for the tfmini framework: graph construction and shape inference,
// SAME/VALID padding, session execution on the host CPU (including a
// finite-difference gradient check through the tape), virtual-mode timing,
// and the TF-style "no pre-announced workspace limit" μ-cuDNN integration.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "frameworks/tfmini/models.h"
#include "frameworks/tfmini/tfmini.h"

namespace ucudnn::tfmini {
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

TEST(GraphTest, SamePaddingMatchesTf) {
  // 224 / stride 2 with 7x7 kernel -> 112 (TF SAME).
  EXPECT_EQ(Graph::same_pad(224, 7, 2), 3);
  // 28 / stride 1 with 3x3 -> pad 1.
  EXPECT_EQ(Graph::same_pad(28, 3, 1), 1);
  // 1x1 kernels need no padding.
  EXPECT_EQ(Graph::same_pad(56, 1, 1), 0);
}

TEST(GraphTest, ShapeInference) {
  Graph g;
  const int x = g.placeholder("x", {2, 3, 32, 32});
  const int w = g.variable("w", {8, 3, 3, 3});
  const int c = g.conv2d("c", x, w, 2, Padding::kSame);
  EXPECT_EQ(g.op(c).shape, (TensorShape{2, 8, 16, 16}));
  const int p = g.max_pool("p", c, 2, 2, Padding::kValid);
  EXPECT_EQ(g.op(p).shape, (TensorShape{2, 8, 8, 8}));
  const int fcw = g.variable("fcw", {10, 8 * 8 * 8, 1, 1});
  const int m = g.matmul("m", p, fcw);
  EXPECT_EQ(g.op(m).shape, (TensorShape{2, 10, 1, 1}));
  const int loss = g.softmax_xent("loss", m);
  EXPECT_EQ(g.op(loss).shape, (TensorShape{1, 1, 1, 1}));
}

TEST(GraphTest, RejectsMalformedGraphs) {
  Graph g;
  const int x = g.placeholder("x", {1, 3, 8, 8});
  EXPECT_THROW(g.placeholder("x", {1, 3, 8, 8}), Error);  // duplicate
  EXPECT_THROW(g.conv2d("c", x, x, 1, Padding::kSame), Error);  // not a var
  const int y = g.placeholder("y", {1, 4, 8, 8});
  EXPECT_THROW(g.add("a", x, y), Error);  // shape mismatch
  EXPECT_THROW(g.find("nope"), Error);
}

TEST(GraphTest, ConcatChannels) {
  Graph g;
  const int a = g.placeholder("a", {2, 3, 8, 8});
  const int b = g.placeholder("b", {2, 5, 8, 8});
  const int c = g.concat("c", {a, b});
  EXPECT_EQ(g.op(c).shape, (TensorShape{2, 8, 8, 8}));
}

TEST(SessionTest, ForwardBackwardNumeric) {
  Graph g;
  const int x = g.placeholder("x", {2, 3, 16, 16});
  const int w1 = g.variable("w1", {4, 3, 3, 3});
  int top = g.conv2d("c1", x, w1, 1, Padding::kSame);
  top = g.batch_norm("bn1", top);
  top = g.relu("r1", top);
  top = g.max_pool("p1", top, 2, 2, Padding::kValid);
  const int w2 = g.variable("w2", {10, 4 * 8 * 8, 1, 1});
  top = g.matmul("fc", top, w2);
  const int loss = g.softmax_xent("loss", top);

  core::UcudnnHandle handle(cpu(), wr_options());
  Session session(g, handle);
  session.initialize(3);
  session.run_forward();
  EXPECT_TRUE(std::isfinite(session.data(loss)[0]));
  EXPECT_GT(session.data(loss)[0], 0.0f);
  session.run_backward();
  // Gradients flow to the input and to every variable.
  for (int op : {x, w1, w2}) {
    double norm = 0.0;
    const auto& shape = g.op(op).shape;
    for (std::int64_t i = 0; i < shape.count(); ++i) {
      EXPECT_TRUE(std::isfinite(session.grad(op)[i]));
      norm += std::abs(session.grad(op)[i]);
    }
    EXPECT_GT(norm, 0.0) << g.op(op).name;
  }
}

// A graph under gradient check: `build` adds the ops and returns the
// placeholder whose gradient is checked; the loss is the last op.
struct GradientCase {
  const char* name;
  std::function<int(Graph&)> build;
};

// Softmax cross-entropy over a matmul head on `top`.
int xent_head(Graph& g, int top) {
  const auto& s = g.op(top).shape;
  const int w = g.variable("head_w", {4, s.c * s.h * s.w, 1, 1});
  return g.softmax_xent("loss", g.matmul("head", top, w));
}

const GradientCase kGradientCases[] = {
    {"conv_relu_matmul",
     [](Graph& g) {
       const int x = g.placeholder("x", {2, 2, 8, 8});
       const int w = g.variable("w", {3, 2, 3, 3});
       xent_head(g, g.relu("r", g.conv2d("c", x, w, 1, Padding::kSame)));
       return x;
     }},
    {"max_pool",
     [](Graph& g) {
       const int x = g.placeholder("x", {2, 2, 8, 8});
       xent_head(g, g.max_pool("p", x, 2, 2, Padding::kValid));
       return x;
     }},
    // SAME padding: the border windows average over fewer valid elements.
    {"avg_pool_same",
     [](Graph& g) {
       const int x = g.placeholder("x", {2, 2, 7, 7});
       xent_head(g, g.avg_pool("p", x, 3, 2, Padding::kSame));
       return x;
     }},
    {"batch_norm",
     [](Graph& g) {
       const int x = g.placeholder("x", {4, 3, 5, 5});
       xent_head(g, g.batch_norm("bn", x));
       return x;
     }},
    {"add",
     [](Graph& g) {
       const int x = g.placeholder("x", {2, 2, 6, 6});
       const int w = g.variable("w", {2, 2, 3, 3});
       xent_head(g, g.add("sum", g.conv2d("c", x, w, 1, Padding::kSame), x));
       return x;
     }},
    {"concat",
     [](Graph& g) {
       const int x = g.placeholder("x", {2, 2, 6, 6});
       const int w = g.variable("w", {3, 2, 3, 3});
       xent_head(g, g.concat("cat", {g.conv2d("c", x, w, 1, Padding::kSame),
                                     x}));
       return x;
     }},
};

TEST(SessionTest, TapeGradientMatchesFiniteDifference) {
  for (const GradientCase& test_case : kGradientCases) {
    SCOPED_TRACE(test_case.name);
    Graph g;
    const int x = test_case.build(g);
    const int loss = static_cast<int>(g.ops().size()) - 1;

    core::UcudnnHandle handle(cpu(), wr_options());
    Session session(g, handle);
    session.initialize(11);
    session.run_forward();
    session.run_backward();

    std::vector<float> analytic(
        static_cast<std::size_t>(g.op(x).shape.count()));
    std::copy(session.grad(x), session.grad(x) + analytic.size(),
              analytic.begin());

    const float eps = 2e-3f;
    const std::int64_t stride = g.op(x).shape.count() / 16;
    double worst = 0.0, scale = 1e-8;
    for (std::int64_t i = 0; i < g.op(x).shape.count(); i += stride) {
      const float saved = session.data(x)[i];
      session.data(x)[i] = saved + eps;
      session.run_forward();
      const double plus = session.data(loss)[0];
      session.data(x)[i] = saved - eps;
      session.run_forward();
      const double minus = session.data(loss)[0];
      session.data(x)[i] = saved;
      const double numeric = (plus - minus) / (2.0 * eps);
      const float exact = analytic[static_cast<std::size_t>(i)];
      worst = std::max(worst, std::abs(numeric - exact));
      scale = std::max({scale, std::abs(numeric),
                        static_cast<double>(std::abs(exact))});
    }
    EXPECT_LT(worst / scale, 0.1);
  }
}

TEST(SessionTest, NoWorkspaceLimitAnnouncedBeforeFirstRun) {
  // tfmini never calls get_algorithm during graph construction — μ-cuDNN
  // must see zero recorded kernels until the session actually runs
  // (§IV-B2: the limit then comes from Options::workspace_limit).
  Graph g;
  build_alexnet(g, 32);
  core::UcudnnHandle handle(p100(), wr_options(std::size_t{64} << 20));
  Session session(g, handle);
  EXPECT_TRUE(handle.recorded_kernels().empty());
  session.run_forward();
  EXPECT_FALSE(handle.recorded_kernels().empty());
  // The configurations honor the env/options-provided limit.
  for (const auto& request : handle.recorded_kernels()) {
    const auto* config =
        handle.configuration_for(request.type, request.problem);
    if (config != nullptr) {
      EXPECT_LE(config->workspace, std::size_t{64} << 20);
    }
  }
}

TEST(ModelsTest, AlexNetShapes) {
  Graph g;
  build_alexnet(g, 16);
  EXPECT_EQ(g.op(g.find("conv1")).shape, (TensorShape{16, 96, 55, 55}));
  EXPECT_EQ(g.op(g.find("conv2")).shape, (TensorShape{16, 256, 27, 27}));
  EXPECT_EQ(g.op(g.find("pool5")).shape, (TensorShape{16, 256, 6, 6}));
  EXPECT_EQ(g.op(g.find("fc8")).shape, (TensorShape{16, 1000, 1, 1}));
}

TEST(ModelsTest, ResNet50Shapes) {
  Graph g;
  build_resnet50(g, 4);
  EXPECT_EQ(g.op(g.find("pool1")).shape, (TensorShape{4, 64, 56, 56}));
  EXPECT_EQ(g.op(g.find("res5_3/out")).shape, (TensorShape{4, 2048, 7, 7}));
  EXPECT_EQ(g.op(g.find("pool5")).shape, (TensorShape{4, 2048, 1, 1}));
}

TEST(ModelsTest, DenseNet40Shapes) {
  Graph g;
  build_densenet40(g, 8, 40);
  EXPECT_EQ(g.op(g.find("dense1_12/concat")).shape,
            (TensorShape{8, 560, 32, 32}));
  EXPECT_EQ(g.op(g.find("global_pool")).shape.h, 1);
}

TEST(ModelsTest, VirtualTimingImprovesWithWorkspace) {
  double times[2] = {0, 0};
  int idx = 0;
  for (const std::size_t limit : {std::size_t{8} << 20, std::size_t{512} << 20}) {
    Graph g;
    build_alexnet(g, 64);
    auto dev = p100();
    core::UcudnnHandle handle(dev, wr_options(limit));
    Session session(g, handle);
    session.time(1);
    times[idx++] = session.last_iteration_ms();
  }
  EXPECT_LT(times[1], times[0]);
}

}  // namespace
}  // namespace ucudnn::tfmini
