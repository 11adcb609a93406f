// Tests for the mcudnn API layer: descriptor validation, workspace queries,
// Get/Find algorithm semantics (including the Fig. 1 "one byte short" cliff),
// numeric vs virtual execution, and the Status-returning C-style surface.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "kernels/winograd.h"
#include "mcudnn/mcudnn.h"

namespace ucudnn::mcudnn {
namespace {

using kernels::ConvProblem;

std::shared_ptr<device::Device> p100() {
  return std::make_shared<device::Device>(device::p100_sxm2_spec());
}

ConvProblem small_problem(std::int64_t batch = 4) {
  return ConvProblem({batch, 8, 12, 12}, {8, 8, 3, 3}, {.pad_h = 1, .pad_w = 1});
}

TEST(HandleTest, DefaultsToHostCpuNumeric) {
  Handle handle;
  EXPECT_EQ(handle.device().spec().name, "HostCpu");
  EXPECT_EQ(handle.exec_mode(), ExecMode::kNumeric);
}

TEST(HandleTest, SimulatedDeviceDefaultsToVirtual) {
  Handle handle(p100());
  EXPECT_EQ(handle.exec_mode(), ExecMode::kVirtual);
  handle.set_exec_mode(ExecMode::kNumeric);
  EXPECT_EQ(handle.exec_mode(), ExecMode::kNumeric);
}

TEST(MakeProblemTest, ForwardValidatesOutputShape) {
  const TensorDesc x{{2, 3, 8, 8}};
  const FilterDesc w{4, 3, 3, 3};
  const ConvGeometry conv{.pad_h = 1, .pad_w = 1};
  const TensorDesc y{{2, 4, 8, 8}};
  const ConvProblem p =
      make_problem(ConvKernelType::kForward, x, w, conv, y);
  EXPECT_EQ(p.y, y.shape);
  const TensorDesc bad{{2, 4, 7, 8}};
  EXPECT_THROW(make_problem(ConvKernelType::kForward, x, w, conv, bad), Error);
}

TEST(MakeProblemTest, BackwardDataSwapsRoles) {
  const TensorDesc dy{{2, 4, 8, 8}};
  const FilterDesc w{4, 3, 3, 3};
  const ConvGeometry conv{.pad_h = 1, .pad_w = 1};
  const TensorDesc dx{{2, 3, 8, 8}};
  const ConvProblem p =
      make_problem(ConvKernelType::kBackwardData, dy, w, conv, dx);
  EXPECT_EQ(p.x, dx.shape);
  EXPECT_EQ(p.y, dy.shape);
}

TEST(FindAlgorithmsTest, SimulatedTimesAreSortedAndComplete) {
  Handle handle(p100());
  const auto perfs =
      find_algorithms(handle, ConvKernelType::kForward, small_problem());
  ASSERT_EQ(perfs.size(), 8u);
  double prev = 0.0;
  for (const auto& perf : perfs) {
    if (perf.status != Status::kSuccess) continue;
    EXPECT_GE(perf.time_ms, prev);
    prev = perf.time_ms;
  }
  // Every supported algorithm reports its true workspace need.
  for (const auto& perf : perfs) {
    if (perf.status != Status::kSuccess) continue;
    EXPECT_EQ(perf.memory, kernels::algo_workspace(ConvKernelType::kForward,
                                                   perf.algo, small_problem()));
  }
}

TEST(FindAlgorithmsTest, UnsupportedAlgosTrailWithStatus) {
  Handle handle(p100());
  const ConvProblem strided({2, 3, 11, 11}, {4, 3, 3, 3},
                            {.stride_h = 2, .stride_w = 2});
  const auto perfs =
      find_algorithms(handle, ConvKernelType::kForward, strided);
  bool seen_unsupported = false;
  for (const auto& perf : perfs) {
    if (perf.status != Status::kSuccess) {
      seen_unsupported = true;
    } else {
      EXPECT_FALSE(seen_unsupported) << "supported entry after unsupported";
    }
  }
  EXPECT_TRUE(seen_unsupported);
}

TEST(FindAlgorithmsTest, MeasuredModeProducesPositiveTimes) {
  Handle handle;  // host CPU
  const auto perfs =
      find_algorithms(handle, ConvKernelType::kForward, small_problem(2));
  for (const auto& perf : perfs) {
    if (perf.status == Status::kSuccess) {
      EXPECT_GT(perf.time_ms, 0.0);
    }
  }
}

TEST(GetAlgorithmTest, OneByteShortFallsBackToSlowerAlgorithm) {
  // The exact pathology of Fig. 1: a workspace limit one byte below the
  // fastest algorithm's requirement must select a different algorithm.
  Handle handle(p100());
  const ConvProblem p({64, 96, 27, 27}, {256, 96, 5, 5},
                      {.pad_h = 2, .pad_w = 2});
  const int best = get_algorithm(handle, ConvKernelType::kForward, p,
                                 AlgoPreference::kPreferFastest);
  const std::size_t best_ws =
      workspace_size(handle, ConvKernelType::kForward, p, best);
  ASSERT_GT(best_ws, 0u);
  const int fallback =
      get_algorithm(handle, ConvKernelType::kForward, p,
                    AlgoPreference::kSpecifyWorkspaceLimit, best_ws - 1);
  EXPECT_NE(fallback, best);
  const double t_best =
      handle.device().model_time_ms(ConvKernelType::kForward, best, p);
  const double t_fallback =
      handle.device().model_time_ms(ConvKernelType::kForward, fallback, p);
  EXPECT_GT(t_fallback, t_best);
}

TEST(GetAlgorithmTest, NoWorkspacePreferencePicksZeroWorkspaceAlgo) {
  Handle handle(p100());
  const int algo = get_algorithm(handle, ConvKernelType::kForward,
                                 small_problem(), AlgoPreference::kNoWorkspace);
  EXPECT_EQ(workspace_size(handle, ConvKernelType::kForward, small_problem(),
                           algo),
            0u);
}

TEST(ConvolutionTest, NumericForwardMatchesDirectKernel) {
  Handle handle;  // host CPU numeric
  const ConvProblem p = small_problem(2);
  Tensor x(p.x), w_tensor(TensorShape{p.w.k, p.w.c, p.w.r, p.w.s}), y(p.y), y_ref(p.y);
  fill_random(x, 1);
  fill_random(w_tensor, 2);

  const int algo = kernels::fwd_algo::kGemm;
  const std::size_t ws_bytes =
      workspace_size(handle, ConvKernelType::kForward, p, algo);
  AlignedBuffer<char> ws(ws_bytes);
  convolution(handle, ConvKernelType::kForward, p, 1.0f, x.data(),
              w_tensor.data(), 0.0f, y.data(), algo, ws.data(), ws_bytes);

  kernels::execute(ConvKernelType::kForward, kernels::fwd_algo::kDirect, p,
                   x.data(), w_tensor.data(), y_ref.data(), 1.0f, 0.0f,
                   nullptr, 0);
  EXPECT_LT(max_rel_diff(y.data(), y_ref.data(), p.y.count()), 5e-3);
}

TEST(ConvolutionTest, VirtualModeAdvancesClockWithoutTouchingData) {
  auto dev = p100();
  Handle handle(dev, ExecMode::kVirtual);
  const ConvProblem p = small_problem();
  const int algo = kernels::fwd_algo::kImplicitGemm;  // zero workspace
  EXPECT_EQ(dev->clock_ms(), 0.0);
  convolution(handle, ConvKernelType::kForward, p, 1.0f, nullptr, nullptr,
              0.0f, nullptr, algo, nullptr, 0);
  const double once = dev->clock_ms();
  EXPECT_GT(once, 0.0);
  convolution(handle, ConvKernelType::kForward, p, 1.0f, nullptr, nullptr,
              0.0f, nullptr, algo, nullptr, 0);
  EXPECT_DOUBLE_EQ(dev->clock_ms(), 2 * once);
}

TEST(ConvolutionTest, StreamsOverlapInVirtualMode) {
  // cudnnSetStream equivalent: two handles on different streams advance
  // independent clocks; wall time is the longer stream, not the sum.
  auto dev = p100();
  Handle h0(dev, ExecMode::kVirtual);
  Handle h1(dev, ExecMode::kVirtual);
  h1.set_stream(1);
  EXPECT_EQ(h0.stream(), 0);
  EXPECT_EQ(h1.stream(), 1);
  const ConvProblem p = small_problem();
  const int algo = kernels::fwd_algo::kImplicitGemm;
  convolution(h0, ConvKernelType::kForward, p, 1.0f, nullptr, nullptr, 0.0f,
              nullptr, algo, nullptr, 0);
  const double one = dev->clock_ms();
  convolution(h1, ConvKernelType::kForward, p, 1.0f, nullptr, nullptr, 0.0f,
              nullptr, algo, nullptr, 0);
  EXPECT_DOUBLE_EQ(dev->clock_ms(), one);  // overlapped, not serialized
  EXPECT_DOUBLE_EQ(dev->stream_clock_ms(1), one);
  convolution(h1, ConvKernelType::kForward, p, 1.0f, nullptr, nullptr, 0.0f,
              nullptr, algo, nullptr, 0);
  EXPECT_DOUBLE_EQ(dev->clock_ms(), 2 * one);  // stream 1 is now critical
}

TEST(ConvolutionTest, VirtualModeStillEnforcesWorkspaceContract) {
  Handle handle(p100(), ExecMode::kVirtual);
  const ConvProblem p = small_problem();
  EXPECT_THROW(convolution(handle, ConvKernelType::kForward, p, 1.0f, nullptr,
                           nullptr, 0.0f, nullptr, kernels::fwd_algo::kGemm,
                           nullptr, 0),
               Error);
}

TEST(ConvolutionTest, NumericRejectsNullOperands) {
  Handle handle;
  const ConvProblem p = small_problem(1);
  EXPECT_THROW(convolution(handle, ConvKernelType::kForward, p, 1.0f, nullptr,
                           nullptr, 0.0f, nullptr,
                           kernels::fwd_algo::kImplicitGemm, nullptr, 0),
               Error);
}

// Runs `launch`, which must throw Error, and returns the error's status and
// what() text.
template <typename Launch>
std::pair<Status, std::string> launch_error(Launch&& launch) {
  try {
    launch();
  } catch (const Error& e) {
    return {e.status(), e.what()};
  }
  ADD_FAILURE() << "launch did not throw";
  return {Status::kSuccess, ""};
}

TEST(ConvolutionTest, LaunchCheckFailuresKeepStatusAndMessage) {
  Handle handle;  // host CPU numeric
  const ConvProblem p = small_problem(1);
  Tensor x(p.x), w_tensor(TensorShape{p.w.k, p.w.c, p.w.r, p.w.s}), y(p.y);
  fill_random(x, 1);
  fill_random(w_tensor, 2);

  // Winograd covers 3x3 filters only. The support check runs before the
  // operands are looked at.
  const ConvProblem p5({1, 8, 12, 12}, {8, 8, 5, 5}, {.pad_h = 2, .pad_w = 2});
  const auto [unsupported, unsupported_what] = launch_error([&] {
    convolution(handle, ConvKernelType::kForward, p5, 1.0f, nullptr, nullptr,
                0.0f, nullptr, kernels::fwd_algo::kWinograd, nullptr, 0);
  });
  EXPECT_EQ(unsupported, Status::kNotSupported);
  EXPECT_NE(unsupported_what.find(
                std::string(kernels::algo_name(ConvKernelType::kForward,
                                               kernels::fwd_algo::kWinograd)) +
                " unsupported for " + p5.to_string()),
            std::string::npos)
      << unsupported_what;

  // One byte short of the declared workspace.
  const int algo = kernels::fwd_algo::kGemm;
  const std::size_t required =
      workspace_size(handle, ConvKernelType::kForward, p, algo);
  ASSERT_GT(required, 0u);
  AlignedBuffer<char> ws(required);
  const auto [short_ws, short_ws_what] = launch_error([&] {
    convolution(handle, ConvKernelType::kForward, p, 1.0f, x.data(),
                w_tensor.data(), 0.0f, y.data(), algo, ws.data(),
                required - 1);
  });
  EXPECT_EQ(short_ws, Status::kBadParam);
  EXPECT_NE(short_ws_what.find(
                std::string(kernels::algo_name(ConvKernelType::kForward,
                                               algo)) +
                " needs " + std::to_string(required) +
                " workspace bytes, got " + std::to_string(required - 1)),
            std::string::npos)
      << short_ws_what;

  const auto [null_ws, null_ws_what] = launch_error([&] {
    convolution(handle, ConvKernelType::kForward, p, 1.0f, x.data(),
                w_tensor.data(), 0.0f, y.data(), algo, nullptr, required);
  });
  EXPECT_EQ(null_ws, Status::kBadParam);
  EXPECT_NE(
      null_ws_what.find("null workspace for workspace-requiring algorithm"),
      std::string::npos)
      << null_ws_what;

  const auto [null_operand, null_operand_what] = launch_error([&] {
    convolution(handle, ConvKernelType::kForward, p, 1.0f, nullptr,
                w_tensor.data(), 0.0f, y.data(), algo, ws.data(), required);
  });
  EXPECT_EQ(null_operand, Status::kBadParam);
  EXPECT_NE(null_operand_what.find("null operand in numeric convolution"),
            std::string::npos)
      << null_operand_what;

  // A kernel-internal check, reached by calling the kernel directly.
  const auto [kernel_ws, kernel_ws_what] = launch_error([&] {
    kernels::winograd_forward(p, x.data(), w_tensor.data(), y.data(), 1.0f,
                              0.0f, nullptr);
  });
  EXPECT_EQ(kernel_ws, Status::kBadParam);
  EXPECT_NE(kernel_ws_what.find("Winograd requires workspace"),
            std::string::npos)
      << kernel_ws_what;
}

TEST(CStyleApiTest, WorkspaceSizeAndAlgorithm) {
  Handle handle(p100());
  const TensorDesc x{{4, 8, 12, 12}};
  const FilterDesc w{8, 8, 3, 3};
  const ConvGeometry conv{.pad_h = 1, .pad_w = 1};
  const TensorDesc y{{4, 8, 12, 12}};

  std::size_t bytes = 0;
  EXPECT_EQ(mcudnnGetConvolutionWorkspaceSize(handle, ConvKernelType::kForward,
                                              x, w, conv, y,
                                              kernels::fwd_algo::kGemm, &bytes),
            Status::kSuccess);
  EXPECT_GT(bytes, 0u);

  int algo = -1;
  EXPECT_EQ(mcudnnGetConvolutionAlgorithm(
                handle, ConvKernelType::kForward, x, w, conv, y,
                AlgoPreference::kSpecifyWorkspaceLimit, bytes, &algo),
            Status::kSuccess);
  EXPECT_GE(algo, 0);

  // Shape mismatch surfaces as kBadParam, not an exception.
  const TensorDesc bad{{4, 8, 11, 12}};
  EXPECT_EQ(mcudnnGetConvolutionWorkspaceSize(handle, ConvKernelType::kForward,
                                              x, w, conv, bad,
                                              kernels::fwd_algo::kGemm, &bytes),
            Status::kBadParam);
}

TEST(CStyleApiTest, FindReturnsRequestedCount) {
  Handle handle(p100());
  const TensorDesc x{{4, 8, 12, 12}};
  const FilterDesc w{8, 8, 3, 3};
  const ConvGeometry conv{.pad_h = 1, .pad_w = 1};
  const TensorDesc y{{4, 8, 12, 12}};
  AlgoPerf perfs[3];
  int returned = 0;
  EXPECT_EQ(mcudnnFindConvolutionAlgorithm(handle, ConvKernelType::kForward, x,
                                           w, conv, y, 3, &returned, perfs),
            Status::kSuccess);
  EXPECT_EQ(returned, 3);
  EXPECT_EQ(perfs[0].status, Status::kSuccess);
}

TEST(CStyleApiTest, ConvolutionEndToEnd) {
  Handle handle;  // host CPU
  const TensorDesc x_desc{{2, 3, 8, 8}};
  const FilterDesc w_desc{4, 3, 3, 3};
  const ConvGeometry conv{.pad_h = 1, .pad_w = 1};
  const TensorDesc y_desc{{2, 4, 8, 8}};
  Tensor x(x_desc), w(TensorShape{4, 3, 3, 3}), y(y_desc), dy(y_desc), dx(x_desc);
  Tensor dw(TensorShape{4, 3, 3, 3});
  fill_random(x, 1);
  fill_random(w, 2);
  fill_random(dy, 3);

  EXPECT_EQ(mcudnnConvolutionForward(handle, 1.0f, x_desc, x.data(), w_desc,
                                     w.data(), conv,
                                     kernels::fwd_algo::kImplicitGemm, nullptr,
                                     0, 0.0f, y_desc, y.data()),
            Status::kSuccess);
  EXPECT_EQ(mcudnnConvolutionBackwardData(
                handle, 1.0f, w_desc, w.data(), y_desc, dy.data(), conv,
                kernels::bwd_data_algo::kAlgo0, nullptr, 0, 0.0f, x_desc,
                dx.data()),
            Status::kSuccess);
  EXPECT_EQ(mcudnnConvolutionBackwardFilter(
                handle, 1.0f, x_desc, x.data(), y_desc, dy.data(), conv,
                kernels::bwd_filter_algo::kAlgo0, nullptr, 0, 0.0f, w_desc,
                dw.data()),
            Status::kSuccess);

  // Insufficient workspace comes back as a status, not a crash.
  EXPECT_EQ(mcudnnConvolutionForward(handle, 1.0f, x_desc, x.data(), w_desc,
                                     w.data(), conv, kernels::fwd_algo::kGemm,
                                     nullptr, 0, 0.0f, y_desc, y.data()),
            Status::kBadParam);
}

}  // namespace
}  // namespace ucudnn::mcudnn
