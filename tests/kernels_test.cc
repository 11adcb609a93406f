// Cross-validation of every convolution algorithm against the direct
// reference, over a sweep of problem shapes (strides, pads, dilations,
// non-square images, conv vs cross-correlation mode), for all three kernel
// types. Also checks workspace exactness and the alpha/beta contract that
// micro-batched BackwardFilter accumulation relies on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "kernels/conv_problem.h"
#include "kernels/im2col.h"
#include "kernels/registry.h"
#include "tensor/tensor.h"

namespace ucudnn::kernels {
namespace {

struct ProblemCase {
  std::string name;
  TensorShape x;
  FilterDesc w;
  ConvGeometry geom;
};

std::vector<ProblemCase> test_problems() {
  return {
      {"small3x3", {2, 3, 8, 8}, {4, 3, 3, 3}, {.pad_h = 1, .pad_w = 1}},
      {"pad0_3x3", {2, 2, 7, 9}, {3, 2, 3, 3}, {}},
      {"pad2_5x5", {2, 4, 11, 11}, {5, 4, 5, 5}, {.pad_h = 2, .pad_w = 2}},
      {"stride2", {2, 3, 11, 11}, {4, 3, 3, 3},
       {.pad_h = 1, .pad_w = 1, .stride_h = 2, .stride_w = 2}},
      {"stride4_11x11", {2, 3, 19, 19}, {4, 3, 11, 11},
       {.stride_h = 4, .stride_w = 4}},
      {"dilated", {1, 2, 12, 12}, {3, 2, 3, 3},
       {.pad_h = 2, .pad_w = 2, .dilation_h = 2, .dilation_w = 2}},
      {"asym_pad", {1, 2, 9, 7}, {3, 2, 3, 5}, {.pad_h = 0, .pad_w = 2}},
      {"conv_mode", {2, 3, 8, 8}, {4, 3, 3, 3},
       {.pad_h = 1, .pad_w = 1, .mode = ConvMode::kConvolution}},
      {"conv_mode_5x5", {1, 2, 10, 10}, {3, 2, 5, 5},
       {.pad_h = 2, .pad_w = 2, .mode = ConvMode::kConvolution}},
      {"batch1", {1, 1, 5, 5}, {1, 1, 3, 3}, {.pad_h = 1, .pad_w = 1}},
      {"wide_channels", {2, 16, 6, 6}, {12, 16, 3, 3}, {.pad_h = 1, .pad_w = 1}},
      {"1x1_kernel", {2, 4, 9, 9}, {6, 4, 1, 1}, {}},
      {"odd_output", {1, 2, 9, 9}, {3, 2, 3, 3}, {}},  // 7x7 output (odd)
      {"large_pad_bwd", {1, 2, 8, 8}, {3, 2, 5, 5}, {.pad_h = 4, .pad_w = 4}},
      // > 8 input channels: exercises the FFT channel-chunking loop (Cb = 8)
      // with a ragged final chunk.
      {"chunked_channels", {2, 20, 10, 10}, {6, 20, 3, 3},
       {.pad_h = 1, .pad_w = 1}},
      // Output larger than one 30x30 FFT tile: multi-tile FFT_TILING path.
      {"multi_tile", {1, 3, 40, 40}, {4, 3, 3, 3}, {.pad_h = 1, .pad_w = 1}},
      // Non-square, prime-ish dims: plan edges land on different powers.
      {"tall_image", {1, 2, 37, 11}, {3, 2, 3, 3}, {.pad_h = 1, .pad_w = 1}},
  };
}

class AlgoAgreementTest
    : public ::testing::TestWithParam<std::tuple<ProblemCase, ConvKernelType>> {
};

TEST_P(AlgoAgreementTest, AllSupportedAlgosMatchDirectReference) {
  const auto& [pc, type] = GetParam();
  const ConvProblem p(pc.x, pc.w, pc.geom);

  // Operand shapes per kernel type.
  const std::int64_t x_count = p.x.count();
  const std::int64_t y_count = p.y.count();
  const std::int64_t w_count = p.w.count();

  std::vector<float> x(static_cast<std::size_t>(x_count));
  std::vector<float> w(static_cast<std::size_t>(w_count));
  std::vector<float> dy(static_cast<std::size_t>(y_count));
  fill_random(x.data(), x_count, 11);
  fill_random(w.data(), w_count, 22);
  fill_random(dy.data(), y_count, 33);

  const float* a = nullptr;
  const float* b = nullptr;
  std::int64_t out_count = 0;
  int reference_algo = 0;
  switch (type) {
    case ConvKernelType::kForward:
      a = x.data(); b = w.data(); out_count = y_count;
      reference_algo = fwd_algo::kDirect;
      break;
    case ConvKernelType::kBackwardData:
      a = dy.data(); b = w.data(); out_count = x_count;
      reference_algo = bwd_data_algo::kAlgo0;
      break;
    case ConvKernelType::kBackwardFilter:
      a = x.data(); b = dy.data(); out_count = w_count;
      reference_algo = bwd_filter_algo::kAlgo0;
      break;
  }

  std::vector<float> reference(static_cast<std::size_t>(out_count), 0.0f);
  execute(type, reference_algo, p, a, b, reference.data(), 1.0f, 0.0f, nullptr,
          0);

  int tested = 0;
  for (int algo = 0; algo < algo_count(type); ++algo) {
    if (!algo_supported(type, algo, p)) continue;
    const std::size_t ws_bytes = algo_workspace(type, algo, p);
    AlignedBuffer<char> ws(ws_bytes);
    std::vector<float> out(static_cast<std::size_t>(out_count), 0.0f);
    execute(type, algo, p, a, b, out.data(), 1.0f, 0.0f, ws.data(), ws_bytes);
    const double err = max_rel_diff(out.data(), reference.data(), out_count);
    EXPECT_LT(err, 5e-3) << pc.name << " " << to_string(type) << " "
                         << algo_name(type, algo);
    ++tested;
  }
  // Strided/dilated BackwardData has only the two ALGO_* implementations;
  // everything else must offer at least three.
  EXPECT_GE(tested, 2) << "too few supported algorithms for " << pc.name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgoAgreementTest,
    ::testing::Combine(::testing::ValuesIn(test_problems()),
                       ::testing::Values(ConvKernelType::kForward,
                                         ConvKernelType::kBackwardData,
                                         ConvKernelType::kBackwardFilter)),
    [](const auto& info) {
      return std::get<0>(info.param).name +
             std::string(to_string(std::get<1>(info.param)));
    });

// The GEMM family (explicit and precomputed-index GEMM Forward, GEMM +
// col2im BackwardData ALGO_1, per-image and batched BackwardFilter ALGO_1 /
// ALGO_3) on the three train_host convolutions at micro-batches 1, 2 and
// 16, against the direct reference at beta 0, 1 and 0.5. The existing
// sweeps only cover beta 0 on small shapes; these are the shapes the
// register tiles, pack panels and strip split are tuned for.
struct TrainHostCase {
  std::string name;
  ProblemCase conv;
  std::int64_t micro_batch;
  ConvKernelType type;
};

std::vector<TrainHostCase> train_host_cases() {
  const ProblemCase convs[] = {
      {"conv1", {1, 3, 32, 32}, {16, 3, 5, 5}, {.pad_h = 2, .pad_w = 2}},
      {"conv2", {1, 16, 16, 16}, {32, 16, 5, 5}, {.pad_h = 2, .pad_w = 2}},
      {"conv3", {1, 32, 8, 8}, {32, 32, 3, 3}, {.pad_h = 1, .pad_w = 1}},
  };
  std::vector<TrainHostCase> cases;
  for (const ProblemCase& conv : convs) {
    for (const std::int64_t batch : {1, 2, 16}) {
      for (const ConvKernelType type :
           {ConvKernelType::kForward, ConvKernelType::kBackwardData,
            ConvKernelType::kBackwardFilter}) {
        cases.push_back({conv.name + "b" + std::to_string(batch) +
                             std::string(to_string(type)),
                         conv, batch, type});
      }
    }
  }
  return cases;
}

std::vector<int> gemm_family(ConvKernelType type) {
  switch (type) {
    case ConvKernelType::kForward:
      return {fwd_algo::kImplicitPrecompGemm, fwd_algo::kGemm};
    case ConvKernelType::kBackwardData:
      return {bwd_data_algo::kAlgo1};
    case ConvKernelType::kBackwardFilter:
      return {bwd_filter_algo::kAlgo1, bwd_filter_algo::kAlgo3};
  }
  return {};
}

class TrainHostGemmParityTest
    : public ::testing::TestWithParam<TrainHostCase> {};

TEST_P(TrainHostGemmParityTest, GemmFamilyMatchesDirectAtEveryBeta) {
  const TrainHostCase& tc = GetParam();
  const ConvProblem p(tc.conv.x.with_batch(tc.micro_batch), tc.conv.w,
                      tc.conv.geom);
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  std::vector<float> w(static_cast<std::size_t>(p.w.count()));
  std::vector<float> dy(static_cast<std::size_t>(p.y.count()));
  fill_random(x.data(), p.x.count(), 51);
  fill_random(w.data(), p.w.count(), 52);
  fill_random(dy.data(), p.y.count(), 53);

  const float* a = tc.type == ConvKernelType::kBackwardData ? dy.data()
                                                            : x.data();
  const float* b = tc.type == ConvKernelType::kBackwardFilter ? dy.data()
                                                              : w.data();
  const std::int64_t out_count =
      tc.type == ConvKernelType::kForward        ? p.y.count()
      : tc.type == ConvKernelType::kBackwardData ? p.x.count()
                                                 : p.w.count();
  const int reference_algo =
      tc.type == ConvKernelType::kForward        ? fwd_algo::kDirect
      : tc.type == ConvKernelType::kBackwardData ? bwd_data_algo::kAlgo0
                                                 : bwd_filter_algo::kAlgo0;
  std::vector<float> base(static_cast<std::size_t>(out_count));
  fill_random(base.data(), out_count, 54);

  for (const float beta : {0.0f, 1.0f, 0.5f}) {
    std::vector<float> reference = base;
    execute(tc.type, reference_algo, p, a, b, reference.data(), 1.0f, beta,
            nullptr, 0);
    for (const int algo : gemm_family(tc.type)) {
      ASSERT_TRUE(algo_supported(tc.type, algo, p)) << algo_name(tc.type, algo);
      const std::size_t ws_bytes = algo_workspace(tc.type, algo, p);
      AlignedBuffer<char> ws(ws_bytes);
      std::vector<float> out = base;
      execute(tc.type, algo, p, a, b, out.data(), 1.0f, beta, ws.data(),
              ws_bytes);
      EXPECT_LT(max_rel_diff(out.data(), reference.data(), out_count), 5e-3)
          << tc.name << " " << algo_name(tc.type, algo) << " beta=" << beta;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TrainHostShapes, TrainHostGemmParityTest,
                         ::testing::ValuesIn(train_host_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(RegistryTest, AlgoCountsMirrorCudnn) {
  EXPECT_EQ(algo_count(ConvKernelType::kForward), 8);
  EXPECT_EQ(algo_count(ConvKernelType::kBackwardData), 6);
  EXPECT_EQ(algo_count(ConvKernelType::kBackwardFilter), 4);
}

TEST(RegistryTest, NamesAndRangeChecks) {
  EXPECT_EQ(algo_name(ConvKernelType::kForward, fwd_algo::kFftTiling),
            "FFT_TILING");
  EXPECT_EQ(algo_name(ConvKernelType::kBackwardFilter, bwd_filter_algo::kAlgo3),
            "ALGO_3");
  EXPECT_THROW(algo_name(ConvKernelType::kForward, 99), Error);
  EXPECT_THROW(algo_name(ConvKernelType::kForward, -1), Error);
}

TEST(RegistryTest, SupportRulesMatchCudnnRestrictions) {
  // Strided problem: FFT and Winograd families unsupported.
  const ConvProblem strided({1, 3, 11, 11}, {4, 3, 3, 3},
                            {.stride_h = 2, .stride_w = 2});
  EXPECT_FALSE(algo_supported(ConvKernelType::kForward, fwd_algo::kFft, strided));
  EXPECT_FALSE(
      algo_supported(ConvKernelType::kForward, fwd_algo::kWinograd, strided));
  EXPECT_TRUE(
      algo_supported(ConvKernelType::kForward, fwd_algo::kGemm, strided));

  // 5x5 kernel: Winograd F(2x2,3x3) unsupported, FFT fine.
  const ConvProblem k5({1, 3, 11, 11}, {4, 3, 5, 5}, {.pad_h = 2, .pad_w = 2});
  EXPECT_FALSE(
      algo_supported(ConvKernelType::kForward, fwd_algo::kWinograd, k5));
  EXPECT_TRUE(algo_supported(ConvKernelType::kForward, fwd_algo::kFft, k5));

  // Winograd backward-data needs pad <= 2.
  const ConvProblem bigpad({1, 2, 8, 8}, {3, 2, 3, 3}, {.pad_h = 3, .pad_w = 3});
  EXPECT_FALSE(algo_supported(ConvKernelType::kBackwardData,
                              bwd_data_algo::kWinograd, bigpad));
}

TEST(RegistryTest, WorkspaceQueriesThrowForUnsupported) {
  const ConvProblem strided({1, 3, 11, 11}, {4, 3, 3, 3},
                            {.stride_h = 2, .stride_w = 2});
  EXPECT_THROW(algo_workspace(ConvKernelType::kForward, fwd_algo::kFft, strided),
               Error);
}

TEST(RegistryTest, WorkspaceScalesAffinelyWithBatchForHeavyAlgos) {
  // ws(n) = constant (filter staging) + n * per-sample staging, with a
  // strictly positive per-sample term: the property micro-batching exploits.
  const ConvProblem p1({1, 8, 16, 16}, {8, 8, 3, 3}, {.pad_h = 1, .pad_w = 1});
  for (int algo : {fwd_algo::kGemm, fwd_algo::kFft, fwd_algo::kWinogradNonfused}) {
    const auto ws1 = algo_workspace(ConvKernelType::kForward, algo, p1);
    const auto ws2 = algo_workspace(ConvKernelType::kForward, algo,
                                    p1.with_batch(2));
    const auto ws4 = algo_workspace(ConvKernelType::kForward, algo,
                                    p1.with_batch(4));
    EXPECT_GT(ws2, ws1) << algo_name(ConvKernelType::kForward, algo);
    EXPECT_EQ(ws4 - ws2, 2 * (ws2 - ws1))
        << algo_name(ConvKernelType::kForward, algo);
  }
}

TEST(RegistryTest, BatchIndependentWorkspaceForLightAlgos) {
  const ConvProblem p1({1, 8, 16, 16}, {8, 8, 3, 3}, {.pad_h = 1, .pad_w = 1});
  const ConvProblem p8 = p1.with_batch(8);
  EXPECT_EQ(algo_workspace(ConvKernelType::kForward,
                           fwd_algo::kImplicitPrecompGemm, p1),
            algo_workspace(ConvKernelType::kForward,
                           fwd_algo::kImplicitPrecompGemm, p8));
  EXPECT_EQ(algo_workspace(ConvKernelType::kForward, fwd_algo::kImplicitGemm,
                           p8),
            0u);
  EXPECT_EQ(algo_workspace(ConvKernelType::kBackwardFilter,
                           bwd_filter_algo::kAlgo1, p1),
            algo_workspace(ConvKernelType::kBackwardFilter,
                           bwd_filter_algo::kAlgo1, p8));
}

TEST(RegistryTest, ExecuteRejectsTooSmallWorkspace) {
  const ConvProblem p({2, 4, 8, 8}, {4, 4, 3, 3}, {.pad_h = 1, .pad_w = 1});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  std::vector<float> w(static_cast<std::size_t>(p.w.count()));
  std::vector<float> y(static_cast<std::size_t>(p.y.count()));
  const std::size_t required =
      algo_workspace(ConvKernelType::kForward, fwd_algo::kGemm, p);
  AlignedBuffer<char> ws(required);
  EXPECT_THROW(execute(ConvKernelType::kForward, fwd_algo::kGemm, p, x.data(),
                       w.data(), y.data(), 1.0f, 0.0f, ws.data(), required - 1),
               Error);
  EXPECT_NO_THROW(execute(ConvKernelType::kForward, fwd_algo::kGemm, p,
                          x.data(), w.data(), y.data(), 1.0f, 0.0f, ws.data(),
                          required));
}

TEST(RegistryTest, FlopModelsAreOrdered) {
  // Winograd should be modeled cheaper than direct for a 3x3 problem.
  const ConvProblem p({8, 64, 28, 28}, {64, 64, 3, 3}, {.pad_h = 1, .pad_w = 1});
  const double direct = algo_flops(ConvKernelType::kForward, fwd_algo::kDirect, p);
  const double wino =
      algo_flops(ConvKernelType::kForward, fwd_algo::kWinograd, p);
  EXPECT_LT(wino, direct);
  EXPECT_GT(wino, 0.25 * direct);  // but not absurdly cheaper
}

class AlphaBetaTest : public ::testing::TestWithParam<ConvKernelType> {};

TEST_P(AlphaBetaTest, ScalingContractHolds) {
  const ConvKernelType type = GetParam();
  const ConvProblem p({2, 3, 8, 8}, {4, 3, 3, 3}, {.pad_h = 1, .pad_w = 1});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  std::vector<float> w(static_cast<std::size_t>(p.w.count()));
  std::vector<float> dy(static_cast<std::size_t>(p.y.count()));
  fill_random(x.data(), p.x.count(), 1);
  fill_random(w.data(), p.w.count(), 2);
  fill_random(dy.data(), p.y.count(), 3);

  const float* a = type == ConvKernelType::kBackwardData ? dy.data() : x.data();
  const float* b = type == ConvKernelType::kBackwardFilter ? dy.data() : w.data();
  const std::int64_t out_count = type == ConvKernelType::kForward ? p.y.count()
                                 : type == ConvKernelType::kBackwardData
                                     ? p.x.count()
                                     : p.w.count();

  for (int algo = 0; algo < algo_count(type); ++algo) {
    if (!algo_supported(type, algo, p)) continue;
    const std::size_t ws_bytes = algo_workspace(type, algo, p);
    AlignedBuffer<char> ws(ws_bytes);

    std::vector<float> base(static_cast<std::size_t>(out_count));
    fill_random(base.data(), out_count, 44);
    std::vector<float> pure(static_cast<std::size_t>(out_count), 0.0f);
    execute(type, algo, p, a, b, pure.data(), 1.0f, 0.0f, ws.data(), ws_bytes);

    // out = 2*op + 0.5*base must equal the hand-combined value.
    std::vector<float> out = base;
    execute(type, algo, p, a, b, out.data(), 2.0f, 0.5f, ws.data(), ws_bytes);
    std::vector<float> expected(static_cast<std::size_t>(out_count));
    for (std::int64_t i = 0; i < out_count; ++i) {
      expected[static_cast<std::size_t>(i)] =
          2.0f * pure[static_cast<std::size_t>(i)] +
          0.5f * base[static_cast<std::size_t>(i)];
    }
    EXPECT_LT(max_rel_diff(out.data(), expected.data(), out_count), 5e-3)
        << to_string(type) << " " << algo_name(type, algo);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKernelTypes, AlphaBetaTest,
                         ::testing::Values(ConvKernelType::kForward,
                                           ConvKernelType::kBackwardData,
                                           ConvKernelType::kBackwardFilter));

TEST(MicroBatchSemanticsTest, ForwardSplitEqualsWhole) {
  // The core micro-batching property (paper §II): computing disjoint batch
  // slices sequentially gives the same output as one call.
  const ConvProblem p({8, 4, 10, 10}, {6, 4, 3, 3}, {.pad_h = 1, .pad_w = 1});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  std::vector<float> w(static_cast<std::size_t>(p.w.count()));
  fill_random(x.data(), p.x.count(), 5);
  fill_random(w.data(), p.w.count(), 6);

  std::vector<float> whole(static_cast<std::size_t>(p.y.count()), 0.0f);
  const std::size_t ws_bytes =
      algo_workspace(ConvKernelType::kForward, fwd_algo::kGemm, p);
  AlignedBuffer<char> ws(ws_bytes);
  execute(ConvKernelType::kForward, fwd_algo::kGemm, p, x.data(), w.data(),
          whole.data(), 1.0f, 0.0f, ws.data(), ws_bytes);

  std::vector<float> split(static_cast<std::size_t>(p.y.count()), 0.0f);
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;
  std::int64_t offset = 0;
  for (std::int64_t micro : {3, 4, 1}) {
    const ConvProblem mp = p.with_batch(micro);
    // Different algorithm per micro-batch, like μ-cuDNN configurations.
    const int algo = offset == 0 ? fwd_algo::kFft : fwd_algo::kWinogradNonfused;
    const std::size_t mws = algo_workspace(ConvKernelType::kForward, algo, mp);
    AlignedBuffer<char> buf(mws);
    execute(ConvKernelType::kForward, algo, mp, x.data() + offset * image_x,
            w.data(), split.data() + offset * image_y, 1.0f, 0.0f, buf.data(),
            mws);
    offset += micro;
  }
  EXPECT_EQ(offset, p.x.n);
  EXPECT_LT(max_rel_diff(split.data(), whole.data(), p.y.count()), 5e-3);
}

TEST(MicroBatchSemanticsTest, BackwardFilterAccumulationEqualsWhole) {
  // BackwardFilter micro-batches must accumulate via beta=1 (paper §II).
  const ConvProblem p({6, 4, 10, 10}, {5, 4, 3, 3}, {.pad_h = 1, .pad_w = 1});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  std::vector<float> dy(static_cast<std::size_t>(p.y.count()));
  fill_random(x.data(), p.x.count(), 7);
  fill_random(dy.data(), p.y.count(), 8);

  std::vector<float> whole(static_cast<std::size_t>(p.w.count()), 0.0f);
  const std::size_t ws_bytes =
      algo_workspace(ConvKernelType::kBackwardFilter, bwd_filter_algo::kAlgo3, p);
  AlignedBuffer<char> ws(ws_bytes);
  execute(ConvKernelType::kBackwardFilter, bwd_filter_algo::kAlgo3, p, x.data(),
          dy.data(), whole.data(), 1.0f, 0.0f, ws.data(), ws_bytes);

  std::vector<float> split(static_cast<std::size_t>(p.w.count()), 0.0f);
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;
  std::int64_t offset = 0;
  bool first = true;
  for (std::int64_t micro : {2, 3, 1}) {
    const ConvProblem mp = p.with_batch(micro);
    const int algo =
        first ? bwd_filter_algo::kAlgo1 : bwd_filter_algo::kFft;
    const std::size_t mws =
        algo_workspace(ConvKernelType::kBackwardFilter, algo, mp);
    AlignedBuffer<char> buf(mws);
    execute(ConvKernelType::kBackwardFilter, algo, mp,
            x.data() + offset * image_x, dy.data() + offset * image_y,
            split.data(), 1.0f, first ? 0.0f : 1.0f, buf.data(), mws);
    offset += micro;
    first = false;
  }
  EXPECT_EQ(offset, p.x.n);
  EXPECT_LT(max_rel_diff(split.data(), whole.data(), p.w.count()), 5e-3);
}

TEST(Im2colTest, RoundTripThroughCol2im) {
  // col2im(im2col(x)) multiplies each input element by the number of windows
  // covering it; for a 1x1 kernel with stride 1 that count is exactly 1.
  const ConvProblem p({1, 3, 6, 6}, {2, 3, 1, 1}, {});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  fill_random(x.data(), p.x.count(), 9);
  std::vector<float> col(
      static_cast<std::size_t>(col_rows(p) * p.y.h * p.y.w));
  im2col(p, x.data(), col.data());
  std::vector<float> back(static_cast<std::size_t>(p.x.count()), 0.0f);
  col2im_accumulate(p, col.data(), back.data());
  EXPECT_LT(max_abs_diff(back.data(), x.data(), p.x.count()), 1e-6);
}

TEST(Im2colTest, IndexedMatchesPlain) {
  const ConvProblem p({1, 3, 9, 7}, {2, 3, 3, 3},
                      {.pad_h = 1, .pad_w = 2, .stride_h = 2, .stride_w = 1});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  fill_random(x.data(), p.x.count(), 10);
  const std::size_t cells =
      static_cast<std::size_t>(col_rows(p) * p.y.h * p.y.w);
  std::vector<float> col_plain(cells), col_indexed(cells);
  im2col(p, x.data(), col_plain.data());
  std::vector<std::int32_t> indices(cells);
  build_gather_indices(p, indices.data());
  im2col_indexed(p, indices.data(), x.data(), col_indexed.data());
  EXPECT_EQ(max_abs_diff(col_plain.data(), col_indexed.data(),
                         static_cast<std::int64_t>(cells)),
            0.0);
}

TEST(Im2colTest, BatchedLayoutMatchesPerImage) {
  const ConvProblem p({3, 2, 6, 6}, {2, 2, 3, 3}, {.pad_h = 1, .pad_w = 1});
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  fill_random(x.data(), p.x.count(), 11);
  const std::int64_t rows = col_rows(p);
  const std::int64_t plane = p.y.h * p.y.w;
  const std::int64_t total = p.x.n * plane;
  std::vector<float> batched(static_cast<std::size_t>(rows * total));
  im2col_batched(p, x.data(), batched.data());
  std::vector<float> single(static_cast<std::size_t>(rows * plane));
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  for (std::int64_t n = 0; n < p.x.n; ++n) {
    im2col(p, x.data() + n * image_x, single.data());
    for (std::int64_t row = 0; row < rows; ++row) {
      for (std::int64_t q = 0; q < plane; ++q) {
        EXPECT_EQ(batched[static_cast<std::size_t>(row * total + n * plane + q)],
                  single[static_cast<std::size_t>(row * plane + q)])
            << "n=" << n << " row=" << row << " q=" << q;
      }
    }
  }
}

}  // namespace
}  // namespace ucudnn::kernels
