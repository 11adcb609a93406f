// Tests for the device simulator: profiles, the analytic time model's
// qualitative properties, memory tracking with capacity enforcement, the
// virtual clock, and multi-device nodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "common/status.h"
#include "device/device.h"
#include "kernels/registry.h"

namespace ucudnn::device {
namespace {

using kernels::ConvProblem;

ConvProblem conv2_like(std::int64_t batch) {
  // AlexNet conv2 shape.
  return ConvProblem({batch, 96, 27, 27}, {256, 96, 5, 5},
                     {.pad_h = 2, .pad_w = 2});
}

TEST(DeviceSpecTest, ProfilesMatchTableI) {
  EXPECT_EQ(p100_sxm2_spec().name, "P100-SXM2");
  EXPECT_NEAR(p100_sxm2_spec().peak_sp_gflops, 10600.0, 1.0);
  EXPECT_NEAR(p100_sxm2_spec().mem_bandwidth_gbs, 732.0, 1.0);
  EXPECT_EQ(p100_sxm2_spec().memory_bytes, std::size_t{16} << 30);
  EXPECT_NEAR(v100_sxm2_spec().peak_sp_gflops, 15700.0, 1.0);
  EXPECT_NEAR(v100_sxm2_spec().mem_bandwidth_gbs, 900.0, 1.0);
  EXPECT_FALSE(k80_spec().measured);
  EXPECT_TRUE(host_cpu_spec().measured);
}

TEST(DeviceModelTest, FasterDevicesAreFaster) {
  const Device k80(k80_spec());
  const Device p100(p100_sxm2_spec());
  const Device v100(v100_sxm2_spec());
  const ConvProblem p = conv2_like(256);
  for (int algo : {kernels::fwd_algo::kGemm, kernels::fwd_algo::kFft}) {
    const double tk = k80.model_time_ms(ConvKernelType::kForward, algo, p);
    const double tp = p100.model_time_ms(ConvKernelType::kForward, algo, p);
    const double tv = v100.model_time_ms(ConvKernelType::kForward, algo, p);
    EXPECT_GT(tk, tp);
    EXPECT_GT(tp, tv);
  }
}

TEST(DeviceModelTest, WorkspaceHeavyAlgosBeatZeroWorkspaceOnes) {
  // The premise of the whole paper: at realistic sizes, FFT / batched GEMM /
  // Winograd-nonfused outperform the zero-workspace implicit GEMM.
  const Device p100(p100_sxm2_spec());
  const ConvProblem p = conv2_like(256);
  const double implicit = p100.model_time_ms(
      ConvKernelType::kForward, kernels::fwd_algo::kImplicitGemm, p);
  for (int algo : {kernels::fwd_algo::kGemm, kernels::fwd_algo::kFft}) {
    EXPECT_LT(p100.model_time_ms(ConvKernelType::kForward, algo, p), implicit)
        << kernels::algo_name(ConvKernelType::kForward, algo);
  }
}

TEST(DeviceModelTest, TinyMicroBatchesLoseEfficiency) {
  // Per-sample time must grow as the micro-batch shrinks (utilization term);
  // otherwise the WR optimizer would always pick micro-batch size 1.
  const Device p100(p100_sxm2_spec());
  const int algo = kernels::fwd_algo::kGemm;
  const double t1 =
      p100.model_time_ms(ConvKernelType::kForward, algo, conv2_like(1));
  const double t32 =
      p100.model_time_ms(ConvKernelType::kForward, algo, conv2_like(32));
  const double t256 =
      p100.model_time_ms(ConvKernelType::kForward, algo, conv2_like(256));
  EXPECT_GT(t1 * 32, t32);          // batching 32 is cheaper than 32 singles
  EXPECT_GT(t32 / 32.0, t256 / 256.0);  // per-sample cost still improving
}

TEST(DeviceModelTest, TimeIsMonotoneInBatchOncePipelined) {
  // Below ~batch_half the fixed filter-transform cost and the utilization
  // penalty interact non-monotonically (as on real GPUs); from moderate
  // batches on, more samples must cost more total time.
  const Device p100(p100_sxm2_spec());
  double prev = 0.0;
  for (std::int64_t batch : {8, 16, 32, 64, 128, 256}) {
    const double t = p100.model_time_ms(ConvKernelType::kForward,
                                        kernels::fwd_algo::kFft,
                                        conv2_like(batch));
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(DeviceModelTest, PinnedModelTimesOnP100) {
  // Every built-in algorithm the P100 profile supports, on AlexNet conv2 at
  // batch 32, a grouped 3x3 problem, the same 3x3 problem ungrouped
  // (Winograd) and a memory-bound 1x1 problem (the traffic term decides the
  // staged algorithms there). The other model tests check orderings only;
  // these values catch a change in any flops, traffic or efficiency term.
  const ConvProblem problems[] = {
      conv2_like(32),
      ConvProblem({16, 64, 14, 14}, {128, 32, 3, 3},
                  {.pad_h = 1, .pad_w = 1, .groups = 2}),
      ConvProblem({16, 64, 14, 14}, {128, 64, 3, 3}, {.pad_h = 1, .pad_w = 1}),
      ConvProblem({32, 16, 64, 64}, {16, 16, 1, 1}, {}),
  };
  constexpr ConvKernelType kFwd = ConvKernelType::kForward;
  constexpr ConvKernelType kBwdData = ConvKernelType::kBackwardData;
  constexpr ConvKernelType kBwdFilter = ConvKernelType::kBackwardFilter;
  using namespace kernels;
  struct Pinned {
    int problem;
    ConvKernelType type;
    int algo;
    double ms;
  };
  const Pinned pinned[] = {
      {0, kFwd, fwd_algo::kImplicitGemm, 12.682347169811321},
      {0, kFwd, fwd_algo::kImplicitPrecompGemm, 8.4568981132075471},
      {0, kFwd, fwd_algo::kGemm, 6.1256158750813281},
      {0, kFwd, fwd_algo::kDirect, 44.373215094339628},
      {0, kFwd, fwd_algo::kFft, 2.0558424271698112},
      {0, kFwd, fwd_algo::kFftTiling, 2.3353663945111496},
      {0, kBwdData, bwd_data_algo::kAlgo0, 16.139532761578046},
      {0, kBwdData, bwd_data_algo::kAlgo1, 6.831725399129172},
      {0, kBwdData, bwd_data_algo::kFft, 2.0558424271698112},
      {0, kBwdData, bwd_data_algo::kFftTiling, 2.3353663945111496},
      {0, kBwdFilter, bwd_filter_algo::kAlgo0, 17.752886037735845},
      {0, kBwdFilter, bwd_filter_algo::kAlgo1, 7.893504905660377},
      {0, kBwdFilter, bwd_filter_algo::kFft, 2.0558424271698112},
      {0, kBwdFilter, bwd_filter_algo::kAlgo3, 6.1256158750813281},
      {1, kFwd, fwd_algo::kImplicitGemm, 0.13258958490566033},
      {1, kFwd, fwd_algo::kImplicitPrecompGemm, 0.0903930566037736},
      {1, kFwd, fwd_algo::kDirect, 0.44906354716981123},
      {1, kBwdData, bwd_data_algo::kAlgo0, 0.16711401715265867},
      {1, kBwdFilter, bwd_filter_algo::kAlgo0, 0.18322541886792451},
      {2, kFwd, fwd_algo::kImplicitGemm, 0.25917916981132066},
      {2, kFwd, fwd_algo::kImplicitPrecompGemm, 0.17478611320754719},
      {2, kFwd, fwd_algo::kGemm, 0.1282244268054652},
      {2, kFwd, fwd_algo::kDirect, 0.89212709433962245},
      {2, kFwd, fwd_algo::kFft, 0.12366803320754716},
      {2, kFwd, fwd_algo::kFftTiling, 0.58104186620926246},
      {2, kFwd, fwd_algo::kWinograd, 0.076174661197703025},
      {2, kFwd, fwd_algo::kWinogradNonfused, 0.059800573584905654},
      {2, kBwdData, bwd_data_algo::kAlgo0, 0.32822803430531733},
      {2, kBwdData, bwd_data_algo::kAlgo1, 0.14232724528301885},
      {2, kBwdData, bwd_data_algo::kFft, 0.12366803320754716},
      {2, kBwdData, bwd_data_algo::kFftTiling, 0.58104186620926246},
      {2, kBwdData, bwd_data_algo::kWinograd, 0.079364418524871361},
      {2, kBwdData, bwd_data_algo::kWinogradNonfused, 0.061655765777488616},
      {2, kBwdFilter, bwd_filter_algo::kAlgo0, 0.36045083773584902},
      {2, kBwdFilter, bwd_filter_algo::kAlgo1, 0.16353370566037734},
      {2, kBwdFilter, bwd_filter_algo::kFft, 0.12366803320754716},
      {2, kBwdFilter, bwd_filter_algo::kAlgo3, 0.1282244268054652},
      {3, kFwd, fwd_algo::kImplicitGemm, 0.035676679245283019},
      {3, kFwd, fwd_algo::kImplicitPrecompGemm, 0.030353573770491804},
      {3, kFwd, fwd_algo::kGemm, 0.074760480874316942},
      {3, kFwd, fwd_algo::kDirect, 0.10986837735849059},
      {3, kFwd, fwd_algo::kFft, 0.15037704452830189},
      {3, kFwd, fwd_algo::kFftTiling, 0.15531079245283022},
      {3, kBwdData, bwd_data_algo::kAlgo0, 0.043770319039451118},
      {3, kBwdData, bwd_data_algo::kAlgo1, 0.074760480874316942},
      {3, kBwdData, bwd_data_algo::kFft, 0.15037704452830189},
      {3, kBwdData, bwd_data_algo::kFftTiling, 0.043327698113207552},
      {3, kBwdFilter, bwd_filter_algo::kAlgo0, 0.047547350943396217},
      {3, kBwdFilter, bwd_filter_algo::kAlgo1, 0.029637333333333335},
      {3, kBwdFilter, bwd_filter_algo::kFft, 0.15037704452830189},
      {3, kBwdFilter, bwd_filter_algo::kAlgo3, 0.074760480874316942},
  };
  const Device p100(p100_sxm2_spec());
  std::size_t checked = 0;
  for (int i = 0; i < static_cast<int>(std::size(problems)); ++i) {
    for (const ConvKernelType type : {kFwd, kBwdData, kBwdFilter}) {
      for (int algo = 0; algo < algo_count(type); ++algo) {
        if (!algo_supported(type, algo, problems[i])) continue;
        const auto it = std::find_if(
            std::begin(pinned), std::end(pinned), [&](const Pinned& e) {
              return e.problem == i && e.type == type && e.algo == algo;
            });
        ASSERT_NE(it, std::end(pinned))
            << "unpinned " << to_string(type) << " " << algo_name(type, algo)
            << " on problem " << i;
        EXPECT_NEAR(p100.model_time_ms(type, algo, problems[i]), it->ms,
                    it->ms * 1e-12)
            << to_string(type) << " " << algo_name(type, algo)
            << " on problem " << i;
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(pinned));
}

TEST(DeviceMemoryTest, TracksUsageAndPeak) {
  Device dev(p100_sxm2_spec());
  void* a = dev.allocate(1000, "layer1");
  void* b = dev.allocate(2000, "layer2");
  EXPECT_EQ(dev.bytes_in_use(), 3000u);
  EXPECT_EQ(dev.peak_bytes(), 3000u);
  dev.deallocate(a);
  EXPECT_EQ(dev.bytes_in_use(), 2000u);
  EXPECT_EQ(dev.peak_bytes(), 3000u);
  void* c = dev.allocate(500, "layer1");
  const auto usage = dev.usage_by_tag();
  EXPECT_EQ(usage.at("layer1"), 500u);
  EXPECT_EQ(usage.at("layer2"), 2000u);
  const auto peak = dev.peak_by_tag();
  EXPECT_EQ(peak.at("layer1"), 1000u);
  dev.deallocate(b);
  dev.deallocate(c);
  EXPECT_EQ(dev.bytes_in_use(), 0u);
}

TEST(DeviceMemoryTest, EnforcesCapacity) {
  DeviceSpec tiny = p100_sxm2_spec();
  tiny.memory_bytes = 1024;
  Device dev(tiny);
  void* a = dev.allocate(1000, "x");
  EXPECT_THROW(dev.allocate(100, "y"), Error);
  dev.deallocate(a);
  EXPECT_NO_THROW(dev.deallocate(nullptr));
  void* b = dev.allocate(1024, "z");
  dev.deallocate(b);
}

TEST(DeviceClockTest, AdvancesAndResets) {
  Device dev(p100_sxm2_spec());
  EXPECT_EQ(dev.clock_ms(), 0.0);
  dev.advance_clock_ms(1.5);
  dev.advance_clock_ms(2.5);
  EXPECT_DOUBLE_EQ(dev.clock_ms(), 4.0);
  dev.reset_clock();
  EXPECT_EQ(dev.clock_ms(), 0.0);
}

TEST(DeviceStreamTest, StreamsOverlapAndSyncJoins) {
  Device dev(p100_sxm2_spec());
  dev.advance_stream_ms(0, 5.0);
  dev.advance_stream_ms(1, 3.0);
  dev.advance_stream_ms(2, 7.0);
  // Wall clock is the longest stream (concurrent execution).
  EXPECT_DOUBLE_EQ(dev.clock_ms(), 7.0);
  EXPECT_DOUBLE_EQ(dev.stream_clock_ms(0), 5.0);
  EXPECT_DOUBLE_EQ(dev.stream_clock_ms(1), 3.0);
  EXPECT_DOUBLE_EQ(dev.stream_clock_ms(9), 0.0);  // untouched stream
  dev.sync_streams();
  EXPECT_DOUBLE_EQ(dev.stream_clock_ms(1), 7.0);
  dev.advance_stream_ms(1, 1.0);
  EXPECT_DOUBLE_EQ(dev.clock_ms(), 8.0);
  dev.reset_clock();
  EXPECT_DOUBLE_EQ(dev.clock_ms(), 0.0);
}

TEST(DeviceStreamTest, DefaultClockIsStreamZero) {
  Device dev(p100_sxm2_spec());
  dev.advance_clock_ms(2.5);
  EXPECT_DOUBLE_EQ(dev.stream_clock_ms(0), 2.5);
  EXPECT_DOUBLE_EQ(dev.clock_ms(), 2.5);
}

TEST(NodeTest, HomogeneousDevices) {
  Node node(p100_sxm2_spec(), 4);
  EXPECT_EQ(node.device_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(node.device(i)->spec().name, "P100-SXM2");
    EXPECT_EQ(node.device(i)->ordinal(), static_cast<int>(i));
  }
  EXPECT_THROW(Node(p100_sxm2_spec(), 0), Error);
}

TEST(EfficiencyTableTest, StagedAlgosBeatNaiveOnes) {
  using namespace kernels;
  EXPECT_GT(algo_efficiency(ConvKernelType::kForward, fwd_algo::kGemm),
            algo_efficiency(ConvKernelType::kForward, fwd_algo::kImplicitGemm));
  EXPECT_GT(algo_efficiency(ConvKernelType::kForward, fwd_algo::kImplicitGemm),
            algo_efficiency(ConvKernelType::kForward, fwd_algo::kDirect));
  EXPECT_GT(
      algo_efficiency(ConvKernelType::kBackwardData, bwd_data_algo::kAlgo1),
      algo_efficiency(ConvKernelType::kBackwardData, bwd_data_algo::kAlgo0));
  EXPECT_GT(
      algo_efficiency(ConvKernelType::kBackwardFilter, bwd_filter_algo::kAlgo3),
      algo_efficiency(ConvKernelType::kBackwardFilter, bwd_filter_algo::kAlgo0));
}

}  // namespace
}  // namespace ucudnn::device
