// Planner/plan/executor layer tests.
//
// The equivalence suites prefill the benchmark cache with synthetic perf
// tables whose winners (fwd GEMM, bwd-data ALGO_1, bwd-filter ALGO_1) are
// division-invariant — each output element is accumulated in an order
// independent of the micro-batch division — so a micro-batched ExecutionPlan
// must reproduce the single-shot mcudnn result bitwise, under WR, shared-WR
// and WD bindings alike. Stored workspace sizes are synthetically linear in
// the micro-batch (and at least the real requirement) so a workspace limit
// of mem(4) deterministically forces the [4, 4] winner division.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/plan.h"
#include "core/ucudnn.h"
#include "kernels/registry.h"
#include "tensor/tensor.h"

namespace ucudnn {
namespace {

constexpr ConvKernelType kAllTypes[] = {ConvKernelType::kForward,
                                        ConvKernelType::kBackwardFilter,
                                        ConvKernelType::kBackwardData};

kernels::ConvProblem test_problem() {
  return kernels::ConvProblem({8, 8, 12, 12}, {8, 8, 3, 3},
                              {.pad_h = 1, .pad_w = 1});
}

int winner_algo(ConvKernelType type) {
  switch (type) {
    case ConvKernelType::kForward: return kernels::fwd_algo::kGemm;
    case ConvKernelType::kBackwardData: return kernels::bwd_data_algo::kAlgo1;
    case ConvKernelType::kBackwardFilter:
      return kernels::bwd_filter_algo::kAlgo1;
  }
  return -1;
}

int fallback_algo(ConvKernelType type) {
  switch (type) {
    case ConvKernelType::kForward: return kernels::fwd_algo::kDirect;
    case ConvKernelType::kBackwardData: return kernels::bwd_data_algo::kAlgo0;
    case ConvKernelType::kBackwardFilter:
      return kernels::bwd_filter_algo::kAlgo0;
  }
  return -1;
}

std::size_t winner_full_workspace(ConvKernelType type,
                                  const kernels::ConvProblem& problem) {
  return kernels::algo_workspace(type, winner_algo(type), problem);
}

/// Per-kernel limit that admits the [4, 4] winner division but not the
/// undivided winner (stored memory is `size * winner_full_workspace`).
std::size_t forcing_limit(ConvKernelType type,
                          const kernels::ConvProblem& problem) {
  return 4 * winner_full_workspace(type, problem);
}

/// Stores deterministic perf tables for every powerOfTwo micro-batch size of
/// `problem`: the division-invariant winner (fast, workspace linear in the
/// micro-batch) and a zero-workspace fallback (100x slower).
void prefill_plans(core::UcudnnHandle& handle, ConvKernelType type,
                   const kernels::ConvProblem& problem) {
  const std::string& device_name = handle.device().spec().name;
  const std::size_t full_ws = winner_full_workspace(type, problem);
  for (const std::int64_t size : core::candidate_micro_sizes(
           core::BatchSizePolicy::kPowerOfTwo, problem.batch())) {
    std::vector<mcudnn::AlgoPerf> perfs(2);
    perfs[0].algo = winner_algo(type);
    perfs[0].status = Status::kSuccess;
    perfs[0].time_ms = 1.0 + 0.01 * static_cast<double>(size);
    perfs[0].memory = static_cast<std::size_t>(size) * full_ws;
    perfs[1].algo = fallback_algo(type);
    perfs[1].status = Status::kSuccess;
    perfs[1].time_ms = 100.0 + 0.01 * static_cast<double>(size);
    perfs[1].memory = 0;
    handle.cache()->store(device_name, type, problem.with_batch(size), perfs);
  }
}

struct OperandCounts {
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::int64_t out = 0;
};

OperandCounts counts_for(ConvKernelType type, const kernels::ConvProblem& p) {
  switch (type) {
    case ConvKernelType::kForward:
      return {p.x.count(), p.w.count(), p.y.count()};
    case ConvKernelType::kBackwardData:
      return {p.y.count(), p.w.count(), p.x.count()};
    case ConvKernelType::kBackwardFilter:
      return {p.x.count(), p.y.count(), p.w.count()};
  }
  return {};
}

struct Operands {
  std::vector<float> a;
  std::vector<float> b;
  std::vector<float> out;
};

Operands make_operands(ConvKernelType type, const kernels::ConvProblem& p,
                       std::uint64_t seed) {
  const OperandCounts c = counts_for(type, p);
  Operands ops;
  ops.a.resize(static_cast<std::size_t>(c.a));
  ops.b.resize(static_cast<std::size_t>(c.b));
  ops.out.assign(static_cast<std::size_t>(c.out), 0.0f);
  fill_random(ops.a.data(), c.a, seed + 1);
  fill_random(ops.b.data(), c.b, seed + 2);
  return ops;
}

/// Reference: the undivided convolution straight through mcudnn.
std::vector<float> single_shot(core::UcudnnHandle& handle, ConvKernelType type,
                               const kernels::ConvProblem& p, int algo,
                               const Operands& ops) {
  std::vector<float> out(ops.out.size(), 0.0f);
  const std::size_t ws_bytes = kernels::algo_workspace(type, algo, p);
  std::vector<unsigned char> ws(ws_bytes);
  mcudnn::convolution(handle.base(), type, p, 1.0f, ops.a.data(), ops.b.data(),
                      0.0f, out.data(), algo,
                      ws_bytes == 0 ? nullptr : ws.data(), ws_bytes);
  return out;
}

void expect_bitwise(const std::vector<float>& got,
                    const std::vector<float>& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(
      std::memcmp(got.data(), want.data(), got.size() * sizeof(float)), 0)
      << "outputs differ bitwise";
}

void expect_winner_division(const core::Configuration* config,
                            ConvKernelType type) {
  ASSERT_NE(config, nullptr);
  ASSERT_EQ(config->micro.size(), 2u);
  for (const core::MicroConfig& m : config->micro) {
    EXPECT_EQ(m.algo, winner_algo(type));
    EXPECT_EQ(m.batch, 4);
  }
}

class PlanTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::instance().configure(""); }
};

// -------------------------------------------------------------- plan IR

TEST_F(PlanTest, OperandStridesMatchTheKernelSlicing) {
  const kernels::ConvProblem p = test_problem();
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;

  const core::OperandStrides fwd =
      core::operand_strides(ConvKernelType::kForward, p);
  EXPECT_EQ(fwd.a, image_x);
  EXPECT_EQ(fwd.b, 0);
  EXPECT_EQ(fwd.out, image_y);

  const core::OperandStrides bwd_data =
      core::operand_strides(ConvKernelType::kBackwardData, p);
  EXPECT_EQ(bwd_data.a, image_y);
  EXPECT_EQ(bwd_data.b, 0);
  EXPECT_EQ(bwd_data.out, image_x);

  const core::OperandStrides bwd_filter =
      core::operand_strides(ConvKernelType::kBackwardFilter, p);
  EXPECT_EQ(bwd_filter.a, image_x);
  EXPECT_EQ(bwd_filter.b, image_y);
  EXPECT_EQ(bwd_filter.out, 0);  // dw accumulates in place
}

TEST_F(PlanTest, BuildPlanLowersOffsetsAndAccumulationFlags) {
  const kernels::ConvProblem p = test_problem();
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;

  core::Configuration config;
  config.append({/*algo=*/1, /*batch=*/3, /*time_ms=*/1.0, /*workspace=*/64});
  config.append({/*algo=*/2, /*batch=*/5, /*time_ms=*/2.0, /*workspace=*/32});

  const core::ExecutionPlan plan =
      core::build_plan(ConvKernelType::kBackwardFilter, p, config,
                       {core::WorkspaceKind::kPerKernel, 0, 64});
  ASSERT_EQ(plan.segments.size(), 2u);
  EXPECT_EQ(plan.segments[0].a_offset, 0);
  EXPECT_EQ(plan.segments[0].b_offset, 0);
  EXPECT_EQ(plan.segments[0].out_offset, 0);
  EXPECT_FALSE(plan.segments[0].accumulate);
  EXPECT_EQ(plan.segments[1].a_offset, 3 * image_x);
  EXPECT_EQ(plan.segments[1].b_offset, 3 * image_y);
  EXPECT_EQ(plan.segments[1].out_offset, 0);
  EXPECT_TRUE(plan.segments[1].accumulate);  // BackwardFilter tail segments
  EXPECT_EQ(plan.workspace, 64u);
  EXPECT_EQ(plan.batch(), 8);

  // Forward never sets the accumulation flag.
  const core::ExecutionPlan fwd =
      core::build_plan(ConvKernelType::kForward, p, config,
                       {core::WorkspaceKind::kNone, 0, 0});
  EXPECT_FALSE(fwd.segments[0].accumulate);
  EXPECT_FALSE(fwd.segments[1].accumulate);
  EXPECT_EQ(fwd.segments[1].a_offset, 3 * image_x);
  EXPECT_EQ(fwd.segments[1].out_offset, 3 * image_y);

  // A configuration that does not cover the mini-batch is an internal error.
  core::Configuration short_config;
  short_config.append({1, 3, 1.0, 0});
  try {
    core::build_plan(ConvKernelType::kForward, p, short_config,
                     {core::WorkspaceKind::kNone, 0, 0});
    FAIL() << "expected kInternalError for a non-covering configuration";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInternalError);
  }
}

TEST_F(PlanTest, BuildTailSegmentsContinueFromTheExecutedPrefix) {
  const kernels::ConvProblem p = test_problem();
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;

  core::Configuration tail;
  tail.append({/*algo=*/0, /*batch=*/2, /*time_ms=*/1.0, /*workspace=*/0});
  tail.append({/*algo=*/0, /*batch=*/2, /*time_ms=*/1.0, /*workspace=*/0});

  const auto segments = core::build_tail_segments(
      ConvKernelType::kBackwardFilter, p, tail, /*done=*/4);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].a_offset, 4 * image_x);
  EXPECT_EQ(segments[1].a_offset, 6 * image_x);
  // Both continue a partial accumulation: beta must stay 1 across the splice.
  EXPECT_TRUE(segments[0].accumulate);
  EXPECT_TRUE(segments[1].accumulate);

  try {
    core::build_tail_segments(ConvKernelType::kBackwardFilter, p, tail,
                              /*done=*/2);
    FAIL() << "expected kInternalError for a tail that misses the remainder";
  } catch (const Error& e) {
    EXPECT_EQ(e.status(), Status::kInternalError);
  }
}

TEST_F(PlanTest, PlanToStringNamesSegmentsAndBinding) {
  const kernels::ConvProblem p = test_problem();
  core::Configuration config;
  config.append({2, 4, 1.0, 128});
  config.append({2, 4, 1.0, 128});
  const core::ExecutionPlan plan =
      core::build_plan(ConvKernelType::kBackwardFilter, p, config,
                       {core::WorkspaceKind::kWdArena, 512, 128});
  const std::string text = plan.to_string();
  EXPECT_NE(text.find("BackwardFilter"), std::string::npos);
  EXPECT_NE(text.find("4:algo2"), std::string::npos);
  EXPECT_NE(text.find("(acc)"), std::string::npos);
  EXPECT_NE(text.find("wdArena+512"), std::string::npos);
}

// ----------------------------------------------------- plan equivalence

TEST_F(PlanTest, WrPlanBitwiseEqualsSingleShotForAllKernelTypes) {
  for (const ConvKernelType type : kAllTypes) {
    const kernels::ConvProblem p = test_problem();
    core::Options opts;
    opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
    opts.workspace_limit = forcing_limit(type, p);
    core::UcudnnHandle handle(
        std::make_shared<device::Device>(device::host_cpu_spec()), opts);
    prefill_plans(handle, type, p);

    const Operands ops = make_operands(type, p, 17 * static_cast<int>(type));
    std::vector<float> out = ops.out;
    handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                       out.data());
    expect_winner_division(handle.configuration_for(type, p), type);
    expect_bitwise(out, single_shot(handle, type, p, winner_algo(type), ops));
  }
}

TEST_F(PlanTest, SharedWrPlanBitwiseEqualsSingleShotForAllKernelTypes) {
  for (const ConvKernelType type : kAllTypes) {
    const kernels::ConvProblem p = test_problem();
    core::Options opts;
    opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
    opts.workspace_limit = forcing_limit(type, p);
    opts.share_wr_workspace = true;
    auto dev = std::make_shared<device::Device>(device::host_cpu_spec());
    core::UcudnnHandle handle(dev, opts);
    prefill_plans(handle, type, p);

    const Operands ops = make_operands(type, p, 23 * static_cast<int>(type));
    std::vector<float> out = ops.out;
    handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                       out.data());
    expect_winner_division(handle.configuration_for(type, p), type);
    // The workspace went into the single shared buffer, not a per-kernel one.
    EXPECT_GT(dev->usage_by_tag().at("shared:ws"), 0u);
    expect_bitwise(out, single_shot(handle, type, p, winner_algo(type), ops));
  }
}

TEST_F(PlanTest, WdPlanBitwiseEqualsSingleShotForAllKernelTypes) {
  const kernels::ConvProblem p = test_problem();
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_policy = core::WorkspacePolicy::kWD;
  opts.total_workspace_size = 0;
  for (const ConvKernelType type : kAllTypes) {
    opts.total_workspace_size += forcing_limit(type, p);
  }
  auto dev = std::make_shared<device::Device>(device::host_cpu_spec());
  core::UcudnnHandle handle(dev, opts);
  for (const ConvKernelType type : kAllTypes) {
    prefill_plans(handle, type, p);
    handle.get_algorithm(type, p, mcudnn::AlgoPreference::kPreferFastest, 0);
  }
  handle.finalize_wd();
  ASSERT_TRUE(handle.wd_finalized());
  EXPECT_GT(dev->usage_by_tag().at("wd_arena"), 0u);

  for (const ConvKernelType type : kAllTypes) {
    // The arena admits exactly the [4, 4] winner division for every kernel.
    expect_winner_division(handle.configuration_for(type, p), type);
    const Operands ops = make_operands(type, p, 29 * static_cast<int>(type));
    std::vector<float> out = ops.out;
    handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                       out.data());
    expect_bitwise(out, single_shot(handle, type, p, winner_algo(type), ops));
  }
}

// ------------------------------------------------- mid-plan replan splice

TEST_F(PlanTest, MidPlanReplanSplicesTailPreservingAccumulation) {
  const ConvKernelType type = ConvKernelType::kBackwardFilter;
  const kernels::ConvProblem p = test_problem();
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = forcing_limit(type, p);
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), opts);
  prefill_plans(handle, type, p);
  // The tail re-plan benchmarks the remaining 4 samples as a problem in its
  // own right; prefill that table too so the test stays deterministic.
  prefill_plans(handle, type, p.with_batch(4));

  // Plan is [4(winner), 4(winner)]. The first launch succeeds; the second
  // segment fails its initial launch plus all 3 retries, so the winner is
  // blacklisted and the remaining 4 samples re-planned onto the fallback.
  const Operands ops = make_operands(type, p, 101);
  std::vector<float> out = ops.out;
  FaultInjector::instance().configure("kernel:after=1,every=1,count=4");
  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                     out.data());
  FaultInjector::instance().configure("");

  const core::DegradationStats& stats = handle.degradation_stats();
  EXPECT_EQ(stats.retries.value(), 3u);
  EXPECT_EQ(stats.blacklisted_algorithms.value(), 1u);
  EXPECT_EQ(handle.plan_cache().epoch(), 1u);
  // The re-benchmark of the tail is charged to the replan counter, not lost.
  EXPECT_GT(handle.total_replan_benchmark_ms(), 0.0);

  // Reference: winner on images [0, 4) seeding dw (beta = 0), fallback on
  // images [4, 8) continuing the accumulation (beta = 1) — the exact
  // spliced schedule, straight through mcudnn.
  const core::OperandStrides strides = core::operand_strides(type, p);
  const kernels::ConvProblem half = p.with_batch(4);
  std::vector<float> want(ops.out.size(), 0.0f);
  {
    const std::size_t ws_bytes =
        kernels::algo_workspace(type, winner_algo(type), half);
    std::vector<unsigned char> ws(ws_bytes);
    mcudnn::convolution(handle.base(), type, half, 1.0f, ops.a.data(),
                        ops.b.data(), 0.0f, want.data(), winner_algo(type),
                        ws.data(), ws_bytes);
    mcudnn::convolution(handle.base(), type, half, 1.0f,
                        ops.a.data() + 4 * strides.a,
                        ops.b.data() + 4 * strides.b, 1.0f, want.data(),
                        fallback_algo(type), nullptr, 0);
  }
  expect_bitwise(out, want);

  // The next convolution drops the stale WR entry, re-plans without the
  // blacklisted winner, and still matches the all-fallback single shot.
  const Operands ops2 = make_operands(type, p, 202);
  std::vector<float> out2 = ops2.out;
  handle.convolution(type, p, 1.0f, ops2.a.data(), ops2.b.data(), 0.0f,
                     out2.data());
  const core::Configuration* config = handle.configuration_for(type, p);
  ASSERT_NE(config, nullptr);
  for (const core::MicroConfig& m : config->micro) {
    EXPECT_EQ(m.algo, fallback_algo(type));
  }
  expect_bitwise(out2, single_shot(handle, type, p, fallback_algo(type), ops2));
}

// ------------------------------------------------------------ plan cache

TEST_F(PlanTest, SteadyStateConvolutionIsAPlanCacheHit) {
  const ConvKernelType type = ConvKernelType::kForward;
  const kernels::ConvProblem p = test_problem();
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = forcing_limit(type, p);
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), opts);
  prefill_plans(handle, type, p);

  const Operands ops = make_operands(type, p, 301);
  std::vector<float> out = ops.out;
  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                     out.data());
  EXPECT_EQ(handle.plan_cache().misses(), 1u);
  EXPECT_EQ(handle.plan_cache().hits(), 0u);
  EXPECT_EQ(handle.plan_cache().size(), 1u);

  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                     out.data());
  EXPECT_EQ(handle.plan_cache().misses(), 1u);
  EXPECT_EQ(handle.plan_cache().hits(), 1u);
  EXPECT_EQ(handle.plan_cache().size(), 1u);
  EXPECT_EQ(handle.plan_cache().epoch(), 0u);
}

TEST_F(PlanTest, BlacklistEventBumpsTheEpochAndInvalidatesCachedPlans) {
  const ConvKernelType type = ConvKernelType::kForward;
  const kernels::ConvProblem p = test_problem();
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = forcing_limit(type, p);
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), opts);
  prefill_plans(handle, type, p);
  prefill_plans(handle, type, p.with_batch(4));

  const Operands ops = make_operands(type, p, 401);
  std::vector<float> out = ops.out;
  // First call: plans [4, 4] winner and fails over to the fallback mid-plan.
  FaultInjector::instance().configure("kernel:after=1,every=1,count=4");
  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                     out.data());
  FaultInjector::instance().configure("");
  EXPECT_EQ(handle.plan_cache().epoch(), 1u);
  EXPECT_EQ(handle.plan_cache().size(), 0u);  // old epoch's plans dropped
  EXPECT_EQ(handle.plan_cache().misses(), 1u);

  // Next call re-plans under the new epoch (miss), the one after hits.
  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                     out.data());
  EXPECT_EQ(handle.plan_cache().misses(), 2u);
  EXPECT_EQ(handle.plan_cache().hits(), 0u);
  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                     out.data());
  EXPECT_EQ(handle.plan_cache().misses(), 2u);
  EXPECT_EQ(handle.plan_cache().hits(), 1u);
}

TEST_F(PlanTest, ReRecordedWrKernelReplansAndReplacesItsWorkspace) {
  const ConvKernelType type = ConvKernelType::kForward;
  const kernels::ConvProblem p = test_problem();
  const std::size_t full_ws = winner_full_workspace(type, p);
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  auto dev = std::make_shared<device::Device>(device::host_cpu_spec());
  core::UcudnnHandle handle(dev, opts);
  prefill_plans(handle, type, p);
  const Operands ops = make_operands(type, p, 451);
  std::vector<float> out = ops.out;

  // Room for the undivided winner: one segment holding 8 samples' workspace.
  handle.get_algorithm(type, p, mcudnn::AlgoPreference::kSpecifyWorkspaceLimit,
                       8 * full_ws);
  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                     out.data());
  ASSERT_NE(handle.configuration_for(type, p), nullptr);
  EXPECT_EQ(handle.configuration_for(type, p)->micro.size(), 1u);
  EXPECT_EQ(dev->bytes_in_use(), 8 * full_ws);

  // The framework re-records the same kernel under a tighter limit: the
  // next call re-plans to [4, 4] and the old workspace is released, so the
  // device holds only the new one.
  handle.get_algorithm(type, p, mcudnn::AlgoPreference::kSpecifyWorkspaceLimit,
                       forcing_limit(type, p));
  EXPECT_EQ(handle.recorded_kernels().size(), 1u);
  out = ops.out;
  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                     out.data());
  expect_winner_division(handle.configuration_for(type, p), type);
  EXPECT_EQ(dev->bytes_in_use(), 4 * full_ws);
  EXPECT_EQ(dev->usage_by_tag().at("kernel0(Forward):ws"), 4 * full_ws);
  EXPECT_EQ(handle.plan_cache().misses(), 2u);
  EXPECT_EQ(handle.plan_cache().size(), 1u);
  expect_bitwise(out, single_shot(handle, type, p, winner_algo(type), ops));
}

TEST_F(PlanTest, FailedReplanUnderANewLimitLeavesNoStalePlan) {
  const ConvKernelType type = ConvKernelType::kForward;
  const kernels::ConvProblem p = test_problem();
  const std::size_t full_ws = winner_full_workspace(type, p);
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.fail_fast = true;  // the replacement's allocation failure throws
  auto dev = std::make_shared<device::Device>(device::host_cpu_spec());
  core::UcudnnHandle handle(dev, opts);
  prefill_plans(handle, type, p);
  const Operands ops = make_operands(type, p, 461);
  std::vector<float> out = ops.out;
  const auto record = [&](std::size_t limit) {
    handle.get_algorithm(type, p,
                         mcudnn::AlgoPreference::kSpecifyWorkspaceLimit, limit);
  };
  const auto run = [&] {
    handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), 0.0f,
                       out.data());
  };

  record(8 * full_ws);
  run();
  record(forcing_limit(type, p));
  FaultInjector::instance().configure("alloc:every=1,count=1");
  EXPECT_THROW(run(), Error);
  FaultInjector::instance().configure("");

  // Back under the first limit the kernel re-plans with a fresh workspace
  // instead of fetching the cached plan whose workspace was released.
  record(8 * full_ws);
  out = ops.out;
  run();
  EXPECT_EQ(dev->bytes_in_use(), 8 * full_ws);
  expect_bitwise(out, single_shot(handle, type, p, winner_algo(type), ops));
}

// ----------------------------------------- WD unrecorded-kernel fallback

TEST_F(PlanTest, WdUnrecordedKernelFallbackIsCountedPerOccurrence) {
  const kernels::ConvProblem recorded = test_problem();
  const kernels::ConvProblem unrecorded({8, 3, 12, 12}, {8, 3, 3, 3},
                                        {.pad_h = 1, .pad_w = 1});
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_policy = core::WorkspacePolicy::kWD;
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()), opts);
  prefill_plans(handle, ConvKernelType::kForward, recorded);
  prefill_plans(handle, ConvKernelType::kForward, unrecorded);
  handle.get_algorithm(ConvKernelType::kForward, recorded,
                       mcudnn::AlgoPreference::kPreferFastest, 0);
  handle.finalize_wd();
  ASSERT_TRUE(handle.wd_finalized());

  // A kernel the WD plan never saw falls back to WR — counted every time
  // (the log warns only once), and still executes correctly.
  const Operands ops =
      make_operands(ConvKernelType::kForward, unrecorded, 501);
  std::vector<float> out = ops.out;
  handle.convolution(ConvKernelType::kForward, unrecorded, 1.0f, ops.a.data(),
                     ops.b.data(), 0.0f, out.data());
  EXPECT_EQ(handle.degradation_stats().wd_unrecorded_fallbacks.value(), 1u);
  handle.convolution(ConvKernelType::kForward, unrecorded, 1.0f, ops.a.data(),
                     ops.b.data(), 0.0f, out.data());
  EXPECT_EQ(handle.degradation_stats().wd_unrecorded_fallbacks.value(), 2u);
  EXPECT_TRUE(handle.degradation_stats().any());
}

}  // namespace
}  // namespace ucudnn
