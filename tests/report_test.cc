// Execution-report tests (docs/observability.md, "Execution reports & bench
// artifacts").
//
// Coverage: (1) the JSON shape is pinned byte-for-byte against a hand-built
// report so downstream consumers can rely on key order and number rendering;
// (2) a real WR run's report embeds the exact ExecutionPlan::to_string()
// explain line and the per-segment algorithm names in the text form, and the
// JSON form passes the shared validator; (3) in virtual execution the
// executor's device-clock measurements must agree with the planner's DP
// estimates — both derive from the same device model, so the report's
// estimation error is (near) zero; (4) UCUDNN_REPORT_FILE round-trip through
// write_report_file in both renderings; (5) the workspace auditor's
// utilization gauge is mirrored into the report's audit section; (6) after
// a mid-execution re-plan, UcudnnHandle::estimation_error_pct() equals the
// built report's figure exactly.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/workspace_audit.h"
#include "common/fault_injection.h"
#include "core/plan.h"
#include "core/ucudnn.h"
#include "json_validator.h"
#include "kernels/registry.h"
#include "telemetry/metrics.h"
#include "telemetry/report.h"
#include "tensor/tensor.h"

using ucudnn::test::JsonValidator;

namespace ucudnn {
namespace {

// ------------------------------------------------------------ fixtures

kernels::ConvProblem test_problem() {
  return kernels::ConvProblem({8, 8, 12, 12}, {8, 8, 3, 3},
                              {.pad_h = 1, .pad_w = 1});
}

/// Stores deterministic perf tables for every powerOfTwo micro-batch of
/// `problem` on `handle`'s device: a GEMM winner whose workspace is linear in
/// the micro-batch and a zero-workspace fallback 100x slower. With a limit of
/// 4x the full winner workspace the DP must pick the [4, 4] GEMM division.
void prefill_plans(core::UcudnnHandle& handle,
                   const kernels::ConvProblem& problem) {
  const std::string& device_name = handle.device().spec().name;
  const std::size_t full_ws = kernels::algo_workspace(
      ConvKernelType::kForward, kernels::fwd_algo::kGemm, problem);
  for (const std::int64_t size : core::candidate_micro_sizes(
           core::BatchSizePolicy::kPowerOfTwo, problem.batch())) {
    std::vector<mcudnn::AlgoPerf> perfs(2);
    perfs[0].algo = kernels::fwd_algo::kGemm;
    perfs[0].status = Status::kSuccess;
    perfs[0].time_ms = 1.0 + 0.01 * static_cast<double>(size);
    perfs[0].memory = static_cast<std::size_t>(size) * full_ws;
    perfs[1].algo = kernels::fwd_algo::kDirect;
    perfs[1].status = Status::kSuccess;
    perfs[1].time_ms = 100.0 + 0.01 * static_cast<double>(size);
    perfs[1].memory = 0;
    handle.cache()->store(device_name, ConvKernelType::kForward,
                          problem.with_batch(size), perfs);
  }
}

std::size_t forcing_limit(const kernels::ConvProblem& problem) {
  return 4 * kernels::algo_workspace(ConvKernelType::kForward,
                                     kernels::fwd_algo::kGemm, problem);
}

core::Options wr_pow2(std::size_t limit) {
  core::Options opts;
  opts.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  opts.workspace_limit = limit;
  return opts;
}

/// Runs one forward convolution with real host operands.
void run_forward(core::UcudnnHandle& handle,
                 const kernels::ConvProblem& p) {
  std::vector<float> x(static_cast<std::size_t>(p.x.count()));
  std::vector<float> w(static_cast<std::size_t>(p.w.count()));
  std::vector<float> y(static_cast<std::size_t>(p.y.count()), 0.0f);
  fill_random(x.data(), p.x.count(), 11);
  fill_random(w.data(), p.w.count(), 12);
  handle.convolution(ConvKernelType::kForward, p, 1.0f, x.data(), w.data(),
                     0.0f, y.data());
}

// ----------------------------------------------- golden JSON structure

TEST(ReportTest, GoldenJsonStructure) {
  // Hand-built report with binary-exact numbers (2.0 vs 2.5 -> 25% error) so
  // the expected document is reproducible byte-for-byte.
  telemetry::ExecutionReport r;
  r.device = "TestDev";
  r.policy = "WR";
  r.batch_size_policy = "powerOfTwo";
  r.plan_cache_hits = 3;
  r.plan_cache_misses = 1;

  telemetry::KernelReport k;
  k.label = "conv1(Forward)";
  k.kernel_type = "Forward";
  k.problem = "x(4,3,8,8)";
  k.plan = "Forward x(4,3,8,8) [4:algo2@0] ws=1024 perKernel";
  k.policy = "WR";
  k.provenance = "wr_dp";
  k.workspace_kind = "perKernel";
  k.workspace_limit = 2048;
  k.workspace_declared = 1024;
  k.executions = 1;
  k.replans = 0;

  telemetry::SegmentReport s;
  s.batch = 4;
  s.algo = 2;
  s.algo_name = "GEMM";
  s.accumulate = false;
  s.workspace_bytes = 1024;
  s.estimated_ms = 2.0;
  s.measured_ms_total = 2.5;
  s.runs = 1;
  k.segments.push_back(s);
  r.kernels.push_back(k);

  telemetry::WorkspaceAuditReport a;
  a.kernel = "WR/GEMM";
  a.declared_bytes = 1024;
  a.touched_bytes = 512;
  a.runs = 1;
  r.audit.push_back(a);

  EXPECT_DOUBLE_EQ(s.measured_ms_avg(), 2.5);
  EXPECT_DOUBLE_EQ(s.error_pct(), 25.0);
  EXPECT_DOUBLE_EQ(r.estimation_error_pct(), 25.0);
  EXPECT_EQ(r.measured_segments(), 1u);
  EXPECT_DOUBLE_EQ(a.utilization_pct(), 50.0);

  const std::string expected =
      "{\"schema\":\"ucudnn-execution-report-v1\",\"device\":\"TestDev\","
      "\"policy\":\"WR\",\"batch_size_policy\":\"powerOfTwo\","
      "\"plan_cache\":{\"hits\":3,\"misses\":1},"
      "\"degradation\":\"\",\"estimation_error_pct\":25,"
      "\"measured_segments\":1,\"kernels\":[{\"label\":\"conv1(Forward)\","
      "\"kernel_type\":\"Forward\",\"problem\":\"x(4,3,8,8)\","
      "\"plan\":\"Forward x(4,3,8,8) [4:algo2@0] ws=1024 perKernel\","
      "\"policy\":\"WR\",\"provenance\":\"wr_dp\","
      "\"workspace\":{\"kind\":\"perKernel\",\"limit_bytes\":2048,"
      "\"declared_bytes\":1024},\"executions\":1,\"replans\":0,"
      "\"estimated_ms\":2,\"measured_ms\":2.5,\"error_pct\":25,"
      "\"segments\":[{\"batch\":4,\"algo\":2,\"algo_name\":\"GEMM\","
      "\"accumulate\":false,\"workspace_bytes\":1024,\"estimated_ms\":2,"
      "\"measured_ms\":2.5,\"error_pct\":25,\"runs\":1}]}],"
      "\"audit\":[{\"kernel\":\"WR/GEMM\",\"declared_bytes\":1024,"
      "\"touched_bytes\":512,\"utilization_pct\":50,\"runs\":1}]}";
  EXPECT_EQ(r.to_json(), expected);
  EXPECT_TRUE(JsonValidator(r.to_json()).validate());

  const std::string text = r.to_text();
  EXPECT_NE(text.find("=== ucudnn execution report: device=TestDev "
                      "policy=WR batchPolicy=powerOfTwo ==="),
            std::string::npos);
  EXPECT_NE(text.find("plan cache: 3 hit(s), 1 miss(es)\n"),
            std::string::npos);
  EXPECT_NE(text.find("degradation: none"), std::string::npos);
  EXPECT_NE(text.find(k.plan), std::string::npos);
  EXPECT_NE(text.find("utilization=50.0%"), std::string::npos);
  EXPECT_NE(text.find("aggregate estimation error: 25.00% over 1 measured "
                      "segment(s)"),
            std::string::npos);
}

// ------------------------------------ real run: plan explain agreement

TEST(ReportTest, ReportNamesTheExecutedDivisionAndAlgorithms) {
  const kernels::ConvProblem p = test_problem();
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()),
      wr_pow2(forcing_limit(p)));
  prefill_plans(handle, p);
  run_forward(handle, p);

  const telemetry::ExecutionReport report = handle.execution_report();
  ASSERT_EQ(report.kernels.size(), 1u);
  const telemetry::KernelReport& k = report.kernels[0];

  // The explain line is exactly the executed plan's to_string(): the forced
  // [4, 4] GEMM division with its per-kernel workspace.
  EXPECT_EQ(k.plan, "Forward " + p.to_string() + " [4:algo2@0, 4:algo2@4608]"
                    " ws=" + std::to_string(k.workspace_declared) +
                    " perKernel");
  EXPECT_EQ(k.policy, "WR");
  EXPECT_EQ(k.provenance, "wr_dp");
  EXPECT_EQ(k.workspace_kind, "perKernel");
  EXPECT_EQ(k.workspace_limit, forcing_limit(p));
  EXPECT_EQ(k.executions, 1u);
  EXPECT_EQ(k.replans, 0u);
  ASSERT_EQ(k.segments.size(), 2u);
  for (const telemetry::SegmentReport& s : k.segments) {
    EXPECT_EQ(s.batch, 4);
    EXPECT_EQ(s.algo, kernels::fwd_algo::kGemm);
    EXPECT_EQ(s.algo_name, "GEMM");
    EXPECT_EQ(s.runs, 1u);
    EXPECT_GT(s.measured_ms_avg(), 0.0);
  }

  // Text form names the same division and algorithms.
  const std::string text = report.to_text();
  EXPECT_NE(text.find(k.plan), std::string::npos);
  EXPECT_NE(text.find("GEMM"), std::string::npos);
  EXPECT_NE(text.find(k.label), std::string::npos);

  // JSON form is machine-readable.
  const std::string json = report.to_json();
  EXPECT_TRUE(JsonValidator(json).validate()) << "report JSON is malformed";
  EXPECT_NE(json.find("\"schema\":\"ucudnn-execution-report-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"algo_name\":\"GEMM\""), std::string::npos);
}

// ------------------------- estimation error without building the report

TEST(ReportTest, HandleEstimationErrorEqualsReportAfterReplan) {
  const kernels::ConvProblem p = test_problem();
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()),
      wr_pow2(forcing_limit(p)));
  prefill_plans(handle, p);
  prefill_plans(handle, p.with_batch(4));  // the tail re-plan's benchmark

  // The second [4] GEMM segment fails its launch and all 3 retries: GEMM is
  // blacklisted and the tail re-planned onto DIRECT mid-execution. Later
  // runs execute the rebuilt plan.
  FaultInjector::instance().configure("kernel:after=1,every=1,count=4");
  run_forward(handle, p);
  FaultInjector::instance().configure("");
  EXPECT_EQ(handle.degradation_stats().blacklisted_algorithms.value(), 1u);
  const telemetry::ExecutionReport replanned = handle.execution_report();
  ASSERT_EQ(replanned.kernels.size(), 1u);
  EXPECT_EQ(replanned.kernels[0].replans, 1u);
  EXPECT_GT(replanned.measured_segments(), 0u);
  EXPECT_GT(replanned.estimation_error_pct(), 0.0);
  EXPECT_EQ(handle.estimation_error_pct(), replanned.estimation_error_pct());

  run_forward(handle, p);
  run_forward(handle, p);
  EXPECT_EQ(handle.estimation_error_pct(),
            handle.execution_report().estimation_error_pct());
}

// -------------------------------- virtual mode: estimate ~= measured

TEST(ReportTest, VirtualModeEstimateMatchesMeasured) {
  // On a simulated device both the planner's estimates and the executor's
  // device-clock measurements come from the same performance model, so the
  // report must show (near-)zero estimation error.
  auto dev = std::make_shared<device::Device>(device::p100_sxm2_spec());
  ASSERT_TRUE(dev->is_simulated());
  const kernels::ConvProblem p({32, 16, 27, 27}, {32, 16, 5, 5},
                               {.pad_h = 2, .pad_w = 2});
  core::UcudnnHandle handle(dev, wr_pow2(std::size_t{64} << 20));

  // Operands are never dereferenced in virtual execution.
  const int kIterations = 2;
  for (int i = 0; i < kIterations; ++i) {
    handle.convolution(ConvKernelType::kForward, p, 1.0f, nullptr, nullptr,
                       0.0f, nullptr);
  }

  const telemetry::ExecutionReport report = handle.execution_report();
  ASSERT_EQ(report.kernels.size(), 1u);
  const telemetry::KernelReport& k = report.kernels[0];
  ASSERT_FALSE(k.segments.empty());
  EXPECT_EQ(k.executions, static_cast<std::uint64_t>(kIterations));
  for (const telemetry::SegmentReport& s : k.segments) {
    EXPECT_EQ(s.runs, static_cast<std::uint64_t>(kIterations));
    EXPECT_GT(s.estimated_ms, 0.0);
    EXPECT_NEAR(s.measured_ms_avg(), s.estimated_ms,
                1e-9 + 1e-6 * s.estimated_ms);
  }
  EXPECT_EQ(report.measured_segments(), k.segments.size());
  EXPECT_LT(report.estimation_error_pct(), 0.01);
  EXPECT_LT(k.error_pct(), 0.01);
}

// ------------------------------------------ UCUDNN_REPORT_FILE plumbing

TEST(ReportTest, WriteReportFileRendersJsonAndText) {
  telemetry::ExecutionReport r;
  r.device = "TestDev";
  r.policy = "WR";
  r.batch_size_policy = "undivided";

  const auto tmp = std::filesystem::temp_directory_path();
  const std::string json_path = (tmp / "ucudnn_report_test.json").string();
  const std::string text_path = (tmp / "ucudnn_report_test.txt").string();

  auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };

  telemetry::write_report_file(r, json_path);
  const std::string json = slurp(json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonValidator(json).validate()) << "report file is malformed";
  EXPECT_NE(json.find("\"schema\":\"ucudnn-execution-report-v1\""),
            std::string::npos);

  telemetry::write_report_file(r, text_path);
  const std::string text = slurp(text_path);
  EXPECT_NE(text.find("=== ucudnn execution report: device=TestDev"),
            std::string::npos);
  EXPECT_EQ(text.find("\"schema\""), std::string::npos)
      << "non-.json paths must get the text rendering";

  // Empty path is the disabled state, not an error.
  telemetry::write_report_file(r, "");

  std::remove(json_path.c_str());
  std::remove(text_path.c_str());
}

// --------------------------------------- audit gauge -> report mirror

TEST(ReportTest, AuditUtilizationIsMirroredIntoGaugeAndReport) {
  analysis::reset_audit_stats();
  analysis::set_workspace_audit_enabled(true);
  const kernels::ConvProblem p = test_problem();
  {
    core::UcudnnHandle handle(
        std::make_shared<device::Device>(device::host_cpu_spec()),
        wr_pow2(forcing_limit(p)));
    prefill_plans(handle, p);
    run_forward(handle, p);

    const telemetry::ExecutionReport report = handle.execution_report();
    ASSERT_FALSE(report.audit.empty());
    bool found_gemm = false;
    for (const telemetry::WorkspaceAuditReport& a : report.audit) {
      if (a.kernel != "Forward:GEMM") continue;
      found_gemm = true;
      EXPECT_GT(a.declared_bytes, 0u);
      EXPECT_GT(a.touched_bytes, 0u);
      EXPECT_GT(a.runs, 0u);
      EXPECT_GT(a.utilization_pct(), 0.0);
      EXPECT_LE(a.utilization_pct(), 100.0);

      // The same utilization is published as a process-wide gauge.
      const telemetry::MetricsSnapshot snap =
          telemetry::MetricsRegistry::instance().snapshot();
      const auto it =
          snap.gauges.find("ucudnn.audit.ws_utilization." + a.kernel);
      ASSERT_NE(it, snap.gauges.end())
          << "missing gauge for " << a.kernel;
      EXPECT_GE(it->second, 1);
      EXPECT_LE(it->second, 100);
    }
    EXPECT_TRUE(found_gemm) << "no Forward:GEMM audit entry in the report";
  }
  analysis::set_workspace_audit_enabled(false);
  analysis::reset_audit_stats();
}

}  // namespace
}  // namespace ucudnn
