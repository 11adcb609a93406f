#include "kernels/registry.h"

#include <algorithm>
#include <cmath>
#include <deque>

#include "analysis/workspace_audit.h"
#include "common/status.h"
#include "kernels/direct.h"
#include "kernels/fft_conv.h"
#include "kernels/gemm_conv.h"
#include "kernels/winograd.h"

namespace ucudnn::kernels {

namespace {

// --- run adapters: every row runs through the uniform Algorithm::run -------

template <void (*Kernel)(const ConvProblem&, const float*, const float*,
                         float*, float, float)>
void no_workspace(const ConvProblem& p, const float* a, const float* b,
                  float* out, float alpha, float beta, void*, std::size_t) {
  Kernel(p, a, b, out, alpha, beta);
}

template <void (*Kernel)(const ConvProblem&, const float*, const float*,
                         float*, float, float, void*)>
void with_workspace(const ConvProblem& p, const float* a, const float* b,
                    float* out, float alpha, float beta, void* ws,
                    std::size_t) {
  Kernel(p, a, b, out, alpha, beta, ws);
}

// --- modeled flop counts (rows without one cost 2 x MACs) -------------------

double log2d(double v) { return std::log2(std::max(2.0, v)); }

// Modeled cost of one complex 2-D FFT of `cells` points.
double fft2d_flops(double cells) { return 5.0 * cells * log2d(cells); }

// FFT algorithm cost: transforms of source/filter/output planes plus the
// frequency-domain pointwise stage (8 flops per complex MAC).
double fft_cost(double n, double cs, double co, double cells) {
  const double transforms = (n * cs + cs * co + n * co) * fft2d_flops(cells);
  const double pointwise = 8.0 * n * co * cs * cells;
  return transforms + pointwise;
}

double fft_plan_cells(const ConvProblem& p) {
  return static_cast<double>(fft_plan_edge_h(p)) *
         static_cast<double>(fft_plan_edge_w(p));
}

// Forward and BackwardFilter: C source planes, K output planes.
double fft_flops(const ConvProblem& p) {
  return fft_cost(static_cast<double>(p.x.n), static_cast<double>(p.x.c),
                  static_cast<double>(p.w.k), fft_plan_cells(p));
}

// BackwardData: same plan as forward up to the pad shift; close enough for
// cost.
double fft_bwd_data_flops(const ConvProblem& p) {
  return fft_cost(static_cast<double>(p.x.n), static_cast<double>(p.w.k),
                  static_cast<double>(p.x.c), fft_plan_cells(p));
}

double fft_tiling_fwd_flops(const ConvProblem& p) {
  const double edge = static_cast<double>(fft_tile_edge(p));
  const double cells = edge * edge;
  const double tile_out = std::min<double>(
      32.0, static_cast<double>(next_pow2(
                static_cast<std::size_t>(std::max(p.y.h, p.y.w)))));
  const double tiles = std::ceil(static_cast<double>(p.y.h) / tile_out) *
                       std::ceil(static_cast<double>(p.y.w) / tile_out);
  return tiles * fft_cost(static_cast<double>(p.x.n),
                          static_cast<double>(p.x.c),
                          static_cast<double>(p.w.k), cells);
}

double fft_tiling_bwd_data_flops(const ConvProblem& p) {
  const double edge = static_cast<double>(fft_tile_edge(p));
  return fft_cost(static_cast<double>(p.x.n), static_cast<double>(p.w.k),
                  static_cast<double>(p.x.c), edge * edge);
}

double winograd_flops(const ConvProblem& p) {
  const double nt = static_cast<double>(p.x.n) * winograd_tiles(p);
  const double elementwise =
      2.0 * nt * static_cast<double>(p.w.k) * static_cast<double>(p.w.c) * 16.0;
  const double transforms =
      nt * (48.0 * static_cast<double>(p.w.c) +
            24.0 * static_cast<double>(p.w.k)) +
      28.0 * static_cast<double>(p.w.k) * static_cast<double>(p.w.c);
  return elementwise + transforms;
}

// --- the catalog ------------------------------------------------------------
// One table per kernel type, rows in id order. Efficiencies are fractions of
// peak calibrated to reproduce cuDNN's qualitative ordering: zero-workspace
// algorithms run far below peak; staged GEMM/FFT/Winograd variants approach
// it. (FFT/Winograd flop counts are already reduced by the cost model above,
// so their efficiency is on transformed flops.) Grouped convolutions run only
// on the implicit/direct family, matching cuDNN, where grouped support landed
// on the implicit algorithms first.

constexpr int kBuiltinCount[] = {fwd_algo::kCount, bwd_data_algo::kCount,
                                 bwd_filter_algo::kCount};

// The rows of every kernel type; test kernels are appended after the
// built-in ones. A deque keeps rows (and therefore the string_views
// algo_name hands out) stable across registrations.
std::deque<Algorithm>& table(ConvKernelType type) {
  static std::deque<Algorithm> tables[] = {
      // Forward
      {{.name = "IMPLICIT_GEMM", .run = no_workspace<implicit_gemm_forward>,
        .efficiency = 0.28, .grouped = true},
       {.name = "IMPLICIT_PRECOMP_GEMM", .workspace = precomp_fwd_workspace,
        .run = with_workspace<precomp_gemm_forward>, .efficiency = 0.42,
        .grouped = true},
       {.name = "GEMM", .workspace = gemm_fwd_workspace,
        .run = with_workspace<gemm_forward>, .efficiency = 0.58},
       {.name = "DIRECT", .run = no_workspace<direct_forward>,
        .efficiency = 0.08, .grouped = true},
       {.name = "FFT", .workspace = fft_fwd_workspace,
        .run = with_workspace<fft_forward>, .supported = fft_supported,
        .flops = fft_flops, .efficiency = 0.50},
       {.name = "FFT_TILING", .workspace = fft_tiling_fwd_workspace,
        .run = with_workspace<fft_tiling_forward>,
        .supported = fft_tiling_supported, .flops = fft_tiling_fwd_flops,
        .efficiency = 0.44},
       {.name = "WINOGRAD", .workspace = winograd_fwd_workspace,
        .run = with_workspace<winograd_forward>,
        .supported = winograd_supported, .flops = winograd_flops,
        .efficiency = 0.46},
       {.name = "WINOGRAD_NONFUSED",
        .workspace = winograd_nonfused_fwd_workspace,
        .run = with_workspace<winograd_nonfused_forward>,
        .supported = winograd_supported, .flops = winograd_flops,
        .efficiency = 0.60}},
      // BackwardData
      {{.name = "ALGO_0", .run = no_workspace<direct_backward_data>,
        .efficiency = 0.22, .grouped = true},
       {.name = "ALGO_1", .workspace = gemm_bwd_data_workspace,
        .run = with_workspace<gemm_backward_data>, .efficiency = 0.52},
       {.name = "FFT", .workspace = fft_bwd_data_workspace,
        .run = with_workspace<fft_backward_data>, .supported = fft_supported,
        .flops = fft_bwd_data_flops, .efficiency = 0.50},
       {.name = "FFT_TILING", .workspace = fft_tiling_bwd_data_workspace,
        .run = with_workspace<fft_tiling_backward_data>,
        .supported = fft_tiling_supported,
        .flops = fft_tiling_bwd_data_flops, .efficiency = 0.44},
       {.name = "WINOGRAD", .workspace = winograd_bwd_data_workspace,
        .run = with_workspace<winograd_backward_data>,
        .supported = winograd_bwd_data_supported, .flops = winograd_flops,
        .efficiency = 0.44},
       {.name = "WINOGRAD_NONFUSED",
        .workspace = winograd_nonfused_bwd_data_workspace,
        .run = with_workspace<winograd_nonfused_backward_data>,
        .supported = winograd_bwd_data_supported, .flops = winograd_flops,
        .efficiency = 0.58}},
      // BackwardFilter
      {{.name = "ALGO_0", .run = no_workspace<direct_backward_filter>,
        .efficiency = 0.20, .grouped = true},
       {.name = "ALGO_1", .workspace = perimage_bwd_filter_workspace,
        .run = with_workspace<perimage_backward_filter>, .efficiency = 0.45},
       {.name = "FFT", .workspace = fft_bwd_filter_workspace,
        .run = with_workspace<fft_backward_filter>,
        .supported = fft_supported, .flops = fft_flops, .efficiency = 0.50},
       {.name = "ALGO_3", .workspace = gemm_bwd_filter_workspace,
        .run = with_workspace<gemm_backward_filter>, .efficiency = 0.58}},
  };
  return tables[static_cast<int>(type)];
}

const Algorithm& row(ConvKernelType type, int algo) {
  const std::deque<Algorithm>& rows = table(type);
  // Runs on every launch: the message is built only on failure.
  if (algo < 0 || algo >= static_cast<int>(rows.size())) {
    throw Error(Status::kBadParam, "algorithm id out of range: " +
                                       std::to_string(algo) + " for " +
                                       std::string(to_string(type)));
  }
  return rows[static_cast<std::size_t>(algo)];
}

}  // namespace

int algo_count(ConvKernelType type) noexcept {
  return static_cast<int>(table(type).size());
}

int register_test_kernel(ConvKernelType type, TestKernel kernel) {
  check_param(kernel.workspace != nullptr && kernel.run != nullptr,
              "test kernel needs workspace and run functions");
  kernel.grouped = true;
  std::deque<Algorithm>& rows = table(type);
  rows.push_back(std::move(kernel));
  return static_cast<int>(rows.size()) - 1;
}

void clear_test_kernels() noexcept {
  for (ConvKernelType type :
       {ConvKernelType::kForward, ConvKernelType::kBackwardData,
        ConvKernelType::kBackwardFilter}) {
    std::deque<Algorithm>& rows = table(type);
    rows.erase(rows.begin() + kBuiltinCount[static_cast<int>(type)],
               rows.end());
  }
}

std::string_view algo_name(ConvKernelType type, int algo) {
  return row(type, algo).name;
}

bool algo_supported(ConvKernelType type, int algo,
                    const ConvProblem& p) noexcept {
  if (algo < 0 || algo >= algo_count(type)) return false;
  const Algorithm& r = table(type)[static_cast<std::size_t>(algo)];
  if (p.is_grouped()) return r.grouped;
  return r.supported == nullptr || r.supported(p);
}

std::size_t algo_workspace(ConvKernelType type, int algo,
                           const ConvProblem& p) {
  const Algorithm& r = row(type, algo);
  if (!algo_supported(type, algo, p)) {
    throw Error(Status::kNotSupported,
                r.name + " unsupported for " + p.to_string());
  }
  return r.workspace == nullptr ? 0 : r.workspace(p);
}

double algo_flops(ConvKernelType type, int algo, const ConvProblem& p) {
  const Algorithm& r = row(type, algo);
  return r.flops == nullptr ? 2.0 * p.macs() : r.flops(p);
}

double algo_traffic_bytes(ConvKernelType type, int algo,
                          const ConvProblem& p) {
  // Baseline operand traffic: read both operands, write the output once.
  const double base = static_cast<double>(p.x.bytes()) +
                      static_cast<double>(p.w.bytes()) +
                      static_cast<double>(p.y.bytes());
  if (!algo_supported(type, algo, p)) return base;
  // Workspace-heavy algorithms stream their staging buffers roughly twice
  // (write + read); that is their bandwidth price.
  const double ws = static_cast<double>(algo_workspace(type, algo, p));
  return base + 2.0 * ws;
}

double algo_efficiency(ConvKernelType type, int algo) {
  return row(type, algo).efficiency;
}

void execute(ConvKernelType type, int algo, const ConvProblem& p,
             const float* a, const float* b, float* out, float alpha,
             float beta, void* workspace, std::size_t workspace_bytes) {
  const Algorithm& r = row(type, algo);
  const std::size_t required = algo_workspace(type, algo, p);
  if (workspace_bytes < required) {
    throw Error(Status::kBadParam, r.name + " needs " +
                                       std::to_string(required) +
                                       " workspace bytes, got " +
                                       std::to_string(workspace_bytes));
  }
  if (required != 0 && workspace == nullptr) {
    throw Error(Status::kBadParam,
                "null workspace for workspace-requiring algorithm");
  }

  if (analysis::workspace_audit_enabled()) {
    // Run against a red-zoned buffer of EXACTLY the declared size, not the
    // (possibly larger) caller buffer: a kernel that touches one byte more
    // than it declared hits the trailing red-zone. Workspace is scratch by
    // contract, so the substitution is invisible to the caller.
    analysis::AuditedBuffer audited(
        required, r.name + "(" + std::string(to_string(type)) + ") " +
                      p.to_string());
    r.run(p, a, b, out, alpha, beta, audited.data(), required);
    audited.verify();
    analysis::record_audit(std::string(to_string(type)) + ":" + r.name,
                           required, audited.touched_bytes());
    return;
  }
  r.run(p, a, b, out, alpha, beta, workspace, workspace_bytes);
}

}  // namespace ucudnn::kernels
