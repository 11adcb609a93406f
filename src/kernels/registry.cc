#include "kernels/registry.h"

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

// Registered test kernels, indexed by kernel type. A deque keeps elements
// (and therefore the string_views algo_name hands out) stable across
// registrations.
std::deque<TestKernel>& test_kernels(ConvKernelType type) {
  static std::deque<TestKernel> tables[3];
  return tables[static_cast<int>(type)];
}

int builtin_algo_count(ConvKernelType type) noexcept {
  switch (type) {
    case ConvKernelType::kForward: return fwd_algo::kCount;
    case ConvKernelType::kBackwardData: return bwd_data_algo::kCount;
    case ConvKernelType::kBackwardFilter: return bwd_filter_algo::kCount;
  }
  return 0;
}

// Non-null when `algo` addresses a registered test kernel.
const TestKernel* test_kernel_for(ConvKernelType type, int algo) noexcept {
  const int base = builtin_algo_count(type);
  auto& table = test_kernels(type);
  if (algo < base || algo >= base + static_cast<int>(table.size())) {
    return nullptr;
  }
  return &table[static_cast<std::size_t>(algo - base)];
}

void check_algo_range(ConvKernelType type, int algo) {
  // Runs on every launch: the message is built only on failure.
  if (algo < 0 || algo >= algo_count(type)) {
    throw Error(Status::kBadParam, "algorithm id out of range: " +
                                       std::to_string(algo) + " for " +
                                       std::string(to_string(type)));
  }
}

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

double winograd_cost(const ConvProblem& p) {
  const double nt = static_cast<double>(p.x.n) * winograd_tiles(p);
  const double elementwise =
      2.0 * nt * static_cast<double>(p.w.k) * static_cast<double>(p.w.c) * 16.0;
  const double transforms =
      nt * (48.0 * static_cast<double>(p.w.c) + 24.0 * static_cast<double>(p.w.k)) +
      28.0 * static_cast<double>(p.w.k) * static_cast<double>(p.w.c);
  return elementwise + transforms;
}

// Baseline operand traffic: read both operands, write the output once.
double operand_traffic(ConvKernelType type, const ConvProblem& p) {
  const double x = static_cast<double>(p.x.bytes());
  const double w = static_cast<double>(p.w.bytes());
  const double y = static_cast<double>(p.y.bytes());
  switch (type) {
    case ConvKernelType::kForward: return x + w + y;
    case ConvKernelType::kBackwardData: return y + w + x;
    case ConvKernelType::kBackwardFilter: return x + y + w;
  }
  return 0.0;
}

}  // namespace

int algo_count(ConvKernelType type) noexcept {
  return builtin_algo_count(type) + static_cast<int>(test_kernels(type).size());
}

int register_test_kernel(ConvKernelType type, TestKernel kernel) {
  check_param(kernel.workspace != nullptr && kernel.run != nullptr,
              "test kernel needs workspace and run functions");
  auto& table = test_kernels(type);
  table.push_back(std::move(kernel));
  return builtin_algo_count(type) + static_cast<int>(table.size()) - 1;
}

void clear_test_kernels() noexcept {
  for (ConvKernelType type :
       {ConvKernelType::kForward, ConvKernelType::kBackwardData,
        ConvKernelType::kBackwardFilter}) {
    test_kernels(type).clear();
  }
}

std::string_view algo_name(ConvKernelType type, int algo) {
  check_algo_range(type, algo);
  if (const TestKernel* kernel = test_kernel_for(type, algo)) {
    return kernel->name;
  }
  switch (type) {
    case ConvKernelType::kForward: {
      static constexpr std::string_view kNames[] = {
          "IMPLICIT_GEMM", "IMPLICIT_PRECOMP_GEMM", "GEMM",
          "DIRECT",        "FFT",                   "FFT_TILING",
          "WINOGRAD",      "WINOGRAD_NONFUSED"};
      return kNames[algo];
    }
    case ConvKernelType::kBackwardData: {
      static constexpr std::string_view kNames[] = {
          "ALGO_0", "ALGO_1", "FFT", "FFT_TILING", "WINOGRAD",
          "WINOGRAD_NONFUSED"};
      return kNames[algo];
    }
    case ConvKernelType::kBackwardFilter: {
      static constexpr std::string_view kNames[] = {"ALGO_0", "ALGO_1", "FFT",
                                                    "ALGO_3"};
      return kNames[algo];
    }
  }
  return "UNKNOWN";
}

bool algo_supported(ConvKernelType type, int algo,
                    const ConvProblem& p) noexcept {
  if (algo < 0 || algo >= algo_count(type)) return false;
  if (test_kernel_for(type, algo) != nullptr) return true;
  // Grouped convolutions run only on the implicit/direct family (matching
  // cuDNN, where grouped support landed on the implicit algorithms first).
  if (p.is_grouped()) {
    switch (type) {
      case ConvKernelType::kForward:
        return algo == fwd_algo::kImplicitGemm ||
               algo == fwd_algo::kImplicitPrecompGemm ||
               algo == fwd_algo::kDirect;
      case ConvKernelType::kBackwardData:
        return algo == bwd_data_algo::kAlgo0;
      case ConvKernelType::kBackwardFilter:
        return algo == bwd_filter_algo::kAlgo0;
    }
    return false;
  }
  switch (type) {
    case ConvKernelType::kForward:
      switch (algo) {
        case fwd_algo::kFft: return fft_supported(p);
        case fwd_algo::kFftTiling: return fft_tiling_supported(p);
        case fwd_algo::kWinograd:
        case fwd_algo::kWinogradNonfused: return winograd_supported(p);
        default: return true;
      }
    case ConvKernelType::kBackwardData:
      switch (algo) {
        case bwd_data_algo::kFft: return fft_supported(p);
        case bwd_data_algo::kFftTiling: return fft_tiling_supported(p);
        case bwd_data_algo::kWinograd:
        case bwd_data_algo::kWinogradNonfused:
          return winograd_bwd_data_supported(p);
        default: return true;
      }
    case ConvKernelType::kBackwardFilter:
      switch (algo) {
        case bwd_filter_algo::kFft: return fft_supported(p);
        default: return true;
      }
  }
  return false;
}

std::size_t algo_workspace(ConvKernelType type, int algo,
                           const ConvProblem& p) {
  check_algo_range(type, algo);
  if (!algo_supported(type, algo, p)) {
    throw Error(Status::kNotSupported, std::string(algo_name(type, algo)) +
                                           " unsupported for " +
                                           p.to_string());
  }
  if (const TestKernel* kernel = test_kernel_for(type, algo)) {
    return kernel->workspace(p);
  }
  switch (type) {
    case ConvKernelType::kForward:
      switch (algo) {
        case fwd_algo::kImplicitGemm: return 0;
        case fwd_algo::kImplicitPrecompGemm: return precomp_fwd_workspace(p);
        case fwd_algo::kGemm: return gemm_fwd_workspace(p);
        case fwd_algo::kDirect: return 0;
        case fwd_algo::kFft: return fft_fwd_workspace(p);
        case fwd_algo::kFftTiling: return fft_tiling_fwd_workspace(p);
        case fwd_algo::kWinograd: return winograd_fwd_workspace(p);
        case fwd_algo::kWinogradNonfused:
          return winograd_nonfused_fwd_workspace(p);
      }
      break;
    case ConvKernelType::kBackwardData:
      switch (algo) {
        case bwd_data_algo::kAlgo0: return 0;
        case bwd_data_algo::kAlgo1: return gemm_bwd_data_workspace(p);
        case bwd_data_algo::kFft: return fft_bwd_data_workspace(p);
        case bwd_data_algo::kFftTiling: return fft_tiling_bwd_data_workspace(p);
        case bwd_data_algo::kWinograd: return winograd_bwd_data_workspace(p);
        case bwd_data_algo::kWinogradNonfused:
          return winograd_nonfused_bwd_data_workspace(p);
      }
      break;
    case ConvKernelType::kBackwardFilter:
      switch (algo) {
        case bwd_filter_algo::kAlgo0: return 0;
        case bwd_filter_algo::kAlgo1: return perimage_bwd_filter_workspace(p);
        case bwd_filter_algo::kFft: return fft_bwd_filter_workspace(p);
        case bwd_filter_algo::kAlgo3: return gemm_bwd_filter_workspace(p);
      }
      break;
  }
  throw Error(Status::kInternalError, "unreachable algorithm dispatch");
}

double algo_flops(ConvKernelType type, int algo, const ConvProblem& p) {
  check_algo_range(type, algo);
  const double mac_flops = 2.0 * p.macs();
  switch (type) {
    case ConvKernelType::kForward:
      switch (algo) {
        case fwd_algo::kFft: {
          const double cells = static_cast<double>(fft_plan_edge_h(p)) *
                               static_cast<double>(fft_plan_edge_w(p));
          return fft_cost(static_cast<double>(p.x.n),
                          static_cast<double>(p.x.c),
                          static_cast<double>(p.w.k), cells);
        }
        case fwd_algo::kFftTiling: {
          const double edge = static_cast<double>(fft_tile_edge(p));
          const double cells = edge * edge;
          const double tile_out = std::min<double>(
              32.0, static_cast<double>(next_pow2(static_cast<std::size_t>(
                        std::max(p.y.h, p.y.w)))));
          const double tiles = std::ceil(static_cast<double>(p.y.h) / tile_out) *
                               std::ceil(static_cast<double>(p.y.w) / tile_out);
          return tiles * fft_cost(static_cast<double>(p.x.n),
                                  static_cast<double>(p.x.c),
                                  static_cast<double>(p.w.k), cells);
        }
        case fwd_algo::kWinograd:
        case fwd_algo::kWinogradNonfused: return winograd_cost(p);
        default: return mac_flops;
      }
    case ConvKernelType::kBackwardData:
      switch (algo) {
        case bwd_data_algo::kFft: {
          // Same plan as forward up to the pad shift; close enough for cost.
          const double cells = static_cast<double>(fft_plan_edge_h(p)) *
                               static_cast<double>(fft_plan_edge_w(p));
          return fft_cost(static_cast<double>(p.x.n),
                          static_cast<double>(p.w.k),
                          static_cast<double>(p.x.c), cells);
        }
        case bwd_data_algo::kFftTiling: {
          const double edge = static_cast<double>(fft_tile_edge(p));
          return fft_cost(static_cast<double>(p.x.n),
                          static_cast<double>(p.w.k),
                          static_cast<double>(p.x.c), edge * edge);
        }
        case bwd_data_algo::kWinograd:
        case bwd_data_algo::kWinogradNonfused: return winograd_cost(p);
        default: return mac_flops;
      }
    case ConvKernelType::kBackwardFilter:
      switch (algo) {
        case bwd_filter_algo::kFft: {
          const double cells = static_cast<double>(fft_plan_edge_h(p)) *
                               static_cast<double>(fft_plan_edge_w(p));
          return fft_cost(static_cast<double>(p.x.n),
                          static_cast<double>(p.x.c),
                          static_cast<double>(p.w.k), cells);
        }
        default: return mac_flops;
      }
  }
  return mac_flops;
}

double algo_traffic_bytes(ConvKernelType type, int algo,
                          const ConvProblem& p) {
  const double base = operand_traffic(type, p);
  if (!algo_supported(type, algo, p)) return base;
  // Workspace-heavy algorithms stream their staging buffers roughly twice
  // (write + read); that is their bandwidth price.
  const double ws = static_cast<double>(algo_workspace(type, algo, p));
  return base + 2.0 * ws;
}

namespace {

// The raw algorithm dispatch; `workspace` is already validated (and, under
// the workspace audit, red-zoned) by execute().
void dispatch(ConvKernelType type, int algo, const ConvProblem& p,
              const float* a, const float* b, float* out, float alpha,
              float beta, void* workspace, std::size_t workspace_bytes) {
  if (const TestKernel* kernel = test_kernel_for(type, algo)) {
    kernel->run(p, a, b, out, alpha, beta, workspace, workspace_bytes);
    return;
  }
  switch (type) {
    case ConvKernelType::kForward:
      switch (algo) {
        case fwd_algo::kImplicitGemm:
          implicit_gemm_forward(p, a, b, out, alpha, beta);
          return;
        case fwd_algo::kImplicitPrecompGemm:
          precomp_gemm_forward(p, a, b, out, alpha, beta, workspace);
          return;
        case fwd_algo::kGemm:
          gemm_forward(p, a, b, out, alpha, beta, workspace);
          return;
        case fwd_algo::kDirect:
          direct_forward(p, a, b, out, alpha, beta);
          return;
        case fwd_algo::kFft:
          fft_forward(p, a, b, out, alpha, beta, workspace);
          return;
        case fwd_algo::kFftTiling:
          fft_tiling_forward(p, a, b, out, alpha, beta, workspace);
          return;
        case fwd_algo::kWinograd:
          winograd_forward(p, a, b, out, alpha, beta, workspace);
          return;
        case fwd_algo::kWinogradNonfused:
          winograd_nonfused_forward(p, a, b, out, alpha, beta, workspace);
          return;
      }
      break;
    case ConvKernelType::kBackwardData:
      switch (algo) {
        case bwd_data_algo::kAlgo0:
          direct_backward_data(p, a, b, out, alpha, beta);
          return;
        case bwd_data_algo::kAlgo1:
          gemm_backward_data(p, a, b, out, alpha, beta, workspace);
          return;
        case bwd_data_algo::kFft:
          fft_backward_data(p, a, b, out, alpha, beta, workspace);
          return;
        case bwd_data_algo::kFftTiling:
          fft_tiling_backward_data(p, a, b, out, alpha, beta, workspace);
          return;
        case bwd_data_algo::kWinograd:
          winograd_backward_data(p, a, b, out, alpha, beta, workspace);
          return;
        case bwd_data_algo::kWinogradNonfused:
          winograd_nonfused_backward_data(p, a, b, out, alpha, beta, workspace);
          return;
      }
      break;
    case ConvKernelType::kBackwardFilter:
      switch (algo) {
        case bwd_filter_algo::kAlgo0:
          direct_backward_filter(p, a, b, out, alpha, beta);
          return;
        case bwd_filter_algo::kAlgo1:
          perimage_backward_filter(p, a, b, out, alpha, beta, workspace);
          return;
        case bwd_filter_algo::kFft:
          fft_backward_filter(p, a, b, out, alpha, beta, workspace);
          return;
        case bwd_filter_algo::kAlgo3:
          gemm_backward_filter(p, a, b, out, alpha, beta, workspace);
          return;
      }
      break;
  }
  throw Error(Status::kInternalError, "unreachable algorithm dispatch");
}

}  // namespace

void execute(ConvKernelType type, int algo, const ConvProblem& p,
             const float* a, const float* b, float* out, float alpha,
             float beta, void* workspace, std::size_t workspace_bytes) {
  check_algo_range(type, algo);
  const std::size_t required = algo_workspace(type, algo, p);
  if (workspace_bytes < required) {
    throw Error(Status::kBadParam, std::string(algo_name(type, algo)) +
                                       " needs " + std::to_string(required) +
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
        required, std::string(algo_name(type, algo)) + "(" +
                      std::string(to_string(type)) + ") " + p.to_string());
    dispatch(type, algo, p, a, b, out, alpha, beta, audited.data(), required);
    audited.verify();
    analysis::record_audit(std::string(to_string(type)) + ":" +
                               std::string(algo_name(type, algo)),
                           required, audited.touched_bytes());
    return;
  }
  dispatch(type, algo, p, a, b, out, alpha, beta, workspace, workspace_bytes);
}

}  // namespace ucudnn::kernels
