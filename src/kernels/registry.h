// Algorithm catalog: the single point the mcudnn API layer, the μ-cuDNN
// optimizer and the device model use to enumerate convolution algorithms,
// query support/workspace/cost, and execute them. Every algorithm is one
// `Algorithm` row in its kernel type's table, indexed by the ids below.
//
// Algorithm enumerations mirror cuDNN 7:
//   Forward:        IMPLICIT_GEMM, IMPLICIT_PRECOMP_GEMM, GEMM, DIRECT,
//                   FFT, FFT_TILING, WINOGRAD, WINOGRAD_NONFUSED
//   BackwardData:   ALGO_0 (direct), ALGO_1 (GEMM+col2im), FFT, FFT_TILING,
//                   WINOGRAD, WINOGRAD_NONFUSED
//   BackwardFilter: ALGO_0 (direct), ALGO_1 (per-image GEMM), FFT,
//                   ALGO_3 (batched GEMM)
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "kernels/conv_problem.h"

namespace ucudnn::kernels {

namespace fwd_algo {
inline constexpr int kImplicitGemm = 0;
inline constexpr int kImplicitPrecompGemm = 1;
inline constexpr int kGemm = 2;
inline constexpr int kDirect = 3;
inline constexpr int kFft = 4;
inline constexpr int kFftTiling = 5;
inline constexpr int kWinograd = 6;
inline constexpr int kWinogradNonfused = 7;
inline constexpr int kCount = 8;
}  // namespace fwd_algo

namespace bwd_data_algo {
inline constexpr int kAlgo0 = 0;
inline constexpr int kAlgo1 = 1;
inline constexpr int kFft = 2;
inline constexpr int kFftTiling = 3;
inline constexpr int kWinograd = 4;
inline constexpr int kWinogradNonfused = 5;
inline constexpr int kCount = 6;
}  // namespace bwd_data_algo

namespace bwd_filter_algo {
inline constexpr int kAlgo0 = 0;
inline constexpr int kAlgo1 = 1;
inline constexpr int kFft = 2;
inline constexpr int kAlgo3 = 3;
inline constexpr int kCount = 4;
}  // namespace bwd_filter_algo

/// One row of the catalog: everything known about one algorithm.
struct Algorithm {
  std::string name;
  /// Exact workspace requirement in bytes; null means none.
  std::size_t (*workspace)(const ConvProblem& p) = nullptr;
  /// Runs the algorithm with the caller's workspace span (see execute()).
  void (*run)(const ConvProblem& p, const float* a, const float* b, float* out,
              float alpha, float beta, void* ws,
              std::size_t ws_bytes) = nullptr;
  /// Stride/dilation/window rule for ungrouped problems; null means all.
  bool (*supported)(const ConvProblem& p) noexcept = nullptr;
  /// Modeled flop count for the device simulator; null means 2 x MACs.
  double (*flops)(const ConvProblem& p) = nullptr;
  /// Modeled fraction of peak before the small-batch utilization penalty.
  double efficiency = 0.1;
  /// Whether the algorithm also runs grouped convolutions.
  bool grouped = false;
};

/// Number of algorithm slots for a kernel type.
int algo_count(ConvKernelType type) noexcept;

/// Short name, e.g. "FFT_TILING". Throws kBadParam for out-of-range ids.
std::string_view algo_name(ConvKernelType type, int algo);

/// Whether `algo` can run this problem at all (stride/dilation/window rules).
bool algo_supported(ConvKernelType type, int algo,
                    const ConvProblem& p) noexcept;

/// Exact workspace requirement in bytes. Throws kNotSupported when
/// algo_supported() is false.
std::size_t algo_workspace(ConvKernelType type, int algo, const ConvProblem& p);

/// Modeled floating-point operation count (used by the device simulator).
double algo_flops(ConvKernelType type, int algo, const ConvProblem& p);

/// Modeled DRAM traffic in bytes (used by the device simulator).
double algo_traffic_bytes(ConvKernelType type, int algo, const ConvProblem& p);

/// Modeled efficiency (fraction of peak) of an algorithm, before the
/// small-batch utilization penalty (used by the device simulator).
double algo_efficiency(ConvKernelType type, int algo);

/// Runs the algorithm on operands in the roles operand_counts() lists
/// (Forward: a = x, b = w, out = y). Throws kNotSupported / kBadParam (e.g.
/// workspace too small).
///
/// With UCUDNN_AUDIT_WORKSPACE=1 the kernel runs against a red-zoned
/// AuditedBuffer of exactly its declared workspace size instead of the
/// caller's buffer (workspace is scratch, so substitution is semantics-
/// preserving); a write outside the declared span throws kInternalError
/// naming the kernel and byte offset. See src/analysis/workspace_audit.h.
void execute(ConvKernelType type, int algo, const ConvProblem& p,
             const float* a, const float* b, float* out, float alpha,
             float beta, void* workspace, std::size_t workspace_bytes);

// --- test kernels ------------------------------------------------------------
// Extra rows appended after the cuDNN-mirrored ids, used by the analysis
// tests to register deliberately misbehaving kernels (workspace overrun /
// under-declaration) and assert the auditor catches them. A test kernel
// needs a name, a workspace function and a run function.
using TestKernel = Algorithm;

/// Appends `kernel` to `type`'s algorithm table and returns its algorithm id
/// (>= the built-in kCount). Registered kernels are always "supported" and
/// participate in algo_count/find_algorithms. Not thread-safe; call from
/// test setup only.
int register_test_kernel(ConvKernelType type, TestKernel kernel);

/// Removes all registered test kernels.
void clear_test_kernels() noexcept;

}  // namespace ucudnn::kernels
