// Single-precision GEMM substrate (row-major) used by the GEMM-based
// convolution algorithms and the frameworks' fully-connected layers.
//
// C = alpha * op(A) * op(B) + beta * C, where op is identity or transpose.
// `sgemm` is cache-blocked and thread-parallel; `sgemm_naive` is the
// reference implementation used for validation.
#pragma once

#include <cstdint>

#include "common/simd.h"

namespace ucudnn::gemm {

enum class Trans { kNo, kYes };

/// Reference triple loop. Row-major with leading dimensions:
/// op(A) is M x K, op(B) is K x N, C is M x N with leading dimension ldc.
void sgemm_naive(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
                 std::int64_t k, float alpha, const float* a, std::int64_t lda,
                 const float* b, std::int64_t ldb, float beta, float* c,
                 std::int64_t ldc);

/// Cache-blocked, thread-parallel GEMM with identical semantics. Runs the
/// register tile of simd::active(). Each element of C is summed in the same
/// order whatever the thread count or the slice of C a call covers.
void sgemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, std::int64_t lda,
           const float* b, std::int64_t ldb, float beta, float* c,
           std::int64_t ldc);

/// Convenience overload with tight leading dimensions
/// (lda = op-a columns, ldb = op-b columns, ldc = n).
void sgemm(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
           std::int64_t k, float alpha, const float* a, const float* b,
           float beta, float* c);

namespace internal {

/// sgemm on the register tile of `isa` instead of simd::active(), so tests
/// can cover every tile the CPU runs. Requires simd::cpu_supports(isa).
void sgemm_isa(simd::Isa isa, Trans trans_a, Trans trans_b, std::int64_t m,
               std::int64_t n, std::int64_t k, float alpha, const float* a,
               std::int64_t lda, const float* b, std::int64_t ldb, float beta,
               float* c, std::int64_t ldc);

}  // namespace internal

}  // namespace ucudnn::gemm
