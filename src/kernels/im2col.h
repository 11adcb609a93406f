// im2col / col2im lowering used by the GEMM-based convolution algorithms.
//
// Column layout: col[(c*R*S + r*S + s) * cols + column], where `column`
// enumerates output pixels. The per-image variant uses cols = OH*OW; the
// batched variant packs the whole (micro-)batch with cols = N*OH*OW so a
// single large GEMM can process it (the explicit-GEMM algorithm).
//
// ConvMode::kConvolution (flipped-kernel) is absorbed here: the (r, s)
// indices in the column layout always refer to *filter element* indices, and
// the input position is computed from the flipped spatial offset, so GEMM
// algorithms can use the filter tensor unmodified for both modes.
#pragma once

#include <cstdint>

#include "kernels/conv_problem.h"

namespace ucudnn::kernels {

/// Number of rows of the column matrix: C * R * S.
inline std::int64_t col_rows(const ConvProblem& p) noexcept {
  return p.w.c * p.w.r * p.w.s;
}

/// Lowers one image x_image[C][H][W] to col[C*R*S][OH*OW].
void im2col(const ConvProblem& p, const float* x_image, float* col);

/// Lowers a full batch x[N][C][H][W] to col[C*R*S][N*OH*OW]
/// (column index = n*OH*OW + oh*OW + ow). Thread-parallel over
/// (row, image) pairs; im2col is the one-image case.
void im2col_batched(const ConvProblem& p, const float* x, float* col);

/// Scatters col[C*R*S][OH*OW] back into one image, accumulating into
/// x_image (caller pre-scales x_image for beta semantics).
void col2im_accumulate(const ConvProblem& p, const float* col, float* x_image);

/// As above, but the column matrix rows are `row_stride` apart — used to
/// scatter one image's slice out of a batched [C*R*S][N*OH*OW] matrix
/// (pass col = base + n*OH*OW, row_stride = N*OH*OW).
void col2im_accumulate_strided(const ConvProblem& p, const float* col,
                               std::int64_t row_stride, float* x_image);

/// Precomputes the gather table used by IMPLICIT_PRECOMP_GEMM: for each
/// (c*R*S + r*S + s, oh*OW + ow) entry, the offset of the source element
/// within one image (c*H*W + ih*W + iw), or -1 for zero padding.
void build_gather_indices(const ConvProblem& p, std::int32_t* indices);

/// Lowers one image via a precomputed gather table.
void im2col_indexed(const ConvProblem& p, const std::int32_t* indices,
                    const float* x_image, float* col);

}  // namespace ucudnn::kernels
