#include "kernels/im2col.h"

#include <algorithm>
#include <cstring>

#include "common/simd.h"
#include "common/thread_pool.h"

namespace ucudnn::kernels {

namespace {

// Spatial kernel offset for filter element r: identity for cross-correlation,
// flipped for true convolution.
inline std::int64_t spatial_r(const ConvProblem& p, std::int64_t r) noexcept {
  return p.geom.mode == ConvMode::kCrossCorrelation ? r : p.w.r - 1 - r;
}
inline std::int64_t spatial_s(const ConvProblem& p, std::int64_t s) noexcept {
  return p.geom.mode == ConvMode::kCrossCorrelation ? s : p.w.s - 1 - s;
}

// In-bounds output column range for one lowered row: iw = j * stride + base
// stays inside [0, xw) exactly for j in [j_lo, j_hi). Hoisting the bounds out
// of the inner loop leaves a branch-free interior (memcpy when stride == 1).
struct ColRange {
  std::int64_t lo, hi;
};

inline ColRange col_range(std::int64_t ow, std::int64_t stride,
                          std::int64_t base, std::int64_t xw) noexcept {
  std::int64_t lo = base >= 0 ? 0 : (-base + stride - 1) / stride;
  lo = std::min(lo, ow);
  std::int64_t hi = xw > base ? (xw - base - 1) / stride + 1 : 0;
  hi = std::min(hi, ow);
  return {lo, std::max(lo, hi)};
}

// One output row of im2col: out_row[j] = x_row[j * stride + base] with zero
// padding outside [0, xw).
inline void lower_row(float* out_row, const float* x_row, std::int64_t ow,
                      std::int64_t stride, std::int64_t base,
                      std::int64_t xw) noexcept {
  const ColRange jr = col_range(ow, stride, base, xw);
  std::fill(out_row, out_row + jr.lo, 0.0f);
  if (stride == 1) {
    if (jr.hi > jr.lo) {
      std::memcpy(out_row + jr.lo, x_row + jr.lo + base,
                  static_cast<std::size_t>(jr.hi - jr.lo) * sizeof(float));
    }
  } else {
    for (std::int64_t j = jr.lo; j < jr.hi; ++j) {
      out_row[j] = x_row[j * stride + base];
    }
  }
  std::fill(out_row + jr.hi, out_row + ow, 0.0f);
}

// Accumulating transpose of lower_row: x_row[j * stride + base] += in_row[j].
inline void scatter_row(float* x_row, const float* in_row, std::int64_t ow,
                        std::int64_t stride, std::int64_t base,
                        std::int64_t xw) noexcept {
  const ColRange jr = col_range(ow, stride, base, xw);
  if (stride == 1) {
    simd::add(x_row + jr.lo + base, in_row + jr.lo, jr.hi - jr.lo);
  } else {
    for (std::int64_t j = jr.lo; j < jr.hi; ++j) {
      x_row[j * stride + base] += in_row[j];
    }
  }
}

// Lowers one (c, r, s) row of the column matrix for one image.
void lower_one_row(const ConvProblem& p, const float* x_image,
                   std::int64_t row, float* out) {
  const std::int64_t c = row / (p.w.r * p.w.s);
  const std::int64_t r = (row / p.w.s) % p.w.r;
  const std::int64_t s = row % p.w.s;
  const std::int64_t rr = spatial_r(p, r);
  const std::int64_t ss = spatial_s(p, s);
  const std::int64_t base_w = ss * p.geom.dilation_w - p.geom.pad_w;
  const float* x_channel = x_image + c * p.x.h * p.x.w;
  for (std::int64_t i = 0; i < p.y.h; ++i) {
    const std::int64_t ih =
        i * p.geom.stride_h - p.geom.pad_h + rr * p.geom.dilation_h;
    float* out_row = out + i * p.y.w;
    if (ih < 0 || ih >= p.x.h) {
      std::fill(out_row, out_row + p.y.w, 0.0f);
      continue;
    }
    lower_row(out_row, x_channel + ih * p.x.w, p.y.w, p.geom.stride_w, base_w,
              p.x.w);
  }
}

}  // namespace

void im2col(const ConvProblem& p, const float* x_image, float* col) {
  const std::int64_t cols = p.y.h * p.y.w;
  const std::int64_t rows = col_rows(p);
  // Rows write disjoint output ranges; when called from inside an outer
  // parallel region the chunks are shared with idle workers.
  ThreadPool::global().parallel_for(
      rows, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t row = begin; row < end; ++row) {
          lower_one_row(p, x_image, row, col + row * cols);
        }
      });
}

void im2col_batched(const ConvProblem& p, const float* x, float* col) {
  const std::int64_t image = p.x.c * p.x.h * p.x.w;
  const std::int64_t per_image_cols = p.y.h * p.y.w;
  const std::int64_t total_cols = p.x.n * per_image_cols;
  const std::int64_t rows = col_rows(p);
  ThreadPool::global().parallel_for(
      p.x.n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t n = begin; n < end; ++n) {
          // Lower image n directly into the batched layout with strided writes.
          const float* x_image = x + n * image;
          for (std::int64_t row = 0; row < rows; ++row) {
            lower_one_row(p, x_image, row,
                          col + row * total_cols + n * per_image_cols);
          }
        }
      });
}

void col2im_accumulate(const ConvProblem& p, const float* col, float* x_image) {
  col2im_accumulate_strided(p, col, p.y.h * p.y.w, x_image);
}

void col2im_accumulate_strided(const ConvProblem& p, const float* col,
                               std::int64_t row_stride, float* x_image) {
  const std::int64_t cols = row_stride;
  // Parallel over channels: rows of a channel scatter into that channel's
  // plane only, so channel chunks never race.
  ThreadPool::global().parallel_for(
      p.w.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t c = begin; c < end; ++c) {
          float* x_channel = x_image + c * p.x.h * p.x.w;
          for (std::int64_t r = 0; r < p.w.r; ++r) {
            const std::int64_t rr = spatial_r(p, r);
            for (std::int64_t s = 0; s < p.w.s; ++s) {
              const std::int64_t ss = spatial_s(p, s);
              const std::int64_t base_w = ss * p.geom.dilation_w - p.geom.pad_w;
              const float* in = col + ((c * p.w.r + r) * p.w.s + s) * cols;
              for (std::int64_t i = 0; i < p.y.h; ++i) {
                const std::int64_t ih =
                    i * p.geom.stride_h - p.geom.pad_h + rr * p.geom.dilation_h;
                if (ih < 0 || ih >= p.x.h) continue;
                scatter_row(x_channel + ih * p.x.w, in + i * p.y.w, p.y.w,
                            p.geom.stride_w, base_w, p.x.w);
              }
            }
          }
        }
      });
}

void build_gather_indices(const ConvProblem& p, std::int32_t* indices) {
  const std::int64_t oh = p.y.h, ow = p.y.w;
  const std::int64_t cols = oh * ow;
  const std::int64_t rows = col_rows(p);
  for (std::int64_t row = 0; row < rows; ++row) {
    const std::int64_t c = row / (p.w.r * p.w.s);
    const std::int64_t r = (row / p.w.s) % p.w.r;
    const std::int64_t s = row % p.w.s;
    const std::int64_t rr = spatial_r(p, r);
    const std::int64_t ss = spatial_s(p, s);
    std::int32_t* out = indices + row * cols;
    for (std::int64_t i = 0; i < oh; ++i) {
      const std::int64_t ih =
          i * p.geom.stride_h - p.geom.pad_h + rr * p.geom.dilation_h;
      for (std::int64_t j = 0; j < ow; ++j) {
        const std::int64_t iw =
            j * p.geom.stride_w - p.geom.pad_w + ss * p.geom.dilation_w;
        const bool inside = ih >= 0 && ih < p.x.h && iw >= 0 && iw < p.x.w;
        out[i * ow + j] =
            inside ? static_cast<std::int32_t>((c * p.x.h + ih) * p.x.w + iw)
                   : -1;
      }
    }
  }
}

void im2col_indexed(const ConvProblem& p, const std::int32_t* indices,
                    const float* x_image, float* col) {
  const std::int64_t count = col_rows(p) * p.y.h * p.y.w;
  // The precomp path calls this once per image from a serial loop; chunk the
  // flat gather so idle workers help, with a floor that keeps small layers
  // inline.
  ThreadPool::global().parallel_for(
      count,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) {
          const std::int32_t idx = indices[i];
          col[i] = idx >= 0 ? x_image[idx] : 0.0f;
        }
      },
      /*min_chunk=*/std::int64_t{1} << 14);
}

}  // namespace ucudnn::kernels
