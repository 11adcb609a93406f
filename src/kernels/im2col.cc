#include "kernels/im2col.h"

#include <algorithm>
#include <vector>

#include "common/mathutil.h"
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

// In-bounds output range along one axis: i = j * stride + base stays inside
// [0, xw) exactly for j in [lo, hi). Hoisting the bounds out of the inner
// loops leaves a branch-free interior (a plain copy when stride == 1).
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

// Everything about one (c, r, s) row of the column matrix that does not
// depend on the image: where its channel plane starts, which output rows
// read an input row inside the image, and which output columns read inside
// it. Reused for every image and output row.
struct RowPlan {
  std::int64_t plane;   // offset of channel c within one image
  std::int64_t ih0;     // input row read by output row 0 (may be < 0)
  std::int64_t base_w;  // input column read by output column 0 (may be < 0)
  ColRange rows;        // output rows with an in-bounds input row
  ColRange cols;        // output columns with an in-bounds input column
};

// The plans of channel 0's rows, filter tap t = r * S + s at index t. Only
// `plane` depends on the channel (in_channel), so a call plans its R*S taps
// once instead of dividing its way to the bounds of every row of every image.
std::vector<RowPlan> plan_taps(const ConvProblem& p) {
  std::vector<RowPlan> taps;
  taps.reserve(static_cast<std::size_t>(p.w.r * p.w.s));
  for (std::int64_t r = 0; r < p.w.r; ++r) {
    const std::int64_t ih0 =
        spatial_r(p, r) * p.geom.dilation_h - p.geom.pad_h;
    const ColRange rows = col_range(p.y.h, p.geom.stride_h, ih0, p.x.h);
    for (std::int64_t s = 0; s < p.w.s; ++s) {
      const std::int64_t base_w =
          spatial_s(p, s) * p.geom.dilation_w - p.geom.pad_w;
      taps.push_back({0, ih0, base_w, rows,
                      col_range(p.y.w, p.geom.stride_w, base_w, p.x.w)});
    }
  }
  return taps;
}

// Row c * R*S + t of the column matrix: tap t moved to channel c's plane.
inline RowPlan in_channel(const ConvProblem& p, RowPlan tap,
                          std::int64_t c) noexcept {
  tap.plane = c * p.x.h * p.x.w;
  return tap;
}

// Output pixel (i, j) of a row reads input element
// row_origin(p, rp, i) + j * stride_w of the image (offsets are formed
// before the pointer, which may not point outside the image).
inline std::int64_t row_origin(const ConvProblem& p, const RowPlan& rp,
                               std::int64_t i) noexcept {
  return rp.plane + (i * p.geom.stride_h + rp.ih0) * p.x.w + rp.base_w;
}

// Whether source rows and column rows share a stride: output row i + 1 then
// reads the input row after the one output row i reads, OW floats further on.
inline bool band_copy(const ConvProblem& p) noexcept {
  return p.geom.stride_h == 1 && p.geom.stride_w == 1 && p.x.w == p.y.w;
}

// Lowers one (row, image) pair: out[i * OW + j] is the input element output
// pixel (i, j) reads, or zero where it reads padding.
void lower_pair(const ConvProblem& p, const RowPlan& rp, const float* x_image,
                float* out) noexcept {
  const std::int64_t ow = p.y.w;
  const std::int64_t stride_w = p.geom.stride_w;
  const ColRange jr = rp.cols;
  std::fill(out, out + rp.rows.lo * ow, 0.0f);
  if (band_copy(p) && rp.rows.lo < rp.rows.hi && jr.lo < jr.hi) {
    // The in-bounds band is one shifted copy, from in-bounds pixel
    // (rows.lo, jr.lo) to (rows.hi - 1, jr.hi - 1). Its edge columns picked
    // up the neighbouring input rows and are zeroed after.
    const std::int64_t first = row_origin(p, rp, rp.rows.lo) + jr.lo;
    const std::int64_t last = row_origin(p, rp, rp.rows.hi - 1) + jr.hi;
    std::copy(x_image + first, x_image + last, out + rp.rows.lo * ow + jr.lo);
    for (std::int64_t i = rp.rows.lo; i < rp.rows.hi; ++i) {
      float* out_row = out + i * ow;
      for (std::int64_t j = 0; j < jr.lo; ++j) out_row[j] = 0.0f;
      for (std::int64_t j = jr.hi; j < ow; ++j) out_row[j] = 0.0f;
    }
    std::fill(out + rp.rows.hi * ow, out + p.y.h * ow, 0.0f);
    return;
  }
  for (std::int64_t i = rp.rows.lo; i < rp.rows.hi; ++i) {
    const std::int64_t origin = row_origin(p, rp, i);
    float* out_row = out + i * ow;
    std::fill(out_row, out_row + jr.lo, 0.0f);
    if (stride_w == 1) {
      std::copy(x_image + (origin + jr.lo), x_image + (origin + jr.hi),
                out_row + jr.lo);
    } else {
      for (std::int64_t j = jr.lo; j < jr.hi; ++j) {
        out_row[j] = x_image[origin + j * stride_w];
      }
    }
    std::fill(out_row + jr.hi, out_row + ow, 0.0f);
  }
  std::fill(out + rp.rows.hi * ow, out + p.y.h * ow, 0.0f);
}

// Parallel grain of the lowering, in output floats per chunk.
constexpr std::int64_t kLowerGrain = std::int64_t{1} << 14;

// Lowers `images` consecutive images of x into
// col[C*R*S][images * OH*OW], parallel over (row, image) pairs. Pair
// row * images + n writes the OH*OW run at that index, so a chunk writes one
// contiguous range.
void lower(const ConvProblem& p, const float* x, std::int64_t images,
           float* col) {
  const std::int64_t image = p.x.c * p.x.h * p.x.w;
  const std::int64_t plane = p.y.h * p.y.w;
  const std::int64_t rs = p.w.r * p.w.s;
  const std::vector<RowPlan> taps = plan_taps(p);
  ThreadPool::global().parallel_for(
      col_rows(p) * images,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        std::int64_t row = begin / images;
        std::int64_t n = begin % images;
        for (std::int64_t pair = begin; pair < end; ++row, n = 0) {
          const RowPlan rp = in_channel(p, taps[row % rs], row / rs);
          for (; n < images && pair < end; ++n, ++pair) {
            lower_pair(p, rp, x + n * image, col + pair * plane);
          }
        }
      },
      /*min_chunk=*/ceil_div(kLowerGrain, plane));
}

}  // namespace

void im2col(const ConvProblem& p, const float* x_image, float* col) {
  lower(p, x_image, 1, col);
}

void im2col_batched(const ConvProblem& p, const float* x, float* col) {
  lower(p, x, p.x.n, col);
}

void col2im_accumulate(const ConvProblem& p, const float* col, float* x_image) {
  col2im_accumulate_strided(p, col, p.y.h * p.y.w, x_image);
}

void col2im_accumulate_strided(const ConvProblem& p, const float* col,
                               std::int64_t row_stride, float* x_image) {
  const std::int64_t rs = p.w.r * p.w.s;
  const std::vector<RowPlan> taps = plan_taps(p);
  // Parallel over channels: rows of a channel scatter into that channel's
  // plane only, so channel chunks never race.
  ThreadPool::global().parallel_for(
      p.w.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t c = begin; c < end; ++c) {
          for (std::int64_t t = 0; t < rs; ++t) {
            const RowPlan rp = in_channel(p, taps[t], c);
            const float* in = col + (c * rs + t) * row_stride;
            const ColRange jr = rp.cols;
            for (std::int64_t i = rp.rows.lo; i < rp.rows.hi; ++i) {
              const std::int64_t origin = row_origin(p, rp, i);
              const float* in_row = in + i * p.y.w;
              for (std::int64_t j = jr.lo; j < jr.hi; ++j) {
                x_image[origin + j * p.geom.stride_w] += in_row[j];
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
