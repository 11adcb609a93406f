#include "kernels/gemm_conv.h"

#include <cstdint>
#include <cstring>

#include "common/status.h"
#include "common/thread_pool.h"
#include "gemm/gemm.h"
#include "kernels/im2col.h"

namespace ucudnn::kernels {

namespace {

// Pre-scales `out` (count elements) by beta: zero, keep, or scale.
void apply_beta(float* out, std::int64_t count, float beta) {
  if (beta == 0.0f) {
    for (std::int64_t i = 0; i < count; ++i) out[i] = 0.0f;
  } else if (beta != 1.0f) {
    for (std::int64_t i = 0; i < count; ++i) out[i] *= beta;
  }
}

// Gathers dy[n][k][p] into stage[k][n*P + p] (the transposed batched layout
// a single GEMM over the whole batch needs).
void gather_dy(const ConvProblem& p, const float* dy, float* stage) {
  const std::int64_t plane = p.y.h * p.y.w;
  const std::int64_t image = p.y.c * plane;
  const std::int64_t total = p.x.n * plane;
  ThreadPool::global().parallel_for(
      p.x.n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t n = begin; n < end; ++n) {
          for (std::int64_t k = 0; k < p.y.c; ++k) {
            std::memcpy(stage + k * total + n * plane,
                        dy + n * image + k * plane,
                        static_cast<std::size_t>(plane) * sizeof(float));
          }
        }
      });
}

}  // namespace

std::size_t precomp_fwd_workspace(const ConvProblem& p) {
  const std::size_t cells =
      static_cast<std::size_t>(col_rows(p)) * p.y.h * p.y.w;
  return cells * sizeof(std::int32_t) + cells * sizeof(float);
}

void precomp_gemm_forward(const ConvProblem& p, const float* x, const float* w,
                          float* y, float alpha, float beta, void* workspace) {
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "precomp_gemm_forward requires workspace");
  }
  const std::int64_t rows = col_rows(p);
  const std::int64_t plane = p.y.h * p.y.w;
  auto* indices = static_cast<std::int32_t*>(workspace);
  auto* col = reinterpret_cast<float*>(indices + rows * plane);

  build_gather_indices(p, indices);
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * plane;
  const std::int64_t group_x = p.w.c * p.x.h * p.x.w;  // input slice stride
  const std::int64_t kpg = p.k_per_group();
  for (std::int64_t n = 0; n < p.x.n; ++n) {
    // Grouped convolution runs one small GEMM per group; the gather table is
    // group-relative, so only the input base pointer shifts.
    for (std::int64_t g = 0; g < p.geom.groups; ++g) {
      im2col_indexed(p, indices, x + n * image_x + g * group_x, col);
      // y_n,g[K/g][P] = alpha * W_g[K/g][CRS] x col[CRS][P] + beta * y_n,g.
      gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, kpg, plane, rows, alpha,
                  w + g * kpg * rows, rows, col, plane, beta,
                  y + n * image_y + g * kpg * plane, plane);
    }
  }
}

std::size_t gemm_fwd_workspace(const ConvProblem& p) {
  const std::size_t col_cells = static_cast<std::size_t>(col_rows(p)) *
                                p.x.n * p.y.h * p.y.w;
  const std::size_t stage_cells =
      static_cast<std::size_t>(p.w.k) * p.x.n * p.y.h * p.y.w;
  return (col_cells + stage_cells) * sizeof(float);
}

void gemm_forward(const ConvProblem& p, const float* x, const float* w,
                  float* y, float alpha, float beta, void* workspace) {
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "gemm_forward requires workspace");
  }
  const std::int64_t rows = col_rows(p);
  const std::int64_t plane = p.y.h * p.y.w;
  const std::int64_t total = p.x.n * plane;
  auto* col = static_cast<float*>(workspace);
  float* stage = col + rows * total;

  im2col_batched(p, x, col);
  // stage[K][N*P] = alpha * W[K][CRS] x col[CRS][N*P].
  gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, p.w.k, total, rows, alpha, w,
              rows, col, total, 0.0f, stage, total);

  // Scatter back to NCHW with beta semantics.
  const std::int64_t image_y = p.y.c * plane;
  ThreadPool::global().parallel_for(
      p.x.n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t n = begin; n < end; ++n) {
          for (std::int64_t k = 0; k < p.y.c; ++k) {
            const float* src = stage + k * total + n * plane;
            float* dst = y + n * image_y + k * plane;
            if (beta == 0.0f) {
              for (std::int64_t i = 0; i < plane; ++i) dst[i] = src[i];
            } else {
              for (std::int64_t i = 0; i < plane; ++i) {
                dst[i] = src[i] + beta * dst[i];
              }
            }
          }
        }
      });
}

std::size_t gemm_bwd_data_workspace(const ConvProblem& p) {
  const std::size_t total = static_cast<std::size_t>(p.x.n) * p.y.h * p.y.w;
  const std::size_t stage_cells = static_cast<std::size_t>(p.y.c) * total;
  const std::size_t col_cells = static_cast<std::size_t>(col_rows(p)) * total;
  return (stage_cells + col_cells) * sizeof(float);
}

void gemm_backward_data(const ConvProblem& p, const float* dy, const float* w,
                        float* dx, float alpha, float beta, void* workspace) {
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "gemm_backward_data requires workspace");
  }
  const std::int64_t rows = col_rows(p);
  const std::int64_t plane = p.y.h * p.y.w;
  const std::int64_t total = p.x.n * plane;
  auto* stage = static_cast<float*>(workspace);
  float* dcol = stage + p.y.c * total;

  gather_dy(p, dy, stage);
  // dcol[CRS][N*P] = alpha * Wᵀ[CRS][K] x stage[K][N*P].
  gemm::sgemm(gemm::Trans::kYes, gemm::Trans::kNo, rows, total, p.w.k, alpha, w,
              rows, stage, total, 0.0f, dcol, total);

  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  ThreadPool::global().parallel_for(
      p.x.n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t n = begin; n < end; ++n) {
          float* dx_n = dx + n * image_x;
          apply_beta(dx_n, image_x, beta);
          col2im_accumulate_strided(p, dcol + n * plane, total, dx_n);
        }
      });
}

std::size_t perimage_bwd_filter_workspace(const ConvProblem& p) {
  return static_cast<std::size_t>(col_rows(p)) * p.y.h * p.y.w * sizeof(float);
}

void perimage_backward_filter(const ConvProblem& p, const float* x,
                              const float* dy, float* dw, float alpha,
                              float beta, void* workspace) {
  if (workspace == nullptr) {
    throw Error(Status::kBadParam,
                "perimage_backward_filter requires workspace");
  }
  const std::int64_t rows = col_rows(p);
  const std::int64_t plane = p.y.h * p.y.w;
  auto* col = static_cast<float*>(workspace);

  apply_beta(dw, p.w.count(), beta);
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * plane;
  for (std::int64_t n = 0; n < p.x.n; ++n) {
    im2col(p, x + n * image_x, col);
    // dw[K][CRS] += alpha * dy_n[K][P] x colᵀ[P][CRS].
    gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kYes, p.w.k, rows, plane, alpha,
                dy + n * image_y, plane, col, plane, 1.0f, dw, rows);
  }
}

std::size_t gemm_bwd_filter_workspace(const ConvProblem& p) {
  const std::size_t total = static_cast<std::size_t>(p.x.n) * p.y.h * p.y.w;
  const std::size_t col_cells = static_cast<std::size_t>(col_rows(p)) * total;
  const std::size_t stage_cells = static_cast<std::size_t>(p.y.c) * total;
  return (col_cells + stage_cells) * sizeof(float);
}

void gemm_backward_filter(const ConvProblem& p, const float* x,
                          const float* dy, float* dw, float alpha, float beta,
                          void* workspace) {
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "gemm_backward_filter requires workspace");
  }
  const std::int64_t rows = col_rows(p);
  const std::int64_t plane = p.y.h * p.y.w;
  const std::int64_t total = p.x.n * plane;
  auto* col = static_cast<float*>(workspace);
  float* stage = col + rows * total;

  im2col_batched(p, x, col);
  gather_dy(p, dy, stage);
  // dw[K][CRS] = alpha * stage[K][N*P] x colᵀ[N*P][CRS] + beta * dw.
  gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kYes, p.w.k, rows, total, alpha,
              stage, total, col, total, beta, dw, rows);
}

}  // namespace ucudnn::kernels
