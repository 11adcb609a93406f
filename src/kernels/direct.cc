#include "kernels/direct.h"

#include "common/simd.h"
#include "common/thread_pool.h"

#if defined(__x86_64__) || defined(__i386__)
#define UCUDNN_DIRECT_X86 1
#include <immintrin.h>
#endif

namespace ucudnn::kernels {

namespace {

inline std::int64_t spatial_r(const ConvProblem& p, std::int64_t r) noexcept {
  return p.geom.mode == ConvMode::kCrossCorrelation ? r : p.w.r - 1 - r;
}
inline std::int64_t spatial_s(const ConvProblem& p, std::int64_t s) noexcept {
  return p.geom.mode == ConvMode::kCrossCorrelation ? s : p.w.s - 1 - s;
}

// One (n, k) output plane of implicit GEMM: y_nk += alpha * sum over
// (c, r, s) of shifted input rows scaled by the filter tap. The whole loop
// nest sits inside a single dispatched function so the AVX transition and
// call overhead are paid once per plane, not once per row (the interior row
// update is a plain axpy).
void implicit_gemm_plane_scalar(const ConvProblem& p, const float* x_n,
                                const float* w, std::int64_t k,
                                std::int64_t c_base, float alpha,
                                float* y_nk) {
  for (std::int64_t c = 0; c < p.w.c; ++c) {
    const float* x_nc = x_n + (c_base + c) * p.x.h * p.x.w;
    for (std::int64_t r = 0; r < p.w.r; ++r) {
      const std::int64_t rr = spatial_r(p, r);
      for (std::int64_t s = 0; s < p.w.s; ++s) {
        const std::int64_t ss = spatial_s(p, s);
        const float wv = alpha * w[p.w.offset(k, c, r, s)];
        if (wv == 0.0f) continue;
        const std::int64_t base = ss * p.geom.dilation_w - p.geom.pad_w;
        for (std::int64_t i = 0; i < p.y.h; ++i) {
          const std::int64_t ih =
              i * p.geom.stride_h - p.geom.pad_h + rr * p.geom.dilation_h;
          if (ih < 0 || ih >= p.x.h) continue;
          const float* x_row = x_nc + ih * p.x.w;
          float* y_row = y_nk + i * p.y.w;
          // Hoist the iw bounds: valid j satisfy
          // 0 <= j*stride_w - pad_w + ss*dilation_w < x.w.
          std::int64_t j0 = 0;
          while (j0 < p.y.w && j0 * p.geom.stride_w + base < 0) ++j0;
          std::int64_t j1 = p.y.w;
          while (j1 > j0 && (j1 - 1) * p.geom.stride_w + base >= p.x.w) --j1;
          if (p.geom.stride_w == 1) {
            const float* x_base = x_row + base;
            for (std::int64_t j = j0; j < j1; ++j) {
              y_row[j] += wv * x_base[j];
            }
          } else {
            for (std::int64_t j = j0; j < j1; ++j) {
              y_row[j] += wv * x_row[j * p.geom.stride_w + base];
            }
          }
        }
      }
    }
  }
}

#if defined(UCUDNN_DIRECT_X86)

// Same nest with the stride-1 interior as 8-wide FMA. Kept structurally in
// sync with implicit_gemm_plane_scalar.
__attribute__((target("avx2,fma"))) void implicit_gemm_plane_avx2(
    const ConvProblem& p, const float* x_n, const float* w, std::int64_t k,
    std::int64_t c_base, float alpha, float* y_nk) {
  for (std::int64_t c = 0; c < p.w.c; ++c) {
    const float* x_nc = x_n + (c_base + c) * p.x.h * p.x.w;
    for (std::int64_t r = 0; r < p.w.r; ++r) {
      const std::int64_t rr = spatial_r(p, r);
      for (std::int64_t s = 0; s < p.w.s; ++s) {
        const std::int64_t ss = spatial_s(p, s);
        const float wv = alpha * w[p.w.offset(k, c, r, s)];
        if (wv == 0.0f) continue;
        const std::int64_t base = ss * p.geom.dilation_w - p.geom.pad_w;
        const __m256 vw = _mm256_set1_ps(wv);
        for (std::int64_t i = 0; i < p.y.h; ++i) {
          const std::int64_t ih =
              i * p.geom.stride_h - p.geom.pad_h + rr * p.geom.dilation_h;
          if (ih < 0 || ih >= p.x.h) continue;
          const float* x_row = x_nc + ih * p.x.w;
          float* y_row = y_nk + i * p.y.w;
          std::int64_t j0 = 0;
          while (j0 < p.y.w && j0 * p.geom.stride_w + base < 0) ++j0;
          std::int64_t j1 = p.y.w;
          while (j1 > j0 && (j1 - 1) * p.geom.stride_w + base >= p.x.w) --j1;
          if (p.geom.stride_w == 1) {
            const float* x_base = x_row + base;
            std::int64_t j = j0;
            for (; j + 8 <= j1; j += 8) {
              _mm256_storeu_ps(
                  y_row + j,
                  _mm256_fmadd_ps(vw, _mm256_loadu_ps(x_base + j),
                                  _mm256_loadu_ps(y_row + j)));
            }
            for (; j < j1; ++j) y_row[j] += wv * x_base[j];
          } else {
            for (std::int64_t j = j0; j < j1; ++j) {
              y_row[j] += wv * x_row[j * p.geom.stride_w + base];
            }
          }
        }
      }
    }
  }
}

#endif

inline void implicit_gemm_plane(const ConvProblem& p, const float* x_n,
                                const float* w, std::int64_t k,
                                std::int64_t c_base, float alpha,
                                float* y_nk) {
#if defined(UCUDNN_DIRECT_X86)
  if (simd::vectorized()) {
    return implicit_gemm_plane_avx2(p, x_n, w, k, c_base, alpha, y_nk);
  }
#endif
  implicit_gemm_plane_scalar(p, x_n, w, k, c_base, alpha, y_nk);
}

}  // namespace

void direct_forward(const ConvProblem& p, const float* x, const float* w,
                    float* y, float alpha, float beta) {
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;
  ThreadPool::global().parallel_for(
      p.x.n * p.y.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t nk = begin; nk < end; ++nk) {
          const std::int64_t n = nk / p.y.c;
          const std::int64_t k = nk % p.y.c;
          // Grouped convolution: output channel k reads only its group's
          // slice of the input channels.
          const std::int64_t c_base = (k / p.k_per_group()) * p.w.c;
          const float* x_n = x + n * image_x;
          float* y_nk = y + n * image_y + k * p.y.h * p.y.w;
          for (std::int64_t i = 0; i < p.y.h; ++i) {
            for (std::int64_t j = 0; j < p.y.w; ++j) {
              double acc = 0.0;
              for (std::int64_t c = 0; c < p.w.c; ++c) {
                for (std::int64_t r = 0; r < p.w.r; ++r) {
                  const std::int64_t ih = i * p.geom.stride_h - p.geom.pad_h +
                                          spatial_r(p, r) * p.geom.dilation_h;
                  if (ih < 0 || ih >= p.x.h) continue;
                  for (std::int64_t s = 0; s < p.w.s; ++s) {
                    const std::int64_t iw = j * p.geom.stride_w - p.geom.pad_w +
                                            spatial_s(p, s) * p.geom.dilation_w;
                    if (iw < 0 || iw >= p.x.w) continue;
                    acc += static_cast<double>(
                               x_n[((c_base + c) * p.x.h + ih) * p.x.w + iw]) *
                           w[p.w.offset(k, c, r, s)];
                  }
                }
              }
              float& out = y_nk[i * p.y.w + j];
              out = static_cast<float>(alpha * acc) +
                    (beta == 0.0f ? 0.0f : beta * out);
            }
          }
        }
      });
}

void direct_backward_data(const ConvProblem& p, const float* dy,
                          const float* w, float* dx, float alpha, float beta) {
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;
  ThreadPool::global().parallel_for(
      p.x.n * p.x.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t nc = begin; nc < end; ++nc) {
          const std::int64_t n = nc / p.x.c;
          const std::int64_t c = nc % p.x.c;
          // Grouped convolution: input channel c receives gradients only
          // from its group's output channels, through filter column
          // c - group * w.c.
          const std::int64_t group = c / p.w.c;
          const std::int64_t cg = c % p.w.c;
          const std::int64_t k0 = group * p.k_per_group();
          const std::int64_t k1 = k0 + p.k_per_group();
          const float* dy_n = dy + n * image_y;
          float* dx_nc = dx + n * image_x + c * p.x.h * p.x.w;
          for (std::int64_t ih = 0; ih < p.x.h; ++ih) {
            for (std::int64_t iw = 0; iw < p.x.w; ++iw) {
              double acc = 0.0;
              for (std::int64_t k = k0; k < k1; ++k) {
                const float* dy_nk = dy_n + k * p.y.h * p.y.w;
                for (std::int64_t r = 0; r < p.w.r; ++r) {
                  const std::int64_t num_h =
                      ih + p.geom.pad_h - spatial_r(p, r) * p.geom.dilation_h;
                  if (num_h < 0 || num_h % p.geom.stride_h != 0) continue;
                  const std::int64_t oh = num_h / p.geom.stride_h;
                  if (oh >= p.y.h) continue;
                  for (std::int64_t s = 0; s < p.w.s; ++s) {
                    const std::int64_t num_w =
                        iw + p.geom.pad_w - spatial_s(p, s) * p.geom.dilation_w;
                    if (num_w < 0 || num_w % p.geom.stride_w != 0) continue;
                    const std::int64_t ow = num_w / p.geom.stride_w;
                    if (ow >= p.y.w) continue;
                    acc += static_cast<double>(dy_nk[oh * p.y.w + ow]) *
                           w[p.w.offset(k, cg, r, s)];
                  }
                }
              }
              float& out = dx_nc[ih * p.x.w + iw];
              out = static_cast<float>(alpha * acc) +
                    (beta == 0.0f ? 0.0f : beta * out);
            }
          }
        }
      });
}

void direct_backward_filter(const ConvProblem& p, const float* x,
                            const float* dy, float* dw, float alpha,
                            float beta) {
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;
  ThreadPool::global().parallel_for(
      p.w.k * p.w.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t kc = begin; kc < end; ++kc) {
          const std::int64_t k = kc / p.w.c;
          const std::int64_t c = kc % p.w.c;
          // Grouped convolution: filter column c addresses the group's slice.
          const std::int64_t c_in = (k / p.k_per_group()) * p.w.c + c;
          for (std::int64_t r = 0; r < p.w.r; ++r) {
            for (std::int64_t s = 0; s < p.w.s; ++s) {
              double acc = 0.0;
              const std::int64_t rr = spatial_r(p, r), ss = spatial_s(p, s);
              for (std::int64_t n = 0; n < p.x.n; ++n) {
                const float* x_nc = x + n * image_x + c_in * p.x.h * p.x.w;
                const float* dy_nk = dy + n * image_y + k * p.y.h * p.y.w;
                for (std::int64_t i = 0; i < p.y.h; ++i) {
                  const std::int64_t ih = i * p.geom.stride_h - p.geom.pad_h +
                                          rr * p.geom.dilation_h;
                  if (ih < 0 || ih >= p.x.h) continue;
                  for (std::int64_t j = 0; j < p.y.w; ++j) {
                    const std::int64_t iw = j * p.geom.stride_w -
                                            p.geom.pad_w +
                                            ss * p.geom.dilation_w;
                    if (iw < 0 || iw >= p.x.w) continue;
                    acc += static_cast<double>(x_nc[ih * p.x.w + iw]) *
                           dy_nk[i * p.y.w + j];
                  }
                }
              }
              float& out = dw[p.w.offset(k, c, r, s)];
              out = static_cast<float>(alpha * acc) +
                    (beta == 0.0f ? 0.0f : beta * out);
            }
          }
        }
      });
}

void implicit_gemm_forward(const ConvProblem& p, const float* x,
                           const float* w, float* y, float alpha, float beta) {
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;
  const std::int64_t plane_y = p.y.h * p.y.w;
  ThreadPool::global().parallel_for(
      p.x.n * p.y.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t nk = begin; nk < end; ++nk) {
          const std::int64_t n = nk / p.y.c;
          const std::int64_t k = nk % p.y.c;
          const std::int64_t c_base = (k / p.k_per_group()) * p.w.c;
          const float* x_n = x + n * image_x;
          float* y_nk = y + n * image_y + k * plane_y;

          // Initialize output with beta scaling, then accumulate contributions
          // ordered (c, r, s) with the inner loop running contiguously over ow.
          if (beta == 0.0f) {
            for (std::int64_t i = 0; i < plane_y; ++i) y_nk[i] = 0.0f;
          } else if (beta != 1.0f) {
            for (std::int64_t i = 0; i < plane_y; ++i) y_nk[i] *= beta;
          }

          implicit_gemm_plane(p, x_n, w, k, c_base, alpha, y_nk);
        }
      });
}

}  // namespace ucudnn::kernels
