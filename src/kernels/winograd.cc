#include "kernels/winograd.h"

#include <algorithm>
#include <array>

#include "common/simd.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "gemm/gemm.h"

namespace ucudnn::kernels {

namespace {

// Filter transform U = G g Gᵀ for F(2x2, 3x3),
// G = [[1,0,0],[1/2,1/2,1/2],[1/2,-1/2,1/2],[0,0,1]].
void transform_filter(const float g[9], float u[16]) {
  // Gg: 4x3.
  float t[12];
  for (int j = 0; j < 3; ++j) {
    const float g0 = g[0 * 3 + j], g1 = g[1 * 3 + j], g2 = g[2 * 3 + j];
    t[0 * 3 + j] = g0;
    t[1 * 3 + j] = 0.5f * (g0 + g1 + g2);
    t[2 * 3 + j] = 0.5f * (g0 - g1 + g2);
    t[3 * 3 + j] = g2;
  }
  // (Gg) Gᵀ: 4x4.
  for (int i = 0; i < 4; ++i) {
    const float t0 = t[i * 3 + 0], t1 = t[i * 3 + 1], t2 = t[i * 3 + 2];
    u[i * 4 + 0] = t0;
    u[i * 4 + 1] = 0.5f * (t0 + t1 + t2);
    u[i * 4 + 2] = 0.5f * (t0 - t1 + t2);
    u[i * 4 + 3] = t2;
  }
}

// Input transform V = Bᵀ d B,
// Bᵀ = [[1,0,-1,0],[0,1,1,0],[0,-1,1,0],[0,1,0,-1]].
void transform_input(const float d[16], float v[16]) {
  float t[16];
  for (int j = 0; j < 4; ++j) {
    const float d0 = d[0 * 4 + j], d1 = d[1 * 4 + j], d2 = d[2 * 4 + j],
                d3 = d[3 * 4 + j];
    t[0 * 4 + j] = d0 - d2;
    t[1 * 4 + j] = d1 + d2;
    t[2 * 4 + j] = d2 - d1;
    t[3 * 4 + j] = d1 - d3;
  }
  for (int i = 0; i < 4; ++i) {
    const float t0 = t[i * 4 + 0], t1 = t[i * 4 + 1], t2 = t[i * 4 + 2],
                t3 = t[i * 4 + 3];
    v[i * 4 + 0] = t0 - t2;
    v[i * 4 + 1] = t1 + t2;
    v[i * 4 + 2] = t2 - t1;
    v[i * 4 + 3] = t1 - t3;
  }
}

// Output transform y = Aᵀ m A, Aᵀ = [[1,1,1,0],[0,1,-1,-1]].
void transform_output(const float m[16], float y[4]) {
  float t[8];
  for (int j = 0; j < 4; ++j) {
    const float m0 = m[0 * 4 + j], m1 = m[1 * 4 + j], m2 = m[2 * 4 + j],
                m3 = m[3 * 4 + j];
    t[0 * 4 + j] = m0 + m1 + m2;
    t[1 * 4 + j] = m1 - m2 - m3;
  }
  for (int i = 0; i < 2; ++i) {
    const float t0 = t[i * 4 + 0], t1 = t[i * 4 + 1], t2 = t[i * 4 + 2],
                t3 = t[i * 4 + 3];
    y[i * 2 + 0] = t0 + t1 + t2;
    y[i * 2 + 1] = t1 - t2 - t3;
  }
}

// Loads a 4x4 input patch with zero padding outside the image.
void load_patch(const float* plane, std::int64_t h, std::int64_t w,
                std::int64_t i0, std::int64_t j0, float d[16]) {
  for (int a = 0; a < 4; ++a) {
    const std::int64_t ih = i0 + a;
    for (int b = 0; b < 4; ++b) {
      const std::int64_t iw = j0 + b;
      d[a * 4 + b] = (ih >= 0 && ih < h && iw >= 0 && iw < w)
                         ? plane[ih * w + iw]
                         : 0.0f;
    }
  }
}

// Reads filter element (k, c, r, s) honoring the convolution-mode flip.
inline float filter_at(const ConvProblem& p, const float* w, std::int64_t k,
                       std::int64_t c, std::int64_t r, std::int64_t s) {
  if (p.geom.mode == ConvMode::kConvolution) {
    r = 2 - r;
    s = 2 - s;
  }
  return w[p.w.offset(k, c, r, s)];
}

// Transforms all filters into u[k][c][16].
void build_filter_transforms(const ConvProblem& p, const float* w, float* u) {
  ThreadPool::global().parallel_for(
      p.w.k * p.w.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t kc = begin; kc < end; ++kc) {
          const std::int64_t k = kc / p.w.c;
          const std::int64_t c = kc % p.w.c;
          float g[9];
          for (int r = 0; r < 3; ++r) {
            for (int s = 0; s < 3; ++s) {
              g[r * 3 + s] = filter_at(p, w, k, c, r, s);
            }
          }
          transform_filter(g, u + kc * 16);
        }
      });
}

std::int64_t tiles_h(const ConvProblem& p) noexcept { return (p.y.h + 1) / 2; }
std::int64_t tiles_w(const ConvProblem& p) noexcept { return (p.y.w + 1) / 2; }

// Builds the transposed-and-(maybe-)flipped filter for the BackwardData
// lowering: w'[c][k][r][s] = w[k][c][2-r][2-s] (flip for cross-correlation,
// no flip for convolution mode), and the lowered forward problem.
ConvProblem lower_backward_data(const ConvProblem& p, const float* w,
                                float* w_prime) {
  const bool flip = p.geom.mode == ConvMode::kCrossCorrelation;
  ThreadPool::global().parallel_for(
      p.w.c * p.w.k, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t ck = begin; ck < end; ++ck) {
          const std::int64_t c = ck / p.w.k;
          const std::int64_t k = ck % p.w.k;
          for (int r = 0; r < 3; ++r) {
            for (int s = 0; s < 3; ++s) {
              const std::int64_t rr = flip ? 2 - r : r;
              const std::int64_t ss = flip ? 2 - s : s;
              w_prime[((c * p.w.k + k) * 3 + r) * 3 + s] =
                  w[p.w.offset(k, c, rr, ss)];
            }
          }
        }
      });
  ConvGeometry geom;
  geom.pad_h = 2 - p.geom.pad_h;
  geom.pad_w = 2 - p.geom.pad_w;
  geom.mode = ConvMode::kCrossCorrelation;
  return ConvProblem(p.y, FilterDesc{p.w.c, p.w.k, 3, 3}, geom);
}

}  // namespace

bool winograd_supported(const ConvProblem& p) noexcept {
  return p.w.r == 3 && p.w.s == 3 && p.is_unit_stride() && p.is_unit_dilation();
}

bool winograd_bwd_data_supported(const ConvProblem& p) noexcept {
  return winograd_supported(p) && p.geom.pad_h <= 2 && p.geom.pad_w <= 2;
}

std::int64_t winograd_tiles(const ConvProblem& p) noexcept {
  return tiles_h(p) * tiles_w(p);
}

std::size_t winograd_fwd_workspace(const ConvProblem& p) {
  const std::size_t filters = static_cast<std::size_t>(p.w.k) * p.w.c * 16;
  // Per-chunk scratch: the input-tile transform v[c][16] plus the batched
  // per-filter accumulators m[k][16] produced by one dot16_acc_batch call.
  const std::size_t scratch = ThreadPool::global().num_threads() *
                              static_cast<std::size_t>(p.w.c + p.w.k) * 16;
  return (filters + scratch) * sizeof(float);
}

void winograd_forward(const ConvProblem& p, const float* x, const float* w,
                      float* y, float alpha, float beta, void* workspace) {
  if (!winograd_supported(p)) {
    throw Error(Status::kNotSupported,
                "Winograd requires 3x3 window, unit stride/dilation");
  }
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "Winograd requires workspace");
  }
  auto* u = static_cast<float*>(workspace);
  float* scratch = u + p.w.k * p.w.c * 16;
  build_filter_transforms(p, w, u);

  const std::int64_t th = tiles_h(p), tw = tiles_w(p);
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;

  ThreadPool::global().parallel_for(
      p.x.n * th * tw,
      [&](std::int64_t begin, std::int64_t end, std::size_t chunk) {
        float* v =
            scratch + static_cast<std::int64_t>(chunk) * (p.w.c + p.w.k) * 16;
        float* m_all = v + p.w.c * 16;
        for (std::int64_t idx = begin; idx < end; ++idx) {
          const std::int64_t n = idx / (th * tw);
          const std::int64_t ti = (idx / tw) % th;
          const std::int64_t tj = idx % tw;
          const std::int64_t i0 = 2 * ti - p.geom.pad_h;
          const std::int64_t j0 = 2 * tj - p.geom.pad_w;

          for (std::int64_t c = 0; c < p.w.c; ++c) {
            float d[16];
            load_patch(x + n * image_x + c * p.x.h * p.x.w, p.x.h, p.x.w, i0,
                       j0, d);
            transform_input(d, v + c * 16);
          }
          // All k per-filter reductions for this tile in one dispatched call:
          // m_all[k][e] = sum_c u[k][c][e] * v[c][e].
          std::fill(m_all, m_all + p.w.k * 16, 0.0f);
          simd::dot16_acc_batch(u, v, p.w.c, p.w.k, m_all);
          for (std::int64_t k = 0; k < p.w.k; ++k) {
            float out[4];
            transform_output(m_all + k * 16, out);
            float* y_plane = y + n * image_y + k * p.y.h * p.y.w;
            for (int a = 0; a < 2; ++a) {
              const std::int64_t oh = 2 * ti + a;
              if (oh >= p.y.h) continue;
              for (int b = 0; b < 2; ++b) {
                const std::int64_t ow = 2 * tj + b;
                if (ow >= p.y.w) continue;
                float& dst = y_plane[oh * p.y.w + ow];
                dst = alpha * out[a * 2 + b] +
                      (beta == 0.0f ? 0.0f : beta * dst);
              }
            }
          }
        }
      });
}

std::size_t winograd_nonfused_fwd_workspace(const ConvProblem& p) {
  const std::size_t nt = static_cast<std::size_t>(p.x.n) * winograd_tiles(p);
  const std::size_t u_cells = 16 * static_cast<std::size_t>(p.w.k) * p.w.c;
  const std::size_t v_cells = 16 * static_cast<std::size_t>(p.w.c) * nt;
  const std::size_t m_cells = 16 * static_cast<std::size_t>(p.w.k) * nt;
  return (u_cells + v_cells + m_cells) * sizeof(float);
}

void winograd_nonfused_forward(const ConvProblem& p, const float* x,
                               const float* w, float* y, float alpha,
                               float beta, void* workspace) {
  if (!winograd_supported(p)) {
    throw Error(Status::kNotSupported,
                "Winograd requires 3x3 window, unit stride/dilation");
  }
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "Winograd requires workspace");
  }
  const std::int64_t th = tiles_h(p), tw = tiles_w(p);
  const std::int64_t nt = p.x.n * th * tw;
  const std::int64_t kc = p.w.k * p.w.c;

  // Layout: u_xi[xi][K][C], v_xi[xi][C][NT], m_xi[xi][K][NT].
  auto* u_xi = static_cast<float*>(workspace);
  float* v_xi = u_xi + 16 * kc;
  float* m_xi = v_xi + 16 * p.w.c * nt;

  // Filter transforms, scattered per frequency index xi.
  ThreadPool::global().parallel_for(
      kc, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t idx = begin; idx < end; ++idx) {
          const std::int64_t k = idx / p.w.c;
          const std::int64_t c = idx % p.w.c;
          float g[9];
          for (int r = 0; r < 3; ++r) {
            for (int s = 0; s < 3; ++s) {
              g[r * 3 + s] = filter_at(p, w, k, c, r, s);
            }
          }
          float u[16];
          transform_filter(g, u);
          for (int e = 0; e < 16; ++e) u_xi[e * kc + k * p.w.c + c] = u[e];
        }
      });

  // Input transforms, scattered per xi.
  const std::int64_t image_x = p.x.c * p.x.h * p.x.w;
  ThreadPool::global().parallel_for(
      nt, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t idx = begin; idx < end; ++idx) {
          const std::int64_t n = idx / (th * tw);
          const std::int64_t ti = (idx / tw) % th;
          const std::int64_t tj = idx % tw;
          const std::int64_t i0 = 2 * ti - p.geom.pad_h;
          const std::int64_t j0 = 2 * tj - p.geom.pad_w;
          for (std::int64_t c = 0; c < p.w.c; ++c) {
            float d[16], v[16];
            load_patch(x + n * image_x + c * p.x.h * p.x.w, p.x.h, p.x.w, i0,
                       j0, d);
            transform_input(d, v);
            for (int e = 0; e < 16; ++e) {
              v_xi[(e * p.w.c + c) * nt + idx] = v[e];
            }
          }
        }
      });

  // 16 large GEMMs: M_xi[K][NT] = U_xi[K][C] x V_xi[C][NT].
  for (int e = 0; e < 16; ++e) {
    gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, p.w.k, nt, p.w.c, 1.0f,
                u_xi + e * kc, p.w.c, v_xi + e * p.w.c * nt, nt, 0.0f,
                m_xi + e * p.w.k * nt, nt);
  }

  // Inverse transforms and scatter.
  const std::int64_t image_y = p.y.c * p.y.h * p.y.w;
  ThreadPool::global().parallel_for(
      nt, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t idx = begin; idx < end; ++idx) {
          const std::int64_t n = idx / (th * tw);
          const std::int64_t ti = (idx / tw) % th;
          const std::int64_t tj = idx % tw;
          for (std::int64_t k = 0; k < p.w.k; ++k) {
            float m[16];
            for (int e = 0; e < 16; ++e) {
              m[e] = m_xi[(e * p.w.k + k) * nt + idx];
            }
            float out[4];
            transform_output(m, out);
            float* y_plane = y + n * image_y + k * p.y.h * p.y.w;
            for (int a = 0; a < 2; ++a) {
              const std::int64_t oh = 2 * ti + a;
              if (oh >= p.y.h) continue;
              for (int b = 0; b < 2; ++b) {
                const std::int64_t ow = 2 * tj + b;
                if (ow >= p.y.w) continue;
                float& dst = y_plane[oh * p.y.w + ow];
                dst =
                    alpha * out[a * 2 + b] + (beta == 0.0f ? 0.0f : beta * dst);
              }
            }
          }
        }
      });
}

std::size_t winograd_bwd_data_workspace(const ConvProblem& p) {
  if (!winograd_bwd_data_supported(p)) {
    throw Error(Status::kNotSupported,
                "Winograd backward-data unsupported for this problem");
  }
  ConvGeometry geom;
  geom.pad_h = 2 - p.geom.pad_h;
  geom.pad_w = 2 - p.geom.pad_w;
  const ConvProblem lowered(p.y, FilterDesc{p.w.c, p.w.k, 3, 3}, geom);
  return static_cast<std::size_t>(p.w.count()) * sizeof(float) +
         winograd_fwd_workspace(lowered);
}

void winograd_backward_data(const ConvProblem& p, const float* dy,
                            const float* w, float* dx, float alpha, float beta,
                            void* workspace) {
  if (!winograd_bwd_data_supported(p)) {
    throw Error(Status::kNotSupported,
                "Winograd backward-data unsupported for this problem");
  }
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "Winograd requires workspace");
  }
  auto* w_prime = static_cast<float*>(workspace);
  const ConvProblem lowered = lower_backward_data(p, w, w_prime);
  winograd_forward(lowered, dy, w_prime, dx, alpha, beta,
                   w_prime + p.w.count());
}

std::size_t winograd_nonfused_bwd_data_workspace(const ConvProblem& p) {
  if (!winograd_bwd_data_supported(p)) {
    throw Error(Status::kNotSupported,
                "Winograd backward-data unsupported for this problem");
  }
  ConvGeometry geom;
  geom.pad_h = 2 - p.geom.pad_h;
  geom.pad_w = 2 - p.geom.pad_w;
  const ConvProblem lowered(p.y, FilterDesc{p.w.c, p.w.k, 3, 3}, geom);
  return static_cast<std::size_t>(p.w.count()) * sizeof(float) +
         winograd_nonfused_fwd_workspace(lowered);
}

void winograd_nonfused_backward_data(const ConvProblem& p, const float* dy,
                                     const float* w, float* dx, float alpha,
                                     float beta, void* workspace) {
  if (!winograd_bwd_data_supported(p)) {
    throw Error(Status::kNotSupported,
                "Winograd backward-data unsupported for this problem");
  }
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "Winograd requires workspace");
  }
  auto* w_prime = static_cast<float*>(workspace);
  const ConvProblem lowered = lower_backward_data(p, w, w_prime);
  winograd_nonfused_forward(lowered, dy, w_prime, dx, alpha, beta,
                            w_prime + p.w.count());
}

}  // namespace ucudnn::kernels
