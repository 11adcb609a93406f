#include "kernels/fft_conv.h"

#include <algorithm>
#include <cstring>

#include "common/status.h"
#include "common/thread_pool.h"
#include "fft/fft.h"

namespace ucudnn::kernels {

namespace {

using fft::Complex;

// Input channels are processed in chunks of this size, so the workspace
// holds only a slice of the filter/input spectra at a time (the output
// spectrum must stay resident for accumulation). Combined with Hermitian
// half-spectrum storage this keeps FFT workspace ~linear in the
// (micro-)batch size — the property micro-batching exploits.
constexpr std::int64_t kChannelChunk = 8;

// A stride-1 cross-correlation with integer (possibly negative) padding:
//   dst[n, co, i, j] =
//     sum_{cs, r, s} src[n, cs, i + r - pad_h, j + s - pad_w] * flt[co, cs, r, s]
// (zero outside the source). Forward convolution and BackwardData both lower
// to this form; `filter_ckrs`/`flip` describe how to read the filter tensor.
struct CorrSpec {
  std::int64_t n;
  std::int64_t cs;
  std::int64_t co;
  std::int64_t hs, ws;
  std::int64_t ho, wo;
  std::int64_t r, s;
  std::int64_t pad_h, pad_w;
  bool filter_ckrs;  // filter storage is [cs][co][R][S] instead of [co][cs][R][S]
  bool flip;         // flip the window spatially when loading the filter
};

CorrSpec forward_spec(const ConvProblem& p) {
  return CorrSpec{p.x.n, p.x.c,          p.w.k,
                  p.x.h, p.x.w,          p.y.h,
                  p.y.w, p.w.r,          p.w.s,
                  p.geom.pad_h,          p.geom.pad_w,
                  false, p.geom.mode == ConvMode::kConvolution};
}

CorrSpec backward_data_spec(const ConvProblem& p) {
  return CorrSpec{p.x.n, p.w.k,          p.x.c,
                  p.y.h, p.y.w,          p.x.h,
                  p.x.w, p.w.r,          p.w.s,
                  p.w.r - 1 - p.geom.pad_h, p.w.s - 1 - p.geom.pad_w,
                  true,  p.geom.mode == ConvMode::kCrossCorrelation};
}

inline float load_filter(const CorrSpec& c, const float* flt, std::int64_t co,
                         std::int64_t cs, std::int64_t r, std::int64_t s) {
  const std::int64_t rr = c.flip ? c.r - 1 - r : r;
  const std::int64_t ss = c.flip ? c.s - 1 - s : s;
  const std::int64_t idx = c.filter_ckrs
                               ? ((cs * c.co + co) * c.r + rr) * c.s + ss
                               : ((co * c.cs + cs) * c.r + rr) * c.s + ss;
  return flt[idx];
}

// 2-D transform plan with Hermitian half-spectrum packing along the width.
struct FftPlan {
  std::int64_t fh = 0, fw = 0;  // full transform dims
  std::int64_t half_w() const noexcept { return fw / 2 + 1; }
  std::int64_t cells() const noexcept { return fh * half_w(); }       // packed
  std::int64_t full_cells() const noexcept { return fh * fw; }        // scratch
};

// Padded transform edges: the source is placed at offset u = max(0, pad);
// correlation is evaluated at p = i + u - pad.
std::int64_t plan_edge(std::int64_t src, std::int64_t dst, std::int64_t window,
                       std::int64_t pad) {
  const std::int64_t u = std::max<std::int64_t>(0, pad);
  return static_cast<std::int64_t>(next_pow2(static_cast<std::size_t>(
      std::max(u + src, dst + u - pad + window - 1))));
}

FftPlan corr_plan(const CorrSpec& c) {
  return FftPlan{plan_edge(c.hs, c.ho, c.r, c.pad_h),
                 plan_edge(c.ws, c.wo, c.s, c.pad_w)};
}

// Forward transform of `scratch` (a zero-filled full plane the caller has
// populated), packed into `half`.
void r2c(const FftPlan& plan, Complex* scratch, Complex* half) {
  fft::fft2d(scratch, static_cast<std::size_t>(plan.fh),
             static_cast<std::size_t>(plan.fw), false);
  const std::int64_t hw = plan.half_w();
  for (std::int64_t u = 0; u < plan.fh; ++u) {
    std::copy(scratch + u * plan.fw, scratch + u * plan.fw + hw,
              half + u * hw);
  }
}

// Unpacks `half` into `scratch` using the 2-D Hermitian symmetry
// X[(F-u)%F, F-v] = conj(X[u, v]) of a real signal's spectrum, then inverse
// transforms. Valid whenever `half` is a pointwise product/sum of spectra of
// real signals (products of Hermitian spectra stay Hermitian).
void c2r(const FftPlan& plan, const Complex* half, Complex* scratch) {
  const std::int64_t hw = plan.half_w();
  for (std::int64_t u = 0; u < plan.fh; ++u) {
    std::copy(half + u * hw, half + u * hw + hw, scratch + u * plan.fw);
  }
  for (std::int64_t u = 0; u < plan.fh; ++u) {
    Complex* row = scratch + u * plan.fw;
    const Complex* mirror =
        scratch + ((plan.fh - u) % plan.fh) * plan.fw;
    for (std::int64_t v = hw; v < plan.fw; ++v) {
      row[v] = std::conj(mirror[plan.fw - v]);
    }
  }
  fft::fft2d(scratch, static_cast<std::size_t>(plan.fh),
             static_cast<std::size_t>(plan.fw), true);
}

std::size_t corr_workspace(const CorrSpec& c, const FftPlan& plan) {
  const std::int64_t cb = std::min(c.cs, kChannelChunk);
  const std::size_t threads = ThreadPool::global().num_threads();
  const std::size_t packed = static_cast<std::size_t>(plan.cells());
  return (static_cast<std::size_t>(c.co * cb + c.n * cb + c.n * c.co) * packed +
          threads * static_cast<std::size_t>(plan.full_cells())) *
         sizeof(Complex);
}

// Core FFT correlation: channel-chunked, half-spectrum, tile-aware.
// `tile` selects an output tile (i0/j0/th/tw); pass the full output for the
// non-tiled algorithm.
struct TileRect {
  std::int64_t i0, j0, th, tw;
};

void corr_fft_tile(const CorrSpec& c, const FftPlan& plan, const TileRect& t,
                   const float* src, const float* flt, float* dst, float alpha,
                   float beta, Complex* flt_freq, Complex* src_freq,
                   Complex* dst_freq, Complex* scratch_base) {
  const std::int64_t cells = plan.cells();
  const std::int64_t full = plan.full_cells();
  const std::int64_t hw = plan.half_w();
  const std::int64_t cb_max = std::min(c.cs, kChannelChunk);
  // Source patch origin for this tile (may be negative).
  const std::int64_t si0 = t.i0 - c.pad_h;
  const std::int64_t sj0 = t.j0 - c.pad_w;
  const std::int64_t ph = t.th + c.r - 1;
  const std::int64_t pw = t.tw + c.s - 1;

  // Zero the resident output spectra.
  ThreadPool::global().parallel_for(
      c.n * c.co, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t idx = begin; idx < end; ++idx) {
          std::fill(dst_freq + idx * cells, dst_freq + (idx + 1) * cells,
                    Complex(0, 0));
        }
      });

  for (std::int64_t c0 = 0; c0 < c.cs; c0 += cb_max) {
    const std::int64_t cb = std::min(cb_max, c.cs - c0);

    // Filter chunk transforms: flt_freq[co][local c].
    ThreadPool::global().parallel_for(
        c.co * cb, [&](std::int64_t begin, std::int64_t end, std::size_t w) {
          Complex* scratch = scratch_base + static_cast<std::int64_t>(w) * full;
          for (std::int64_t idx = begin; idx < end; ++idx) {
            const std::int64_t co = idx / cb;
            const std::int64_t lc = idx % cb;
            std::fill(scratch, scratch + full, Complex(0, 0));
            for (std::int64_t r = 0; r < c.r; ++r) {
              for (std::int64_t s = 0; s < c.s; ++s) {
                scratch[r * plan.fw + s] =
                    Complex(load_filter(c, flt, co, c0 + lc, r, s), 0.0f);
              }
            }
            r2c(plan, scratch, flt_freq + idx * cells);
          }
        });

    // Source chunk transforms: src_freq[n][local c], patch at origin.
    ThreadPool::global().parallel_for(
        c.n * cb, [&](std::int64_t begin, std::int64_t end, std::size_t w) {
          Complex* scratch = scratch_base + static_cast<std::int64_t>(w) * full;
          for (std::int64_t idx = begin; idx < end; ++idx) {
            const std::int64_t n = idx / cb;
            const std::int64_t lc = idx % cb;
            std::fill(scratch, scratch + full, Complex(0, 0));
            const float* plane =
                src + (n * c.cs + (c0 + lc)) * c.hs * c.ws;
            for (std::int64_t a = 0; a < ph; ++a) {
              const std::int64_t ih = si0 + a;
              if (ih < 0 || ih >= c.hs) continue;
              const float* src_row = plane + ih * c.ws;
              Complex* row = scratch + a * plan.fw;
              for (std::int64_t b = 0; b < pw; ++b) {
                const std::int64_t iw = sj0 + b;
                if (iw >= 0 && iw < c.ws) row[b] = Complex(src_row[iw], 0.0f);
              }
            }
            r2c(plan, scratch, src_freq + idx * cells);
          }
        });

    // Frequency-domain accumulation: dst += SRC .* conj(FLT).
    ThreadPool::global().parallel_for(
        c.n * c.co, [&](std::int64_t begin, std::int64_t end, std::size_t) {
          for (std::int64_t idx = begin; idx < end; ++idx) {
            const std::int64_t n = idx / c.co;
            const std::int64_t co = idx % c.co;
            Complex* out = dst_freq + idx * cells;
            for (std::int64_t lc = 0; lc < cb; ++lc) {
              fft::multiply_conj_accumulate(
                  src_freq + (n * cb + lc) * cells,
                  flt_freq + (co * cb + lc) * cells, out,
                  static_cast<std::size_t>(cells));
            }
          }
        });
  }

  // Inverse transforms and scatter.
  (void)hw;
  ThreadPool::global().parallel_for(
      c.n * c.co, [&](std::int64_t begin, std::int64_t end, std::size_t w) {
        Complex* scratch = scratch_base + static_cast<std::int64_t>(w) * full;
        for (std::int64_t idx = begin; idx < end; ++idx) {
          c2r(plan, dst_freq + idx * cells, scratch);
          float* out = dst + idx * c.ho * c.wo;
          // Correlation value for output (i, j) sits at scratch position
          // (i - t.i0, j - t.j0) within the tile (source placed at origin of
          // the patch, so p = local output index).
          for (std::int64_t i = 0; i < t.th; ++i) {
            const Complex* row = scratch + i * plan.fw;
            float* out_row = out + (t.i0 + i) * c.wo + t.j0;
            for (std::int64_t j = 0; j < t.tw; ++j) {
              const float value = alpha * row[j].real();
              out_row[j] = value + (beta == 0.0f ? 0.0f : beta * out_row[j]);
            }
          }
        }
      });
}

void corr_fft(const CorrSpec& c, const float* src, const float* flt,
              float* dst, float alpha, float beta, void* workspace) {
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "FFT conv requires workspace");
  }
  const FftPlan plan = corr_plan(c);
  const std::int64_t cells = plan.cells();
  const std::int64_t cb = std::min(c.cs, kChannelChunk);

  auto* flt_freq = static_cast<Complex*>(workspace);
  Complex* src_freq = flt_freq + c.co * cb * cells;
  Complex* dst_freq = src_freq + c.n * cb * cells;
  Complex* scratch = dst_freq + c.n * c.co * cells;

  // One "tile" covering the whole output. The full-image plan places the
  // source at offset u = max(0, pad) and evaluates at p = i + u - pad; using
  // the tile machinery with i0 = j0 = 0 reproduces exactly that placement
  // (patch origin = -pad).
  corr_fft_tile(c, plan, TileRect{0, 0, c.ho, c.wo}, src, flt, dst, alpha,
                beta, flt_freq, src_freq, dst_freq, scratch);
}

// ------------------------------ tiling -------------------------------------

// Fixed 32x32 FFT tiles (64x64 for windows over 17), as in cuDNN.
std::int64_t tiling_fft_edge(const CorrSpec& c) {
  return std::max(c.r, c.s) <= 17 ? 32 : 64;
}

FftPlan tiling_plan(const CorrSpec& c) {
  const std::int64_t fe = tiling_fft_edge(c);
  return FftPlan{fe, fe};
}

void corr_fft_tiling(const CorrSpec& c, const float* src, const float* flt,
                     float* dst, float alpha, float beta, void* workspace) {
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "FFT tiling conv requires workspace");
  }
  const FftPlan plan = tiling_plan(c);
  const std::int64_t cells = plan.cells();
  const std::int64_t cb = std::min(c.cs, kChannelChunk);
  const std::int64_t t_h = plan.fh - c.r + 1;
  const std::int64_t t_w = plan.fw - c.s + 1;

  auto* flt_freq = static_cast<Complex*>(workspace);
  Complex* src_freq = flt_freq + c.co * cb * cells;
  Complex* dst_freq = src_freq + c.n * cb * cells;
  Complex* scratch = dst_freq + c.n * c.co * cells;

  for (std::int64_t i0 = 0; i0 < c.ho; i0 += t_h) {
    const std::int64_t th = std::min(t_h, c.ho - i0);
    for (std::int64_t j0 = 0; j0 < c.wo; j0 += t_w) {
      const std::int64_t tw = std::min(t_w, c.wo - j0);
      corr_fft_tile(c, plan, TileRect{i0, j0, th, tw}, src, flt, dst, alpha,
                    beta, flt_freq, src_freq, dst_freq, scratch);
    }
  }
}

}  // namespace

bool fft_supported(const ConvProblem& p) noexcept {
  return p.is_unit_stride() && p.is_unit_dilation();
}

bool fft_tiling_supported(const ConvProblem& p) noexcept {
  return fft_supported(p) && p.w.r <= 32 && p.w.s <= 32;
}

std::int64_t fft_plan_edge_h(const ConvProblem& p) noexcept {
  return corr_plan(forward_spec(p)).fh;
}
std::int64_t fft_plan_edge_w(const ConvProblem& p) noexcept {
  return corr_plan(forward_spec(p)).fw;
}
std::int64_t fft_tile_edge(const ConvProblem& p) noexcept {
  return tiling_fft_edge(forward_spec(p));
}

std::size_t fft_fwd_workspace(const ConvProblem& p) {
  const CorrSpec c = forward_spec(p);
  return corr_workspace(c, corr_plan(c));
}

void fft_forward(const ConvProblem& p, const float* x, const float* w,
                 float* y, float alpha, float beta, void* workspace) {
  if (!fft_supported(p)) {
    throw Error(Status::kNotSupported,
                "FFT forward requires unit stride/dilation");
  }
  corr_fft(forward_spec(p), x, w, y, alpha, beta, workspace);
}

std::size_t fft_bwd_data_workspace(const ConvProblem& p) {
  const CorrSpec c = backward_data_spec(p);
  return corr_workspace(c, corr_plan(c));
}

void fft_backward_data(const ConvProblem& p, const float* dy, const float* w,
                       float* dx, float alpha, float beta, void* workspace) {
  if (!fft_supported(p)) {
    throw Error(Status::kNotSupported,
                "FFT backward-data requires unit stride/dilation");
  }
  corr_fft(backward_data_spec(p), dy, w, dx, alpha, beta, workspace);
}

std::size_t fft_tiling_fwd_workspace(const ConvProblem& p) {
  const CorrSpec c = forward_spec(p);
  return corr_workspace(c, tiling_plan(c));
}

void fft_tiling_forward(const ConvProblem& p, const float* x, const float* w,
                        float* y, float alpha, float beta, void* workspace) {
  if (!fft_tiling_supported(p)) {
    throw Error(Status::kNotSupported,
                "FFT tiling forward requires unit stride/dilation "
                "and window <= 32");
  }
  corr_fft_tiling(forward_spec(p), x, w, y, alpha, beta, workspace);
}

std::size_t fft_tiling_bwd_data_workspace(const ConvProblem& p) {
  const CorrSpec c = backward_data_spec(p);
  return corr_workspace(c, tiling_plan(c));
}

void fft_tiling_backward_data(const ConvProblem& p, const float* dy,
                              const float* w, float* dx, float alpha,
                              float beta, void* workspace) {
  if (!fft_tiling_supported(p)) {
    throw Error(Status::kNotSupported,
                "FFT tiling backward-data requires unit "
                "stride/dilation, window <= 32");
  }
  corr_fft_tiling(backward_data_spec(p), dy, w, dx, alpha, beta, workspace);
}

// ------------------------- BackwardFilter ----------------------------------

namespace {

FftPlan bwd_filter_plan(const ConvProblem& p) {
  return FftPlan{
      static_cast<std::int64_t>(next_pow2(static_cast<std::size_t>(
          std::max(p.geom.pad_h + p.x.h, p.w.r - 1 + p.y.h)))),
      static_cast<std::int64_t>(next_pow2(static_cast<std::size_t>(
          std::max(p.geom.pad_w + p.x.w, p.w.s - 1 + p.y.w))))};
}

}  // namespace

std::size_t fft_bwd_filter_workspace(const ConvProblem& p) {
  const FftPlan plan = bwd_filter_plan(p);
  const std::size_t threads = ThreadPool::global().num_threads();
  return (static_cast<std::size_t>(p.x.n * (p.x.c + p.y.c)) *
              static_cast<std::size_t>(plan.cells()) +
          threads * static_cast<std::size_t>(plan.cells()) +  // accumulators
          threads * static_cast<std::size_t>(plan.full_cells())) *
         sizeof(Complex);
}

void fft_backward_filter(const ConvProblem& p, const float* x, const float* dy,
                         float* dw, float alpha, float beta, void* workspace) {
  if (!fft_supported(p)) {
    throw Error(Status::kNotSupported,
                "FFT backward-filter requires unit stride/dilation");
  }
  if (workspace == nullptr) {
    throw Error(Status::kBadParam, "FFT conv requires workspace");
  }
  const FftPlan plan = bwd_filter_plan(p);
  const std::int64_t cells = plan.cells();
  const std::int64_t full = plan.full_cells();
  const std::size_t threads = ThreadPool::global().num_threads();

  auto* x_freq = static_cast<Complex*>(workspace);
  Complex* dy_freq = x_freq + p.x.n * p.x.c * cells;
  Complex* acc_base = dy_freq + p.x.n * p.y.c * cells;
  Complex* scratch_base = acc_base + static_cast<std::int64_t>(threads) * cells;

  // X transforms, placed at offset (pad_h, pad_w).
  ThreadPool::global().parallel_for(
      p.x.n * p.x.c, [&](std::int64_t begin, std::int64_t end, std::size_t w) {
        Complex* scratch = scratch_base + static_cast<std::int64_t>(w) * full;
        for (std::int64_t idx = begin; idx < end; ++idx) {
          std::fill(scratch, scratch + full, Complex(0, 0));
          const float* plane = x + idx * p.x.h * p.x.w;
          for (std::int64_t i = 0; i < p.x.h; ++i) {
            Complex* row =
                scratch + (i + p.geom.pad_h) * plan.fw + p.geom.pad_w;
            const float* src_row = plane + i * p.x.w;
            for (std::int64_t j = 0; j < p.x.w; ++j) {
              row[j] = Complex(src_row[j], 0.0f);
            }
          }
          r2c(plan, scratch, x_freq + idx * cells);
        }
      });

  // dy transforms at the origin.
  ThreadPool::global().parallel_for(
      p.x.n * p.y.c, [&](std::int64_t begin, std::int64_t end, std::size_t w) {
        Complex* scratch = scratch_base + static_cast<std::int64_t>(w) * full;
        for (std::int64_t idx = begin; idx < end; ++idx) {
          std::fill(scratch, scratch + full, Complex(0, 0));
          const float* plane = dy + idx * p.y.h * p.y.w;
          for (std::int64_t i = 0; i < p.y.h; ++i) {
            Complex* row = scratch + i * plan.fw;
            const float* src_row = plane + i * p.y.w;
            for (std::int64_t j = 0; j < p.y.w; ++j) {
              row[j] = Complex(src_row[j], 0.0f);
            }
          }
          r2c(plan, scratch, dy_freq + idx * cells);
        }
      });

  // dw[k, c, r, s] = IFFT( sum_n X[n,c] .* conj(DY[n,k]) )[r, s].
  const bool flip = p.geom.mode == ConvMode::kConvolution;
  ThreadPool::global().parallel_for(
      p.w.k * p.w.c,
      [&](std::int64_t begin, std::int64_t end, std::size_t w) {
        Complex* acc = acc_base + static_cast<std::int64_t>(w) * cells;
        Complex* scratch = scratch_base + static_cast<std::int64_t>(w) * full;
        for (std::int64_t idx = begin; idx < end; ++idx) {
          const std::int64_t k = idx / p.w.c;
          const std::int64_t c = idx % p.w.c;
          std::fill(acc, acc + cells, Complex(0, 0));
          for (std::int64_t n = 0; n < p.x.n; ++n) {
            fft::multiply_conj_accumulate(x_freq + (n * p.x.c + c) * cells,
                                          dy_freq + (n * p.y.c + k) * cells,
                                          acc, static_cast<std::size_t>(cells));
          }
          c2r(plan, acc, scratch);
          for (std::int64_t r = 0; r < p.w.r; ++r) {
            for (std::int64_t s = 0; s < p.w.s; ++s) {
              const std::int64_t rr = flip ? p.w.r - 1 - r : r;
              const std::int64_t ss = flip ? p.w.s - 1 - s : s;
              float& out = dw[p.w.offset(k, c, r, s)];
              const float value = alpha * scratch[rr * plan.fw + ss].real();
              out = value + (beta == 0.0f ? 0.0f : beta * out);
            }
          }
        }
      });
}

}  // namespace ucudnn::kernels
