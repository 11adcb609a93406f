#include "frameworks/ops.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/thread_pool.h"

namespace ucudnn::frameworks::ops {

namespace {

// Elementwise loops at or below this many elements run inline.
constexpr std::int64_t kElementwiseGrain = 1 << 14;

double bytes_of(std::int64_t count) {
  return static_cast<double>(static_cast<std::size_t>(count) * sizeof(float));
}

// The in-bounds part [h0, h1) x [w0, w1) of output (i, j)'s window.
struct Window {
  std::int64_t h0, h1, w0, w1;
};

Window window_at(const Pool& pool, const TensorShape& in, std::int64_t i,
                 std::int64_t j) {
  const std::int64_t h = i * pool.stride - pool.pad;
  const std::int64_t w = j * pool.stride - pool.pad;
  return {std::max<std::int64_t>(0, h), std::min(in.h, h + pool.window),
          std::max<std::int64_t>(0, w), std::min(in.w, w + pool.window)};
}

std::int64_t avg_divisor(const Pool& pool, const Window& win) {
  return pool.mode == PoolMode::kAvgValid
             ? (win.h1 - win.h0) * (win.w1 - win.w0)
             : pool.window * pool.window;
}

}  // namespace

void model_memory_op(device::Device& dev, double bytes) {
  const auto& spec = dev.spec();
  dev.advance_clock_ms(spec.kernel_overhead_us * 1e-3 +
                       bytes / (spec.mem_bandwidth_gbs * 1e9) * 1e3);
}

void model_gemm(device::Device& dev, double flops, double bytes) {
  const auto& spec = dev.spec();
  const double compute_ms = flops / (0.6 * spec.peak_sp_gflops * 1e9) * 1e3;
  const double memory_ms = bytes / (spec.mem_bandwidth_gbs * 1e9) * 1e3;
  dev.advance_clock_ms(spec.kernel_overhead_us * 1e-3 +
                       std::max(compute_ms, memory_ms));
}

// ---------------------------------------------------------------------- ReLU

void relu_forward(const Target& t, std::int64_t count, const float* x,
                  float* y) {
  if (t.virtual_mode) return model_memory_op(t.dev, 2.0 * bytes_of(count));
  ThreadPool::global().parallel_for(
      count,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) y[i] = std::max(0.0f, x[i]);
      },
      kElementwiseGrain);
}

void relu_backward(const Target& t, std::int64_t count, const float* y,
                   const float* dy, float* dx) {
  if (t.virtual_mode) return model_memory_op(t.dev, 3.0 * bytes_of(count));
  ThreadPool::global().parallel_for(
      count,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        if (dx == dy) {
          for (std::int64_t i = begin; i < end; ++i) {
            if (y[i] <= 0.0f) dx[i] = 0.0f;
          }
        } else {
          for (std::int64_t i = begin; i < end; ++i) {
            dx[i] += y[i] > 0.0f ? dy[i] : 0.0f;
          }
        }
      },
      kElementwiseGrain);
}

// ------------------------------------------------------------------- Pooling

std::int64_t pool_out_edge(std::int64_t in, std::int64_t window,
                           std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - window) / stride + 1;
}

void pool_forward(const Target& t, const Pool& pool, const TensorShape& in,
                  const TensorShape& out, const float* x, float* y,
                  std::int32_t* argmax) {
  if (t.virtual_mode) {
    return model_memory_op(t.dev, bytes_of(in.count()) + bytes_of(out.count()));
  }
  ThreadPool::global().parallel_for(
      out.n * out.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t nc = begin; nc < end; ++nc) {
          const float* xp = x + nc * in.h * in.w;
          for (std::int64_t i = 0; i < out.h; ++i) {
            for (std::int64_t j = 0; j < out.w; ++j) {
              const Window win = window_at(pool, in, i, j);
              const std::int64_t o = (nc * out.h + i) * out.w + j;
              if (pool.mode == PoolMode::kMax) {
                float best = -std::numeric_limits<float>::infinity();
                std::int32_t best_idx = 0;
                for (std::int64_t h = win.h0; h < win.h1; ++h) {
                  for (std::int64_t w = win.w0; w < win.w1; ++w) {
                    if (xp[h * in.w + w] > best) {
                      best = xp[h * in.w + w];
                      best_idx = static_cast<std::int32_t>(h * in.w + w);
                    }
                  }
                }
                y[o] = best;
                argmax[o] = best_idx;
              } else {
                double acc = 0.0;
                for (std::int64_t h = win.h0; h < win.h1; ++h) {
                  for (std::int64_t w = win.w0; w < win.w1; ++w) {
                    acc += xp[h * in.w + w];
                  }
                }
                y[o] = static_cast<float>(
                    acc / static_cast<double>(avg_divisor(pool, win)));
              }
            }
          }
        }
      });
}

void pool_backward(const Target& t, const Pool& pool, const TensorShape& in,
                   const TensorShape& out, const float* dy,
                   const std::int32_t* argmax, float* dx) {
  if (t.virtual_mode) {
    return model_memory_op(t.dev, bytes_of(in.count()) + bytes_of(out.count()));
  }
  const std::int64_t out_plane = out.h * out.w;
  ThreadPool::global().parallel_for(
      out.n * out.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t nc = begin; nc < end; ++nc) {
          float* dxp = dx + nc * in.h * in.w;
          const float* dyp = dy + nc * out_plane;
          if (pool.mode == PoolMode::kMax) {
            const std::int32_t* am = argmax + nc * out_plane;
            for (std::int64_t p = 0; p < out_plane; ++p) dxp[am[p]] += dyp[p];
            continue;
          }
          for (std::int64_t i = 0; i < out.h; ++i) {
            for (std::int64_t j = 0; j < out.w; ++j) {
              const Window win = window_at(pool, in, i, j);
              const float g = dyp[i * out.w + j] /
                              static_cast<float>(avg_divisor(pool, win));
              for (std::int64_t h = win.h0; h < win.h1; ++h) {
                for (std::int64_t w = win.w0; w < win.w1; ++w) {
                  dxp[h * in.w + w] += g;
                }
              }
            }
          }
        }
      });
}

// ---------------------------------------------------------------- Batch norm

void batch_norm_forward(const Target& t, const TensorShape& s, float eps,
                        const float* x, const float* gamma, const float* beta,
                        float* stats, float* y) {
  if (t.virtual_mode) return model_memory_op(t.dev, 4.0 * bytes_of(s.count()));
  const std::int64_t plane = s.h * s.w;
  const std::int64_t m = s.n * plane;
  float* mean = stats;
  float* inv_std = stats + s.c;
  ThreadPool::global().parallel_for(
      s.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t c = begin; c < end; ++c) {
          double sum = 0.0, sq = 0.0;
          for (std::int64_t n = 0; n < s.n; ++n) {
            const float* xc = x + (n * s.c + c) * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              sum += xc[p];
              sq += static_cast<double>(xc[p]) * xc[p];
            }
          }
          const double mu = sum / static_cast<double>(m);
          const double var = sq / static_cast<double>(m) - mu * mu;
          mean[c] = static_cast<float>(mu);
          inv_std[c] = static_cast<float>(1.0 / std::sqrt(var + eps));
          const float g = gamma == nullptr ? 1.0f : gamma[c];
          const float b = beta == nullptr ? 0.0f : beta[c];
          for (std::int64_t n = 0; n < s.n; ++n) {
            const float* xc = x + (n * s.c + c) * plane;
            float* yc = y + (n * s.c + c) * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              yc[p] = g * (xc[p] - mean[c]) * inv_std[c] + b;
            }
          }
        }
      });
}

void batch_norm_backward(const Target& t, const TensorShape& s,
                         const float* x, const float* gamma,
                         const float* stats, const float* dy, float* dx,
                         float* dgamma, float* dbeta) {
  if (t.virtual_mode) return model_memory_op(t.dev, 6.0 * bytes_of(s.count()));
  const std::int64_t plane = s.h * s.w;
  const std::int64_t m = s.n * plane;
  const float* mean = stats;
  const float* inv_std = stats + s.c;
  ThreadPool::global().parallel_for(
      s.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t c = begin; c < end; ++c) {
          const float g = gamma == nullptr ? 1.0f : gamma[c];
          const float mu = mean[c], is = inv_std[c];
          // First pass: the two reductions, which are also dgamma and dbeta.
          double dy_xhat = 0.0, dy_sum = 0.0;
          for (std::int64_t n = 0; n < s.n; ++n) {
            const float* xc = x + (n * s.c + c) * plane;
            const float* dyc = dy + (n * s.c + c) * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              const float xhat = (xc[p] - mu) * is;
              dy_xhat += static_cast<double>(dyc[p]) * xhat;
              dy_sum += dyc[p];
            }
          }
          if (gamma != nullptr) {
            dgamma[c] = static_cast<float>(dy_xhat);
            dbeta[c] = static_cast<float>(dy_sum);
          }
          // Second pass: dx += (g*is/m) * (m*dy - sum(dy) - xhat*sum(dy*xhat)).
          const float scale = g * is / static_cast<float>(m);
          for (std::int64_t n = 0; n < s.n; ++n) {
            const float* xc = x + (n * s.c + c) * plane;
            const float* dyc = dy + (n * s.c + c) * plane;
            float* dxc = dx + (n * s.c + c) * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              const float xhat = (xc[p] - mu) * is;
              dxc[p] += scale * (static_cast<float>(m) * dyc[p] -
                                 static_cast<float>(dy_sum) -
                                 xhat * static_cast<float>(dy_xhat));
            }
          }
        }
      });
}

// ----------------------------------------------------------------------- Add

void add_forward(const Target& t, std::int64_t count, const float* a,
                 const float* b, float* y) {
  if (t.virtual_mode) return model_memory_op(t.dev, 3.0 * bytes_of(count));
  ThreadPool::global().parallel_for(
      count,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) y[i] = a[i] + b[i];
      },
      kElementwiseGrain);
}

void add_backward(const Target& t, std::int64_t count, const float* dy,
                  float* da, float* db) {
  if (t.virtual_mode) return model_memory_op(t.dev, 3.0 * bytes_of(count));
  ThreadPool::global().parallel_for(
      count,
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) {
          da[i] += dy[i];
          db[i] += dy[i];
        }
      },
      kElementwiseGrain);
}

// -------------------------------------------------------------------- Concat

void concat_forward(const Target& t, const TensorShape& out,
                    std::span<const ConcatPart> parts, float* y) {
  if (t.virtual_mode) {
    return model_memory_op(t.dev, 2.0 * bytes_of(out.count()));
  }
  const std::int64_t plane = out.h * out.w;
  ThreadPool::global().parallel_for(
      out.n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t n = begin; n < end; ++n) {
          float* dst = y + n * out.c * plane;
          for (const ConcatPart& part : parts) {
            const std::int64_t len = part.channels * plane;
            const float* src = part.ptr + n * len;
            dst = std::copy(src, src + len, dst);
          }
        }
      });
}

void concat_backward(const Target& t, const TensorShape& out, const float* dy,
                     std::span<const ConcatPart> parts) {
  if (t.virtual_mode) {
    return model_memory_op(t.dev, 2.0 * bytes_of(out.count()));
  }
  const std::int64_t plane = out.h * out.w;
  ThreadPool::global().parallel_for(
      out.n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t n = begin; n < end; ++n) {
          const float* src = dy + n * out.c * plane;
          for (const ConcatPart& part : parts) {
            const std::int64_t len = part.channels * plane;
            float* dst = part.ptr + n * len;
            for (std::int64_t i = 0; i < len; ++i) dst[i] += src[i];
            src += len;
          }
        }
      });
}

// ----------------------------------------------------- Softmax cross-entropy

void softmax_xent_forward(const Target& t, std::int64_t n,
                          std::int64_t classes, const float* x, float* prob,
                          float* loss) {
  if (t.virtual_mode) {
    return model_memory_op(t.dev, 3.0 * bytes_of(n * classes));
  }
  double total = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* xi = x + i * classes;
    float* p = prob + i * classes;
    const float max_v = *std::max_element(xi, xi + classes);
    double sum = 0.0;
    for (std::int64_t c = 0; c < classes; ++c) {
      p[c] = std::exp(xi[c] - max_v);
      sum += p[c];
    }
    for (std::int64_t c = 0; c < classes; ++c) {
      p[c] = static_cast<float>(p[c] / sum);
    }
    total -= std::log(std::max(1e-12, static_cast<double>(p[i % classes])));
  }
  loss[0] = static_cast<float>(total / static_cast<double>(n));
}

void softmax_xent_backward(const Target& t, std::int64_t n,
                           std::int64_t classes, const float* prob,
                           float seed, float* dx) {
  if (t.virtual_mode) {
    return model_memory_op(t.dev, 2.0 * bytes_of(n * classes));
  }
  const float scale = seed / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* p = prob + i * classes;
    float* dxi = dx + i * classes;
    const std::int64_t label = i % classes;
    for (std::int64_t c = 0; c < classes; ++c) {
      dxi[c] += scale * (p[c] - (c == label ? 1.0f : 0.0f));
    }
  }
}

}  // namespace ucudnn::frameworks::ops
