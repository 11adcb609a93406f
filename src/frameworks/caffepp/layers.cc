#include "frameworks/caffepp/layers.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "gemm/gemm.h"

namespace ucudnn::caffepp {

namespace {

// He-style initialization scale for a fan-in.
float msra_std(std::int64_t fan_in) {
  return std::sqrt(2.0f / static_cast<float>(std::max<std::int64_t>(1, fan_in)));
}

void fill_normal(float* data, std::int64_t count, std::mt19937& rng,
                 float stddev) {
  std::normal_distribution<float> dist(0.0f, stddev);
  for (std::int64_t i = 0; i < count; ++i) data[i] = dist(rng);
}

}  // namespace

void LayerContext::model_memory_op(double bytes) const {
  if (!virtual_mode) return;
  const auto& spec = dev->spec();
  dev->advance_clock_ms(spec.kernel_overhead_us * 1e-3 +
                        bytes / (spec.mem_bandwidth_gbs * 1e9) * 1e3);
}

void LayerContext::model_gemm(double flops, double bytes) const {
  if (!virtual_mode) return;
  const auto& spec = dev->spec();
  const double compute_ms = flops / (0.6 * spec.peak_sp_gflops * 1e9) * 1e3;
  const double memory_ms = bytes / (spec.mem_bandwidth_gbs * 1e9) * 1e3;
  dev->advance_clock_ms(spec.kernel_overhead_us * 1e-3 +
                        std::max(compute_ms, memory_ms));
}

// ----------------------------------------------------------------- ConvLayer

ConvLayer::ConvLayer(const LayerContext& ctx, std::string name, Blob* bottom,
                     Blob* top, const FilterDesc& filter,
                     const ConvGeometry& geom, bool bias, std::size_t ws_limit)
    : Layer(std::move(name)),
      bottom_(bottom),
      top_(top),
      filter_(filter),
      geom_(geom),
      problem_(bottom->shape(), filter, geom) {
  check(problem_.y == top_->shape(), Status::kBadParam,
        "conv top shape mismatch for " + name_);
  weights_ = std::make_unique<Blob>(
      ctx.dev, name_ + ":param",
      TensorShape{filter_.k, filter_.c, filter_.r, filter_.s});
  if (bias) {
    bias_ = std::make_unique<Blob>(ctx.dev, name_ + ":param_bias",
                                   TensorShape{1, filter_.k, 1, 1});
  }
  // Announce all three kernels to μ-cuDNN exactly like Caffe does during net
  // setup, passing the framework's per-layer workspace limit.
  for (ConvKernelType type :
       {ConvKernelType::kForward, ConvKernelType::kBackwardData,
        ConvKernelType::kBackwardFilter}) {
    ctx.handle.set_next_kernel_label(name_);
    ctx.handle.get_algorithm(type, problem_,
                             mcudnn::AlgoPreference::kSpecifyWorkspaceLimit,
                             ws_limit);
  }
}

void ConvLayer::init_params(std::mt19937& rng) {
  fill_normal(weights_->data(), weights_->count(), rng,
              msra_std(filter_.c * filter_.r * filter_.s));
  if (bias_) fill_constant(bias_->data(), bias_->count(), 0.1f);
}

std::vector<Blob*> ConvLayer::params() {
  std::vector<Blob*> result{weights_.get()};
  if (bias_) result.push_back(bias_.get());
  return result;
}

void ConvLayer::forward(const LayerContext& ctx) {
  ctx.handle.convolution(ConvKernelType::kForward, problem_, 1.0f,
                         bottom_->data(), weights_->data(), 0.0f, top_->data());
  if (bias_) {
    if (ctx.virtual_mode) {
      ctx.model_memory_op(2.0 * top_->bytes());
    } else {
      const std::int64_t plane = problem_.y.h * problem_.y.w;
      ThreadPool::global().parallel_for(
          problem_.y.n * problem_.y.c,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t nk = begin; nk < end; ++nk) {
              const std::int64_t k = nk % problem_.y.c;
              float* out = top_->data() + nk * plane;
              const float b = bias_->data()[k];
              for (std::int64_t i = 0; i < plane; ++i) out[i] += b;
            }
          });
    }
  }
}

void ConvLayer::backward(const LayerContext& ctx) {
  // In Virtual mode convolution ignores data pointers; passing null avoids
  // forcing lazy diff allocation for a run that never touches memory.
  const bool v = ctx.virtual_mode;
  // Parameter gradients (overwrite).
  ctx.handle.convolution(ConvKernelType::kBackwardFilter, problem_, 1.0f,
                         v ? nullptr : bottom_->data(),
                         v ? nullptr : top_->diff(), 0.0f,
                         v ? nullptr : weights_->diff());
  if (bias_) {
    if (ctx.virtual_mode) {
      ctx.model_memory_op(top_->bytes());
    } else {
      // Parallel over channels; each channel keeps its serial n-then-i
      // double sum, so the result does not depend on the thread count.
      // diff() allocates lazily, so it is resolved before the workers run.
      const std::int64_t plane = problem_.y.h * problem_.y.w;
      const float* dy = top_->diff();
      float* dbias = bias_->diff();
      ThreadPool::global().parallel_for(
          problem_.y.c,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t k = begin; k < end; ++k) {
              double acc = 0.0;
              for (std::int64_t n = 0; n < problem_.y.n; ++n) {
                const float* dy_nk = dy + (n * problem_.y.c + k) * plane;
                for (std::int64_t i = 0; i < plane; ++i) acc += dy_nk[i];
              }
              dbias[k] = static_cast<float>(acc);
            }
          });
    }
  }
  // Data gradient (accumulate into the shared bottom diff).
  if (bottom_->has_diff()) {
    ctx.handle.convolution(ConvKernelType::kBackwardData, problem_, 1.0f,
                           v ? nullptr : top_->diff(),
                           v ? nullptr : weights_->data(), 1.0f,
                           v ? nullptr : bottom_->diff());
  }
}

// ----------------------------------------------------------------- ReluLayer

void ReluLayer::forward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(2.0 * top_->bytes());
    return;
  }
  const float* x = bottom_->data();
  float* y = top_->data();
  ThreadPool::global().parallel_for(
      bottom_->count(),
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) y[i] = std::max(0.0f, x[i]);
      },
      /*min_chunk=*/1 << 14);
}

void ReluLayer::backward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(3.0 * top_->bytes());
    return;
  }
  // Uses the OUTPUT sign so in-place operation (top == bottom) stays valid.
  const float* y = top_->data();
  const float* dy = top_->diff();
  float* dx = bottom_->diff();
  if (dx == dy) {  // in-place: mask the diff directly
    ThreadPool::global().parallel_for(
        bottom_->count(),
        [&](std::int64_t begin, std::int64_t end, std::size_t) {
          for (std::int64_t i = begin; i < end; ++i) {
            if (y[i] <= 0.0f) dx[i] = 0.0f;
          }
        },
        1 << 14);
  } else {
    ThreadPool::global().parallel_for(
        bottom_->count(),
        [&](std::int64_t begin, std::int64_t end, std::size_t) {
          for (std::int64_t i = begin; i < end; ++i) {
            dx[i] += y[i] > 0.0f ? dy[i] : 0.0f;
          }
        },
        1 << 14);
  }
}

// ----------------------------------------------------------------- PoolLayer

PoolLayer::PoolLayer(const LayerContext& ctx, std::string name, Blob* bottom,
                     Blob* top, PoolMode mode, std::int64_t window,
                     std::int64_t stride, std::int64_t pad)
    : Layer(std::move(name)),
      bottom_(bottom),
      top_(top),
      mode_(mode),
      window_(window),
      stride_(stride),
      pad_(pad),
      dev_(ctx.dev) {}

PoolLayer::~PoolLayer() { dev_->deallocate(argmax_); }

void PoolLayer::forward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(bottom_->bytes() + top_->bytes());
    return;
  }
  const auto& in = bottom_->shape();
  const auto& out = top_->shape();
  if (mode_ == PoolMode::kMax && argmax_ == nullptr) {
    // Scratch is only needed on the numeric path; Virtual runs never touch
    // data, keeping the simulated device's footprint faithful to Caffe's.
    argmax_ = static_cast<std::int32_t*>(dev_->allocate(
        static_cast<std::size_t>(top_->count()) * sizeof(std::int32_t),
        name_ + ":aux"));
  }
  ThreadPool::global().parallel_for(
      out.n * out.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t nc = begin; nc < end; ++nc) {
          const float* x = bottom_->data() + nc * in.h * in.w;
          float* y = top_->data() + nc * out.h * out.w;
          std::int32_t* am =
              argmax_ == nullptr ? nullptr : argmax_ + nc * out.h * out.w;
          for (std::int64_t i = 0; i < out.h; ++i) {
            for (std::int64_t j = 0; j < out.w; ++j) {
              const std::int64_t h0 =
                  std::max<std::int64_t>(0, i * stride_ - pad_);
              const std::int64_t w0 =
                  std::max<std::int64_t>(0, j * stride_ - pad_);
              const std::int64_t h1 =
                  std::min(in.h, i * stride_ - pad_ + window_);
              const std::int64_t w1 =
                  std::min(in.w, j * stride_ - pad_ + window_);
              if (mode_ == PoolMode::kMax) {
                float best = -std::numeric_limits<float>::infinity();
                std::int32_t best_idx = 0;
                for (std::int64_t h = h0; h < h1; ++h) {
                  for (std::int64_t w = w0; w < w1; ++w) {
                    const float v = x[h * in.w + w];
                    if (v > best) {
                      best = v;
                      best_idx = static_cast<std::int32_t>(h * in.w + w);
                    }
                  }
                }
                y[i * out.w + j] = best;
                am[i * out.w + j] = best_idx;
              } else {
                double acc = 0.0;
                for (std::int64_t h = h0; h < h1; ++h) {
                  for (std::int64_t w = w0; w < w1; ++w) acc += x[h * in.w + w];
                }
                // Caffe-style: divide by the full window area.
                y[i * out.w + j] = static_cast<float>(
                    acc / static_cast<double>(window_ * window_));
              }
            }
          }
        }
      });
}

void PoolLayer::backward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(bottom_->bytes() + top_->bytes());
    return;
  }
  const auto& in = bottom_->shape();
  const auto& out = top_->shape();
  ThreadPool::global().parallel_for(
      out.n * out.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t nc = begin; nc < end; ++nc) {
          float* dx = bottom_->diff() + nc * in.h * in.w;
          const float* dy = top_->diff() + nc * out.h * out.w;
          if (mode_ == PoolMode::kMax) {
            const std::int32_t* am = argmax_ + nc * out.h * out.w;
            for (std::int64_t p = 0; p < out.h * out.w; ++p) dx[am[p]] += dy[p];
          } else {
            const float scale = 1.0f / static_cast<float>(window_ * window_);
            for (std::int64_t i = 0; i < out.h; ++i) {
              for (std::int64_t j = 0; j < out.w; ++j) {
                const std::int64_t h0 =
                    std::max<std::int64_t>(0, i * stride_ - pad_);
                const std::int64_t w0 =
                    std::max<std::int64_t>(0, j * stride_ - pad_);
                const std::int64_t h1 =
                    std::min(in.h, i * stride_ - pad_ + window_);
                const std::int64_t w1 =
                    std::min(in.w, j * stride_ - pad_ + window_);
                const float g = dy[i * out.w + j] * scale;
                for (std::int64_t h = h0; h < h1; ++h) {
                  for (std::int64_t w = w0; w < w1; ++w) dx[h * in.w + w] += g;
                }
              }
            }
          }
        }
      });
}

// ------------------------------------------------------------------ LrnLayer

LrnLayer::LrnLayer(const LayerContext& ctx, std::string name, Blob* bottom,
                   Blob* top, std::int64_t local_size, float alpha, float beta,
                   float k)
    : Layer(std::move(name)),
      bottom_(bottom),
      top_(top),
      local_size_(local_size),
      alpha_(alpha),
      beta_(beta),
      k_(k),
      dev_(ctx.dev) {}

LrnLayer::~LrnLayer() { dev_->deallocate(scale_); }

void LrnLayer::forward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(3.0 * bottom_->bytes() * local_size_ / 2.0);
    return;
  }
  const auto& s = bottom_->shape();
  const std::int64_t plane = s.h * s.w;
  const std::int64_t half = local_size_ / 2;
  if (scale_ == nullptr) {
    scale_ = static_cast<float*>(
        dev_->allocate(bottom_->bytes(), name_ + ":aux"));
  }
  ThreadPool::global().parallel_for(
      s.n * plane, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t np = begin; np < end; ++np) {
          const std::int64_t n = np / plane;
          const std::int64_t p = np % plane;
          const float* x = bottom_->data() + n * s.c * plane + p;
          float* sc = scale_ + n * s.c * plane + p;
          float* y = top_->data() + n * s.c * plane + p;
          for (std::int64_t c = 0; c < s.c; ++c) {
            double acc = 0.0;
            const std::int64_t c0 = std::max<std::int64_t>(0, c - half);
            const std::int64_t c1 = std::min(s.c, c + half + 1);
            for (std::int64_t cc = c0; cc < c1; ++cc) {
              const float v = x[cc * plane];
              acc += static_cast<double>(v) * v;
            }
            const float scale_v =
                k_ + alpha_ / static_cast<float>(local_size_) *
                         static_cast<float>(acc);
            sc[c * plane] = scale_v;
            y[c * plane] = x[c * plane] * std::pow(scale_v, -beta_);
          }
        }
      });
}

void LrnLayer::backward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(4.0 * bottom_->bytes() * local_size_ / 2.0);
    return;
  }
  const auto& s = bottom_->shape();
  const std::int64_t plane = s.h * s.w;
  const std::int64_t half = local_size_ / 2;
  const float factor = 2.0f * alpha_ * beta_ / static_cast<float>(local_size_);
  ThreadPool::global().parallel_for(
      s.n * plane, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t np = begin; np < end; ++np) {
          const std::int64_t n = np / plane;
          const std::int64_t p = np % plane;
          const float* x = bottom_->data() + n * s.c * plane + p;
          const float* sc = scale_ + n * s.c * plane + p;
          const float* y = top_->data() + n * s.c * plane + p;
          const float* dy = top_->diff() + n * s.c * plane + p;
          float* dx = bottom_->diff() + n * s.c * plane + p;
          for (std::int64_t c = 0; c < s.c; ++c) {
            // dx_c += dy_c * scale_c^-beta
            //         - factor * x_c
            //           * sum_{j: c in window(j)} dy_j y_j / scale_j.
            double cross = 0.0;
            const std::int64_t j0 = std::max<std::int64_t>(0, c - half);
            const std::int64_t j1 = std::min(s.c, c + half + 1);
            for (std::int64_t j = j0; j < j1; ++j) {
              cross += static_cast<double>(dy[j * plane]) * y[j * plane] /
                       sc[j * plane];
            }
            dx[c * plane] += dy[c * plane] * std::pow(sc[c * plane], -beta_) -
                             factor * x[c * plane] * static_cast<float>(cross);
          }
        }
      });
}

// ------------------------------------------------------------------- FcLayer

FcLayer::FcLayer(const LayerContext& ctx, std::string name, Blob* bottom,
                 Blob* top, std::int64_t out_features, bool bias)
    : Layer(std::move(name)),
      bottom_(bottom),
      top_(top),
      in_features_(bottom->count() / bottom->shape().n),
      out_features_(out_features) {
  check(top_->shape().n == bottom_->shape().n &&
            top_->count() / top_->shape().n == out_features_,
        Status::kBadParam, "fc top shape mismatch for " + name_);
  weights_ = std::make_unique<Blob>(
      ctx.dev, name_ + ":param",
      TensorShape{out_features_, in_features_, 1, 1});
  if (bias) {
    bias_ = std::make_unique<Blob>(ctx.dev, name_ + ":param_bias",
                                   TensorShape{1, out_features_, 1, 1});
  }
}

void FcLayer::init_params(std::mt19937& rng) {
  fill_normal(weights_->data(), weights_->count(), rng, msra_std(in_features_));
  if (bias_) fill_constant(bias_->data(), bias_->count(), 0.1f);
}

std::vector<Blob*> FcLayer::params() {
  std::vector<Blob*> result{weights_.get()};
  if (bias_) result.push_back(bias_.get());
  return result;
}

void FcLayer::forward(const LayerContext& ctx) {
  const std::int64_t n = bottom_->shape().n;
  if (ctx.virtual_mode) {
    ctx.model_gemm(2.0 * n * in_features_ * out_features_,
                   bottom_->bytes() + weights_->bytes() + top_->bytes());
    return;
  }
  // y[N][out] = x[N][in] * Wᵀ[in][out] + b.
  gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kYes, n, out_features_,
              in_features_, 1.0f, bottom_->data(), in_features_,
              weights_->data(), in_features_, 0.0f, top_->data(),
              out_features_);
  if (bias_) {
    ThreadPool::global().parallel_for(
        n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
          for (std::int64_t i = begin; i < end; ++i) {
            float* y = top_->data() + i * out_features_;
            for (std::int64_t o = 0; o < out_features_; ++o) {
              y[o] += bias_->data()[o];
            }
          }
        });
  }
}

void FcLayer::backward(const LayerContext& ctx) {
  const std::int64_t n = bottom_->shape().n;
  if (ctx.virtual_mode) {
    ctx.model_gemm(4.0 * n * in_features_ * out_features_,
                   2.0 * (bottom_->bytes() + weights_->bytes() + top_->bytes()));
    return;
  }
  // dW[out][in] = dyᵀ[out][N] * x[N][in].
  gemm::sgemm(gemm::Trans::kYes, gemm::Trans::kNo, out_features_, in_features_,
              n, 1.0f, top_->diff(), out_features_, bottom_->data(),
              in_features_, 0.0f, weights_->diff(), in_features_);
  if (bias_) {
    for (std::int64_t o = 0; o < out_features_; ++o) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        acc += top_->diff()[i * out_features_ + o];
      }
      bias_->diff()[o] = static_cast<float>(acc);
    }
  }
  if (bottom_->has_diff()) {
    // dx[N][in] += dy[N][out] * W[out][in].
    gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, n, in_features_,
                out_features_, 1.0f, top_->diff(), out_features_,
                weights_->data(), in_features_, 1.0f, bottom_->diff(),
                in_features_);
  }
}

// ------------------------------------------------------------ BatchNormLayer

BatchNormLayer::BatchNormLayer(const LayerContext& ctx, std::string name,
                               Blob* bottom, Blob* top, float eps)
    : Layer(std::move(name)),
      bottom_(bottom),
      top_(top),
      eps_(eps),
      dev_(ctx.dev) {
  const std::int64_t c = bottom_->shape().c;
  gamma_ = std::make_unique<Blob>(ctx.dev, name_ + ":param",
                                  TensorShape{1, c, 1, 1});
  beta_ = std::make_unique<Blob>(ctx.dev, name_ + ":param_bias",
                                 TensorShape{1, c, 1, 1});
  mean_ = static_cast<float*>(
      dev_->allocate(static_cast<std::size_t>(c) * sizeof(float), name_ + ":aux"));
  inv_std_ = static_cast<float*>(
      dev_->allocate(static_cast<std::size_t>(c) * sizeof(float), name_ + ":aux"));
}

BatchNormLayer::~BatchNormLayer() {
  dev_->deallocate(mean_);
  dev_->deallocate(inv_std_);
}

void BatchNormLayer::init_params(std::mt19937& rng) {
  (void)rng;
  fill_constant(gamma_->data(), gamma_->count(), 1.0f);
  fill_constant(beta_->data(), beta_->count(), 0.0f);
}

std::vector<Blob*> BatchNormLayer::params() {
  return {gamma_.get(), beta_.get()};
}

void BatchNormLayer::forward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(4.0 * bottom_->bytes());
    return;
  }
  const auto& s = bottom_->shape();
  const std::int64_t plane = s.h * s.w;
  const std::int64_t m = s.n * plane;
  ThreadPool::global().parallel_for(
      s.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t c = begin; c < end; ++c) {
          double sum = 0.0, sq = 0.0;
          for (std::int64_t n = 0; n < s.n; ++n) {
            const float* x = bottom_->data() + (n * s.c + c) * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              sum += x[p];
              sq += static_cast<double>(x[p]) * x[p];
            }
          }
          const double mean = sum / static_cast<double>(m);
          const double var = sq / static_cast<double>(m) - mean * mean;
          mean_[c] = static_cast<float>(mean);
          inv_std_[c] = static_cast<float>(1.0 / std::sqrt(var + eps_));
          const float g = gamma_->data()[c], b = beta_->data()[c];
          for (std::int64_t n = 0; n < s.n; ++n) {
            const float* x = bottom_->data() + (n * s.c + c) * plane;
            float* y = top_->data() + (n * s.c + c) * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              y[p] = g * (x[p] - mean_[c]) * inv_std_[c] + b;
            }
          }
        }
      });
}

void BatchNormLayer::backward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(6.0 * bottom_->bytes());
    return;
  }
  const auto& s = bottom_->shape();
  const std::int64_t plane = s.h * s.w;
  const std::int64_t m = s.n * plane;
  ThreadPool::global().parallel_for(
      s.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t c = begin; c < end; ++c) {
          const float g = gamma_->data()[c];
          const float mu = mean_[c], is = inv_std_[c];
          // First pass: dgamma, dbeta, and the two reduction terms.
          double dgamma = 0.0, dbeta = 0.0;
          for (std::int64_t n = 0; n < s.n; ++n) {
            const float* x = bottom_->data() + (n * s.c + c) * plane;
            const float* dy = top_->diff() + (n * s.c + c) * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              const float xhat = (x[p] - mu) * is;
              dgamma += static_cast<double>(dy[p]) * xhat;
              dbeta += dy[p];
            }
          }
          gamma_->diff()[c] = static_cast<float>(dgamma);
          beta_->diff()[c] = static_cast<float>(dbeta);
          // Second pass: dx += (g*is/m) * (m*dy - dbeta - xhat*dgamma).
          const float scale = g * is / static_cast<float>(m);
          for (std::int64_t n = 0; n < s.n; ++n) {
            const float* x = bottom_->data() + (n * s.c + c) * plane;
            const float* dy = top_->diff() + (n * s.c + c) * plane;
            float* dx = bottom_->diff() + (n * s.c + c) * plane;
            for (std::int64_t p = 0; p < plane; ++p) {
              const float xhat = (x[p] - mu) * is;
              dx[p] += scale * (static_cast<float>(m) * dy[p] -
                                static_cast<float>(dbeta) -
                                xhat * static_cast<float>(dgamma));
            }
          }
        }
      });
}

// ------------------------------------------------------------ EltwiseSum etc

void EltwiseSumLayer::forward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(3.0 * top_->bytes());
    return;
  }
  const float* a = a_->data();
  const float* b = b_->data();
  float* y = top_->data();
  ThreadPool::global().parallel_for(
      top_->count(),
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) y[i] = a[i] + b[i];
      },
      1 << 14);
}

void EltwiseSumLayer::backward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(3.0 * top_->bytes());
    return;
  }
  const float* dy = top_->diff();
  float* da = a_->diff();
  float* db = b_->diff();
  ThreadPool::global().parallel_for(
      top_->count(),
      [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t i = begin; i < end; ++i) {
          da[i] += dy[i];
          db[i] += dy[i];
        }
      },
      1 << 14);
}

void ConcatLayer::forward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(2.0 * top_->bytes());
    return;
  }
  const auto& out = top_->shape();
  const std::int64_t plane = out.h * out.w;
  std::int64_t c_offset = 0;
  for (Blob* bottom : bottoms_) {
    const std::int64_t c = bottom->shape().c;
    ThreadPool::global().parallel_for(
        out.n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
          for (std::int64_t n = begin; n < end; ++n) {
            const float* src = bottom->data() + n * c * plane;
            float* dst = top_->data() + (n * out.c + c_offset) * plane;
            std::copy(src, src + c * plane, dst);
          }
        });
    c_offset += c;
  }
}

void ConcatLayer::backward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(2.0 * top_->bytes());
    return;
  }
  const auto& out = top_->shape();
  const std::int64_t plane = out.h * out.w;
  std::int64_t c_offset = 0;
  for (Blob* bottom : bottoms_) {
    const std::int64_t c = bottom->shape().c;
    ThreadPool::global().parallel_for(
        out.n, [&](std::int64_t begin, std::int64_t end, std::size_t) {
          for (std::int64_t n = begin; n < end; ++n) {
            const float* src = top_->diff() + (n * out.c + c_offset) * plane;
            float* dst = bottom->diff() + n * c * plane;
            for (std::int64_t i = 0; i < c * plane; ++i) dst[i] += src[i];
          }
        });
    c_offset += c;
  }
}

// -------------------------------------------------------------- DropoutLayer

DropoutLayer::DropoutLayer(const LayerContext& ctx, std::string name,
                           Blob* bottom, Blob* top, float ratio)
    : Layer(std::move(name)),
      bottom_(bottom),
      top_(top),
      ratio_(ratio),
      dev_(ctx.dev) {}

DropoutLayer::~DropoutLayer() { dev_->deallocate(mask_); }

void DropoutLayer::forward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(2.0 * top_->bytes());
    return;
  }
  if (mask_ == nullptr) {
    mask_ = static_cast<std::uint8_t*>(dev_->allocate(
        static_cast<std::size_t>(bottom_->count()), name_ + ":aux"));
  }
  std::mt19937 rng(static_cast<unsigned>(0x9E3779B9u + pass_++));
  std::bernoulli_distribution keep(1.0 - ratio_);
  const float scale = 1.0f / (1.0f - ratio_);
  const float* x = bottom_->data();
  float* y = top_->data();
  for (std::int64_t i = 0; i < bottom_->count(); ++i) {
    mask_[i] = keep(rng) ? 1 : 0;
    y[i] = mask_[i] ? x[i] * scale : 0.0f;
  }
}

void DropoutLayer::backward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(2.0 * top_->bytes());
    return;
  }
  const float scale = 1.0f / (1.0f - ratio_);
  const float* dy = top_->diff();
  float* dx = bottom_->diff();
  for (std::int64_t i = 0; i < bottom_->count(); ++i) {
    if (dx == dy) {
      if (!mask_[i]) dx[i] = 0.0f;  // in-place
    } else {
      dx[i] += mask_[i] ? dy[i] * scale : 0.0f;
    }
  }
}

// ---------------------------------------------------------- SoftmaxLossLayer

SoftmaxLossLayer::SoftmaxLossLayer(const LayerContext& ctx, std::string name,
                                   Blob* bottom, Blob* loss)
    : Layer(std::move(name)), bottom_(bottom), loss_(loss), dev_(ctx.dev) {}

SoftmaxLossLayer::~SoftmaxLossLayer() { dev_->deallocate(prob_); }

void SoftmaxLossLayer::forward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(3.0 * bottom_->bytes());
    return;
  }
  const std::int64_t n = bottom_->shape().n;
  const std::int64_t classes = bottom_->count() / n;
  if (prob_ == nullptr) {
    prob_ =
        static_cast<float*>(dev_->allocate(bottom_->bytes(), name_ + ":aux"));
  }
  double loss = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const float* x = bottom_->data() + i * classes;
    float* p = prob_ + i * classes;
    const float max_v = *std::max_element(x, x + classes);
    double sum = 0.0;
    for (std::int64_t c = 0; c < classes; ++c) {
      p[c] = std::exp(x[c] - max_v);
      sum += p[c];
    }
    for (std::int64_t c = 0; c < classes; ++c) {
      p[c] = static_cast<float>(p[c] / sum);
    }
    const std::int64_t label = i % classes;  // synthetic labels
    loss -= std::log(std::max(1e-12, static_cast<double>(p[label])));
  }
  loss_->data()[0] = static_cast<float>(loss / static_cast<double>(n));
}

void SoftmaxLossLayer::backward(const LayerContext& ctx) {
  if (ctx.virtual_mode) {
    ctx.model_memory_op(2.0 * bottom_->bytes());
    return;
  }
  const std::int64_t n = bottom_->shape().n;
  const std::int64_t classes = bottom_->count() / n;
  const float scale = 1.0f / static_cast<float>(n);
  for (std::int64_t i = 0; i < n; ++i) {
    const float* p = prob_ + i * classes;
    float* dx = bottom_->diff() + i * classes;
    const std::int64_t label = i % classes;
    for (std::int64_t c = 0; c < classes; ++c) {
      dx[c] += scale * (p[c] - (c == label ? 1.0f : 0.0f));
    }
  }
}

}  // namespace ucudnn::caffepp
