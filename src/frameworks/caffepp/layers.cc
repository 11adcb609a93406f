#include "frameworks/caffepp/layers.h"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.h"
#include "gemm/gemm.h"

namespace ucudnn::caffepp {

namespace ops = frameworks::ops;

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
      ops::model_memory_op(*ctx.dev, 2.0 * top_->bytes());
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
  // In Virtual mode convolution ignores data pointers; ctx.diff() passes
  // null there, so a run that never touches memory allocates no diffs.
  const bool v = ctx.virtual_mode;
  // Parameter gradients (overwrite).
  ctx.handle.convolution(ConvKernelType::kBackwardFilter, problem_, 1.0f,
                         v ? nullptr : bottom_->data(), ctx.diff(top_), 0.0f,
                         ctx.diff(weights_.get()));
  if (bias_) {
    if (ctx.virtual_mode) {
      ops::model_memory_op(*ctx.dev, top_->bytes());
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
                           ctx.diff(top_), v ? nullptr : weights_->data(), 1.0f,
                           ctx.diff(bottom_));
  }
}

// ----------------------------------------------------------------- ReluLayer

void ReluLayer::forward(const LayerContext& ctx) {
  ops::relu_forward(ctx.target(), top_->count(), bottom_->data(),
                    top_->data());
}

void ReluLayer::backward(const LayerContext& ctx) {
  ops::relu_backward(ctx.target(), top_->count(), top_->data(),
                     ctx.diff(top_), ctx.diff(bottom_));
}

// ----------------------------------------------------------------- PoolLayer

PoolLayer::PoolLayer(const LayerContext& ctx, std::string name, Blob* bottom,
                     Blob* top, const ops::Pool& pool)
    : Layer(std::move(name)),
      bottom_(bottom),
      top_(top),
      pool_(pool),
      dev_(ctx.dev) {}

PoolLayer::~PoolLayer() { dev_->deallocate(argmax_); }

void PoolLayer::forward(const LayerContext& ctx) {
  if (!ctx.virtual_mode && pool_.mode == ops::PoolMode::kMax &&
      argmax_ == nullptr) {
    // Scratch is only needed on the numeric path; Virtual runs never touch
    // data, keeping the simulated device's footprint faithful to Caffe's.
    argmax_ = static_cast<std::int32_t*>(dev_->allocate(
        static_cast<std::size_t>(top_->count()) * sizeof(std::int32_t),
        name_ + ":aux"));
  }
  ops::pool_forward(ctx.target(), pool_, bottom_->shape(), top_->shape(),
                    bottom_->data(), top_->data(), argmax_);
}

void PoolLayer::backward(const LayerContext& ctx) {
  ops::pool_backward(ctx.target(), pool_, bottom_->shape(), top_->shape(),
                     ctx.diff(top_), argmax_, ctx.diff(bottom_));
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
    ops::model_memory_op(*ctx.dev,
                         3.0 * bottom_->bytes() * local_size_ / 2.0);
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
    ops::model_memory_op(*ctx.dev,
                         4.0 * bottom_->bytes() * local_size_ / 2.0);
    return;
  }
  const auto& s = bottom_->shape();
  const std::int64_t plane = s.h * s.w;
  const std::int64_t half = local_size_ / 2;
  const float factor = 2.0f * alpha_ * beta_ / static_cast<float>(local_size_);
  // diff() allocates lazily, so it is resolved before the workers run.
  const float* dy_base = top_->diff();
  float* dx_base = bottom_->diff();
  ThreadPool::global().parallel_for(
      s.n * plane, [&](std::int64_t begin, std::int64_t end, std::size_t) {
        for (std::int64_t np = begin; np < end; ++np) {
          const std::int64_t n = np / plane;
          const std::int64_t p = np % plane;
          const float* x = bottom_->data() + n * s.c * plane + p;
          const float* sc = scale_ + n * s.c * plane + p;
          const float* y = top_->data() + n * s.c * plane + p;
          const float* dy = dy_base + n * s.c * plane + p;
          float* dx = dx_base + n * s.c * plane + p;
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
    ops::model_gemm(*ctx.dev, 2.0 * n * in_features_ * out_features_,
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
    ops::model_gemm(
        *ctx.dev, 4.0 * n * in_features_ * out_features_,
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
  stats_ = static_cast<float*>(dev_->allocate(
      static_cast<std::size_t>(2 * c) * sizeof(float), name_ + ":aux"));
}

BatchNormLayer::~BatchNormLayer() { dev_->deallocate(stats_); }

void BatchNormLayer::init_params(std::mt19937& rng) {
  (void)rng;
  fill_constant(gamma_->data(), gamma_->count(), 1.0f);
  fill_constant(beta_->data(), beta_->count(), 0.0f);
}

std::vector<Blob*> BatchNormLayer::params() {
  return {gamma_.get(), beta_.get()};
}

void BatchNormLayer::forward(const LayerContext& ctx) {
  ops::batch_norm_forward(ctx.target(), bottom_->shape(), eps_,
                          bottom_->data(), gamma_->data(), beta_->data(),
                          stats_, top_->data());
}

void BatchNormLayer::backward(const LayerContext& ctx) {
  ops::batch_norm_backward(ctx.target(), bottom_->shape(), bottom_->data(),
                           gamma_->data(), stats_, ctx.diff(top_),
                           ctx.diff(bottom_), ctx.diff(gamma_.get()),
                           ctx.diff(beta_.get()));
}

// ------------------------------------------------------------ EltwiseSum etc

void EltwiseSumLayer::forward(const LayerContext& ctx) {
  ops::add_forward(ctx.target(), top_->count(), a_->data(), b_->data(),
                   top_->data());
}

void EltwiseSumLayer::backward(const LayerContext& ctx) {
  ops::add_backward(ctx.target(), top_->count(), ctx.diff(top_),
                    ctx.diff(a_), ctx.diff(b_));
}

void ConcatLayer::forward(const LayerContext& ctx) {
  std::vector<ops::ConcatPart> parts;
  for (Blob* bottom : bottoms_) {
    parts.push_back({bottom->data(), bottom->shape().c});
  }
  ops::concat_forward(ctx.target(), top_->shape(), parts, top_->data());
}

void ConcatLayer::backward(const LayerContext& ctx) {
  std::vector<ops::ConcatPart> parts;
  for (Blob* bottom : bottoms_) {
    parts.push_back({ctx.diff(bottom), bottom->shape().c});
  }
  ops::concat_backward(ctx.target(), top_->shape(), ctx.diff(top_), parts);
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
    ops::model_memory_op(*ctx.dev, 2.0 * top_->bytes());
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
    ops::model_memory_op(*ctx.dev, 2.0 * top_->bytes());
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
  if (!ctx.virtual_mode && prob_ == nullptr) {
    prob_ =
        static_cast<float*>(dev_->allocate(bottom_->bytes(), name_ + ":aux"));
  }
  const std::int64_t n = bottom_->shape().n;
  ops::softmax_xent_forward(ctx.target(), n, bottom_->count() / n,
                            bottom_->data(), prob_, loss_->data());
}

void SoftmaxLossLayer::backward(const LayerContext& ctx) {
  const std::int64_t n = bottom_->shape().n;
  ops::softmax_xent_backward(ctx.target(), n, bottom_->count() / n, prob_,
                             /*seed=*/1.0f, ctx.diff(bottom_));
}

}  // namespace ucudnn::caffepp
