#include "frameworks/tfmini/tfmini.h"

#include <algorithm>
#include <map>
#include <cmath>
#include <random>

#include "common/thread_pool.h"
#include "common/timer.h"
#include "gemm/gemm.h"
#include "telemetry/trace.h"

namespace ucudnn::tfmini {

namespace {

std::int64_t pool_out(std::int64_t in, std::int64_t window, std::int64_t stride,
                      std::int64_t pad) {
  return (in + 2 * pad - window) / stride + 1;
}

}  // namespace

std::int64_t Graph::same_pad(std::int64_t in, std::int64_t window,
                             std::int64_t stride) {
  const std::int64_t out = (in + stride - 1) / stride;  // ceil
  const std::int64_t total =
      std::max<std::int64_t>(0, (out - 1) * stride + window - in);
  return (total + 1) / 2;  // round asymmetric TF padding up to symmetric
}

int Graph::add_op(Op op) {
  check_param(by_name_.find(op.name) == by_name_.end(),
              "duplicate op name: " + op.name);
  for (int input : op.inputs) {
    check_param(input >= 0 && input < static_cast<int>(ops_.size()),
                "bad input index for op " + op.name);
  }
  const int index = static_cast<int>(ops_.size());
  by_name_.emplace(op.name, index);
  ops_.push_back(std::move(op));
  return index;
}

int Graph::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  check(it != by_name_.end(), Status::kBadParam, "unknown op: " + name);
  return it->second;
}

namespace {

// Aggregate helper: value-initializes every field, then the caller fills in
// what it needs (avoids -Wmissing-field-initializers on designated inits).
Op make_op(OpType type, std::string name, std::vector<int> inputs,
           const TensorShape& shape) {
  Op op{};
  op.type = type;
  op.name = std::move(name);
  op.inputs = std::move(inputs);
  op.shape = shape;
  return op;
}

}  // namespace

int Graph::placeholder(const std::string& name, const TensorShape& shape) {
  return add_op(make_op(OpType::kPlaceholder, name, {}, shape));
}

int Graph::variable(const std::string& name, const TensorShape& shape) {
  return add_op(make_op(OpType::kVariable, name, {}, shape));
}

int Graph::conv2d(const std::string& name, int input, int filters,
                  std::int64_t stride, Padding padding) {
  const Op& in = op(input);
  const Op& w = op(filters);
  check_param(w.type == OpType::kVariable, "conv2d filters must be a variable");
  const FilterDesc filter{w.shape.n, w.shape.c, w.shape.h, w.shape.w};
  ConvGeometry geom;
  geom.stride_h = geom.stride_w = stride;
  if (padding == Padding::kSame) {
    geom.pad_h = same_pad(in.shape.h, filter.r, stride);
    geom.pad_w = same_pad(in.shape.w, filter.s, stride);
  }
  Op result = make_op(OpType::kConv2d, name, {input, filters},
                      geom.output_shape(in.shape, filter));
  result.filter = filter;
  result.geom = geom;
  return add_op(std::move(result));
}

int Graph::relu(const std::string& name, int input) {
  return add_op(make_op(OpType::kRelu, name, {input}, op(input).shape));
}

int Graph::max_pool(const std::string& name, int input, std::int64_t window,
                    std::int64_t stride, Padding padding) {
  const Op& in = op(input);
  const std::int64_t pad =
      padding == Padding::kSame ? same_pad(in.shape.h, window, stride) : 0;
  Op result = make_op(OpType::kMaxPool, name, {input},
                      {in.shape.n, in.shape.c,
                       pool_out(in.shape.h, window, stride, pad),
                       pool_out(in.shape.w, window, stride, pad)});
  result.window = window;
  result.stride = stride;
  result.pad = pad;
  return add_op(std::move(result));
}

int Graph::avg_pool(const std::string& name, int input, std::int64_t window,
                    std::int64_t stride, Padding padding) {
  Op result = op(max_pool(name + "__tmp", input, window, stride, padding));
  ops_.pop_back();
  by_name_.erase(name + "__tmp");
  result.type = OpType::kAvgPool;
  result.name = name;
  return add_op(std::move(result));
}

int Graph::matmul(const std::string& name, int input, int weights) {
  const Op& in = op(input);
  const Op& w = op(weights);
  check_param(w.type == OpType::kVariable, "matmul weights must be a variable");
  const std::int64_t in_features = in.shape.count() / in.shape.n;
  check_param(w.shape.c == in_features,
              "matmul weight shape mismatch for " + name);
  Op result = make_op(OpType::kMatMul, name, {input, weights},
                      {in.shape.n, w.shape.n, 1, 1});
  result.units = w.shape.n;
  return add_op(std::move(result));
}

int Graph::batch_norm(const std::string& name, int input) {
  return add_op(make_op(OpType::kBatchNorm, name, {input}, op(input).shape));
}

int Graph::add(const std::string& name, int a, int b) {
  check_param(op(a).shape == op(b).shape, "add shape mismatch for " + name);
  return add_op(make_op(OpType::kAdd, name, {a, b}, op(a).shape));
}

int Graph::concat(const std::string& name, const std::vector<int>& inputs) {
  check_param(!inputs.empty(), "concat needs inputs");
  TensorShape shape = op(inputs[0]).shape;
  for (std::size_t i = 1; i < inputs.size(); ++i) {
    const TensorShape& s = op(inputs[i]).shape;
    check_param(s.n == shape.n && s.h == shape.h && s.w == shape.w,
                "concat spatial mismatch for " + name);
    shape.c += s.c;
  }
  return add_op(make_op(OpType::kConcat, name, inputs, shape));
}

int Graph::softmax_xent(const std::string& name, int logits) {
  return add_op(make_op(OpType::kSoftmaxXent, name, {logits}, {1, 1, 1, 1}));
}

// ----------------------------------------------------------------- Session

Session::Session(Graph& graph, core::UcudnnHandle& handle)
    : graph_(graph),
      handle_(handle),
      dev_(handle.base().device_ptr()),
      virtual_mode_(handle.base().exec_mode() == mcudnn::ExecMode::kVirtual) {
  buffers_.resize(graph_.ops().size());
  // Virtual mode never touches tensor contents, so intermediate buffers of
  // equal size can share storage — modeling TensorFlow's reusing (BFC)
  // allocator. Numeric mode allocates one buffer per op (activations are
  // needed by the tape).
  std::map<std::size_t, float*> pool;
  for (std::size_t i = 0; i < graph_.ops().size(); ++i) {
    const Op& op = graph_.ops()[i];
    OpBuffers& b = buffers_[i];
    b.count = op.shape.count();
    const std::size_t bytes = static_cast<std::size_t>(b.count) * sizeof(float);
    if (virtual_mode_ && op.type != OpType::kPlaceholder &&
        op.type != OpType::kVariable) {
      auto [it, inserted] = pool.try_emplace(bytes, nullptr);
      if (inserted) {
        it->second = static_cast<float*>(dev_->allocate(bytes, "pooled:data"));
        owned_.push_back(it->second);
      }
      b.data = it->second;
    } else {
      b.data = static_cast<float*>(dev_->allocate(bytes, op.name + ":data"));
      owned_.push_back(b.data);
    }
    std::size_t aux_bytes = 0;
    switch (op.type) {
      case OpType::kMaxPool: aux_bytes = bytes; break;               // argmax
      case OpType::kBatchNorm:
        aux_bytes = static_cast<std::size_t>(2 * op.shape.c) * sizeof(float);
        break;                                                       // stats
      case OpType::kSoftmaxXent:
        aux_bytes = graph_.op(op.inputs[0]).shape.bytes();           // probs
        break;
      default: break;
    }
    if (aux_bytes > 0 && !virtual_mode_) {
      b.aux = static_cast<float*>(dev_->allocate(aux_bytes, op.name + ":aux"));
      owned_.push_back(b.aux);
    }
  }
}

Session::~Session() {
  for (auto& b : buffers_) dev_->deallocate(b.grad);
  for (void* ptr : owned_) dev_->deallocate(ptr);
}

float* Session::grad(int op) {
  OpBuffers& b = buffers_.at(static_cast<std::size_t>(op));
  if (b.grad == nullptr) {
    b.grad = static_cast<float*>(dev_->allocate(
        static_cast<std::size_t>(b.count) * sizeof(float),
        graph_.op(op).name + ":grad"));
  }
  return b.grad;
}

void Session::initialize(std::uint64_t seed) {
  initialized_ = true;
  if (virtual_mode_) return;
  std::mt19937 rng(static_cast<unsigned>(seed));
  for (std::size_t i = 0; i < graph_.ops().size(); ++i) {
    const Op& op = graph_.ops()[i];
    if (op.type == OpType::kPlaceholder) {
      fill_random(buffers_[i].data, buffers_[i].count, seed ^ (i * 7919));
    } else if (op.type == OpType::kVariable) {
      const std::int64_t fan_in = op.shape.c * op.shape.h * op.shape.w;
      std::normal_distribution<float> dist(
          0.0f, std::sqrt(2.0f / static_cast<float>(std::max<std::int64_t>(
                                     1, fan_in))));
      for (std::int64_t j = 0; j < buffers_[i].count; ++j) {
        buffers_[i].data[j] = dist(rng);
      }
    }
  }
}

void Session::model_memory_op(double bytes) const {
  const auto& spec = dev_->spec();
  dev_->advance_clock_ms(spec.kernel_overhead_us * 1e-3 +
                         bytes / (spec.mem_bandwidth_gbs * 1e9) * 1e3);
}

void Session::forward_op(int index) {
  const Op& op = graph_.op(index);
  OpBuffers& out = buffers_[static_cast<std::size_t>(index)];
  const auto in = [&](int slot) -> OpBuffers& {
    return buffers_[static_cast<std::size_t>(op.inputs[static_cast<std::size_t>(slot)])];
  };
  const auto in_op = [&](int slot) -> const Op& {
    return graph_.op(op.inputs[static_cast<std::size_t>(slot)]);
  };

  switch (op.type) {
    case OpType::kPlaceholder:
    case OpType::kVariable:
      return;
    case OpType::kConv2d: {
      const kernels::ConvProblem problem(in_op(0).shape, op.filter, op.geom);
      handle_.set_next_kernel_label(op.name);
      handle_.convolution(ConvKernelType::kForward, problem, 1.0f, in(0).data,
                          in(1).data, 0.0f, out.data);
      return;
    }
    case OpType::kRelu: {
      if (virtual_mode_) return model_memory_op(2.0 * op.shape.bytes());
      const float* x = in(0).data;
      float* y = out.data;
      ThreadPool::global().parallel_for(
          out.count,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t i = begin; i < end; ++i) {
              y[i] = std::max(0.0f, x[i]);
            }
          },
          1 << 14);
      return;
    }
    case OpType::kMaxPool:
    case OpType::kAvgPool: {
      if (virtual_mode_) {
        return model_memory_op(in_op(0).shape.bytes() + op.shape.bytes());
      }
      const TensorShape& is = in_op(0).shape;
      const float* x = in(0).data;
      float* y = out.data;
      auto* argmax = reinterpret_cast<std::int32_t*>(out.aux);
      const bool is_max = op.type == OpType::kMaxPool;
      ThreadPool::global().parallel_for(
          op.shape.n * op.shape.c,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t nc = begin; nc < end; ++nc) {
              const float* xp = x + nc * is.h * is.w;
              float* yp = y + nc * op.shape.h * op.shape.w;
              for (std::int64_t i = 0; i < op.shape.h; ++i) {
                for (std::int64_t j = 0; j < op.shape.w; ++j) {
                  const std::int64_t h0 =
                      std::max<std::int64_t>(0, i * op.stride - op.pad);
                  const std::int64_t w0 =
                      std::max<std::int64_t>(0, j * op.stride - op.pad);
                  const std::int64_t h1 =
                      std::min(is.h, i * op.stride - op.pad + op.window);
                  const std::int64_t w1 =
                      std::min(is.w, j * op.stride - op.pad + op.window);
                  if (is_max) {
                    float best = -std::numeric_limits<float>::infinity();
                    std::int32_t best_idx = 0;
                    for (std::int64_t h = h0; h < h1; ++h) {
                      for (std::int64_t w = w0; w < w1; ++w) {
                        if (xp[h * is.w + w] > best) {
                          best = xp[h * is.w + w];
                          best_idx = static_cast<std::int32_t>(h * is.w + w);
                        }
                      }
                    }
                    yp[i * op.shape.w + j] = best;
                    argmax[nc * op.shape.h * op.shape.w + i * op.shape.w + j] =
                        best_idx;
                  } else {
                    double acc = 0.0;
                    for (std::int64_t h = h0; h < h1; ++h) {
                      for (std::int64_t w = w0; w < w1; ++w) {
                        acc += xp[h * is.w + w];
                      }
                    }
                    // TF-style: divide by the number of valid elements.
                    const double area =
                        static_cast<double>((h1 - h0) * (w1 - w0));
                    yp[i * op.shape.w + j] = static_cast<float>(acc / area);
                  }
                }
              }
            }
          });
      return;
    }
    case OpType::kMatMul: {
      const std::int64_t n = op.shape.n;
      const std::int64_t in_features = in_op(0).shape.count() / n;
      if (virtual_mode_) {
        return model_memory_op(in_op(0).shape.bytes() +
                               in_op(1).shape.bytes() + op.shape.bytes() +
                               2.0 * n * in_features * op.units / 4.0);
      }
      gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kYes, n, op.units, in_features,
                  1.0f, in(0).data, in_features, in(1).data, in_features, 0.0f,
                  out.data, op.units);
      return;
    }
    case OpType::kBatchNorm: {
      if (virtual_mode_) return model_memory_op(4.0 * op.shape.bytes());
      const TensorShape& s = op.shape;
      const std::int64_t plane = s.h * s.w;
      const std::int64_t m = s.n * plane;
      float* mean = out.aux;
      float* inv_std = out.aux + s.c;
      ThreadPool::global().parallel_for(
          s.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t c = begin; c < end; ++c) {
              double sum = 0.0, sq = 0.0;
              for (std::int64_t n = 0; n < s.n; ++n) {
                const float* x = in(0).data + (n * s.c + c) * plane;
                for (std::int64_t p = 0; p < plane; ++p) {
                  sum += x[p];
                  sq += static_cast<double>(x[p]) * x[p];
                }
              }
              const double mu = sum / static_cast<double>(m);
              const double var = sq / static_cast<double>(m) - mu * mu;
              mean[c] = static_cast<float>(mu);
              inv_std[c] = static_cast<float>(1.0 / std::sqrt(var + op.eps));
              for (std::int64_t n = 0; n < s.n; ++n) {
                const float* x = in(0).data + (n * s.c + c) * plane;
                float* y = out.data + (n * s.c + c) * plane;
                for (std::int64_t p = 0; p < plane; ++p) {
                  y[p] = (x[p] - mean[c]) * inv_std[c];
                }
              }
            }
          });
      return;
    }
    case OpType::kAdd: {
      if (virtual_mode_) return model_memory_op(3.0 * op.shape.bytes());
      const float* a = in(0).data;
      const float* b = in(1).data;
      float* y = out.data;
      ThreadPool::global().parallel_for(
          out.count,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t i = begin; i < end; ++i) y[i] = a[i] + b[i];
          },
          1 << 14);
      return;
    }
    case OpType::kConcat: {
      if (virtual_mode_) return model_memory_op(2.0 * op.shape.bytes());
      const std::int64_t plane = op.shape.h * op.shape.w;
      std::int64_t c_offset = 0;
      for (std::size_t slot = 0; slot < op.inputs.size(); ++slot) {
        const TensorShape& s = graph_.op(op.inputs[slot]).shape;
        const float* src = buffers_[static_cast<std::size_t>(op.inputs[slot])].data;
        for (std::int64_t n = 0; n < op.shape.n; ++n) {
          std::copy(src + n * s.c * plane, src + (n + 1) * s.c * plane,
                    out.data + (n * op.shape.c + c_offset) * plane);
        }
        c_offset += s.c;
      }
      return;
    }
    case OpType::kSoftmaxXent: {
      if (virtual_mode_) return model_memory_op(3.0 * in_op(0).shape.bytes());
      const std::int64_t n = in_op(0).shape.n;
      const std::int64_t classes = in_op(0).shape.count() / n;
      double loss = 0.0;
      for (std::int64_t i = 0; i < n; ++i) {
        const float* x = in(0).data + i * classes;
        float* p = out.aux + i * classes;
        const float max_v = *std::max_element(x, x + classes);
        double sum = 0.0;
        for (std::int64_t c = 0; c < classes; ++c) {
          p[c] = std::exp(x[c] - max_v);
          sum += p[c];
        }
        for (std::int64_t c = 0; c < classes; ++c) {
          p[c] = static_cast<float>(p[c] / sum);
        }
        loss -= std::log(std::max(1e-12, static_cast<double>(p[i % classes])));
      }
      out.data[0] = static_cast<float>(loss / static_cast<double>(n));
      return;
    }
  }
}

void Session::backward_op(int index) {
  const Op& op = graph_.op(index);
  OpBuffers& out = buffers_[static_cast<std::size_t>(index)];
  const auto in = [&](int slot) -> OpBuffers& {
    return buffers_[static_cast<std::size_t>(op.inputs[static_cast<std::size_t>(slot)])];
  };
  const auto in_op = [&](int slot) -> const Op& {
    return graph_.op(op.inputs[static_cast<std::size_t>(slot)]);
  };

  switch (op.type) {
    case OpType::kPlaceholder:
    case OpType::kVariable:
      return;
    case OpType::kConv2d: {
      const kernels::ConvProblem problem(in_op(0).shape, op.filter, op.geom);
      const bool v = virtual_mode_;
      handle_.convolution(ConvKernelType::kBackwardFilter, problem, 1.0f,
                          v ? nullptr : in(0).data,
                          v ? nullptr : grad(index),
                          1.0f, v ? nullptr : grad(op.inputs[1]));
      handle_.convolution(ConvKernelType::kBackwardData, problem, 1.0f,
                          v ? nullptr : grad(index),
                          v ? nullptr : in(1).data, 1.0f,
                          v ? nullptr : grad(op.inputs[0]));
      return;
    }
    case OpType::kRelu: {
      if (virtual_mode_) return model_memory_op(3.0 * op.shape.bytes());
      const float* y = out.data;
      const float* dy = grad(index);
      float* dx = grad(op.inputs[0]);
      ThreadPool::global().parallel_for(
          out.count,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t i = begin; i < end; ++i) {
              dx[i] += y[i] > 0.0f ? dy[i] : 0.0f;
            }
          },
          1 << 14);
      return;
    }
    case OpType::kMaxPool: {
      if (virtual_mode_) {
        return model_memory_op(in_op(0).shape.bytes() + op.shape.bytes());
      }
      const TensorShape& is = in_op(0).shape;
      const auto* argmax = reinterpret_cast<const std::int32_t*>(out.aux);
      float* dx_base = grad(op.inputs[0]);
      const float* dy_base = grad(index);
      ThreadPool::global().parallel_for(
          op.shape.n * op.shape.c,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t nc = begin; nc < end; ++nc) {
              float* dx = dx_base + nc * is.h * is.w;
              const float* dy = dy_base + nc * op.shape.h * op.shape.w;
              const std::int32_t* am = argmax + nc * op.shape.h * op.shape.w;
              for (std::int64_t p = 0; p < op.shape.h * op.shape.w; ++p) {
                dx[am[p]] += dy[p];
              }
            }
          });
      return;
    }
    case OpType::kAvgPool: {
      if (virtual_mode_) {
        return model_memory_op(in_op(0).shape.bytes() + op.shape.bytes());
      }
      const TensorShape& is = in_op(0).shape;
      float* dx_base = grad(op.inputs[0]);
      const float* dy_base = grad(index);
      ThreadPool::global().parallel_for(
          op.shape.n * op.shape.c,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t nc = begin; nc < end; ++nc) {
              float* dx = dx_base + nc * is.h * is.w;
              const float* dy = dy_base + nc * op.shape.h * op.shape.w;
              for (std::int64_t i = 0; i < op.shape.h; ++i) {
                for (std::int64_t j = 0; j < op.shape.w; ++j) {
                  const std::int64_t h0 =
                      std::max<std::int64_t>(0, i * op.stride - op.pad);
                  const std::int64_t w0 =
                      std::max<std::int64_t>(0, j * op.stride - op.pad);
                  const std::int64_t h1 =
                      std::min(is.h, i * op.stride - op.pad + op.window);
                  const std::int64_t w1 =
                      std::min(is.w, j * op.stride - op.pad + op.window);
                  const float g = dy[i * op.shape.w + j] /
                                  static_cast<float>((h1 - h0) * (w1 - w0));
                  for (std::int64_t h = h0; h < h1; ++h) {
                    for (std::int64_t w = w0; w < w1; ++w) {
                      dx[h * is.w + w] += g;
                    }
                  }
                }
              }
            }
          });
      return;
    }
    case OpType::kMatMul: {
      const std::int64_t n = op.shape.n;
      const std::int64_t in_features = in_op(0).shape.count() / n;
      if (virtual_mode_) {
        return model_memory_op(2.0 * (in_op(0).shape.bytes() +
                                      in_op(1).shape.bytes() +
                                      op.shape.bytes()));
      }
      // dW += dyᵀ x;  dx += dy W.
      gemm::sgemm(gemm::Trans::kYes, gemm::Trans::kNo, op.units, in_features, n,
                  1.0f, grad(index), op.units, in(0).data, in_features, 1.0f,
                  grad(op.inputs[1]), in_features);
      gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, n, in_features, op.units,
                  1.0f, grad(index), op.units, in(1).data, in_features, 1.0f,
                  grad(op.inputs[0]), in_features);
      return;
    }
    case OpType::kBatchNorm: {
      if (virtual_mode_) return model_memory_op(6.0 * op.shape.bytes());
      const TensorShape& s = op.shape;
      const std::int64_t plane = s.h * s.w;
      const std::int64_t m = s.n * plane;
      const float* mean = out.aux;
      const float* inv_std = out.aux + s.c;
      ThreadPool::global().parallel_for(
          s.c, [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t c = begin; c < end; ++c) {
              double dxhat_sum = 0.0, dxhat_xhat_sum = 0.0;
              for (std::int64_t n = 0; n < s.n; ++n) {
                const float* x = in(0).data + (n * s.c + c) * plane;
                const float* dy = grad(index) + (n * s.c + c) * plane;
                for (std::int64_t p = 0; p < plane; ++p) {
                  const float xhat = (x[p] - mean[c]) * inv_std[c];
                  dxhat_sum += dy[p];
                  dxhat_xhat_sum += static_cast<double>(dy[p]) * xhat;
                }
              }
              const float scale = inv_std[c] / static_cast<float>(m);
              for (std::int64_t n = 0; n < s.n; ++n) {
                const float* x = in(0).data + (n * s.c + c) * plane;
                const float* dy = grad(index) + (n * s.c + c) * plane;
                float* dx = grad(op.inputs[0]) + (n * s.c + c) * plane;
                for (std::int64_t p = 0; p < plane; ++p) {
                  const float xhat = (x[p] - mean[c]) * inv_std[c];
                  dx[p] += scale * (static_cast<float>(m) * dy[p] -
                                    static_cast<float>(dxhat_sum) -
                                    xhat * static_cast<float>(dxhat_xhat_sum));
                }
              }
            }
          });
      return;
    }
    case OpType::kAdd: {
      if (virtual_mode_) return model_memory_op(3.0 * op.shape.bytes());
      const float* dy = grad(index);
      float* da = grad(op.inputs[0]);
      float* db = grad(op.inputs[1]);
      ThreadPool::global().parallel_for(
          out.count,
          [&](std::int64_t begin, std::int64_t end, std::size_t) {
            for (std::int64_t i = begin; i < end; ++i) {
              da[i] += dy[i];
              db[i] += dy[i];
            }
          },
          1 << 14);
      return;
    }
    case OpType::kConcat: {
      if (virtual_mode_) return model_memory_op(2.0 * op.shape.bytes());
      const std::int64_t plane = op.shape.h * op.shape.w;
      std::int64_t c_offset = 0;
      for (std::size_t slot = 0; slot < op.inputs.size(); ++slot) {
        const TensorShape& s = graph_.op(op.inputs[slot]).shape;
        float* dst = grad(op.inputs[slot]);
        const float* out_grad = grad(index);
        for (std::int64_t n = 0; n < op.shape.n; ++n) {
          const float* src = out_grad + (n * op.shape.c + c_offset) * plane;
          for (std::int64_t i = 0; i < s.c * plane; ++i) {
            dst[n * s.c * plane + i] += src[i];
          }
        }
        c_offset += s.c;
      }
      return;
    }
    case OpType::kSoftmaxXent: {
      if (virtual_mode_) return model_memory_op(2.0 * in_op(0).shape.bytes());
      const std::int64_t n = in_op(0).shape.n;
      const std::int64_t classes = in_op(0).shape.count() / n;
      const float seed = grad(index)[0] / static_cast<float>(n);
      for (std::int64_t i = 0; i < n; ++i) {
        const float* p = out.aux + i * classes;
        float* dx = grad(op.inputs[0]) + i * classes;
        const std::int64_t label = i % classes;
        for (std::int64_t c = 0; c < classes; ++c) {
          dx[c] += seed * (p[c] - (c == label ? 1.0f : 0.0f));
        }
      }
      return;
    }
  }
}

void Session::register_conv_kernels() {
  constexpr ConvKernelType kPasses[] = {ConvKernelType::kForward,
                                        ConvKernelType::kBackwardFilter,
                                        ConvKernelType::kBackwardData};
  for (const Op& op : graph_.ops()) {
    if (op.type != OpType::kConv2d) continue;
    const kernels::ConvProblem problem(graph_.op(op.inputs[0]).shape,
                                       op.filter, op.geom);
    for (const ConvKernelType type : kPasses) {
      handle_.set_next_kernel_label(op.name);
      handle_.get_algorithm(type, problem,
                            mcudnn::AlgoPreference::kSpecifyWorkspaceLimit,
                            core::kDefaultPerKernelLimit);
    }
  }
}

void Session::run_forward() {
  if (!initialized_) initialize();
  if (!registered_kernels_) {
    // The graph already contains the gradient tape, so all three kernel
    // types are known now — announce them before the first execution (and
    // thus before any WD finalization).
    register_conv_kernels();
    registered_kernels_ = true;
  }
  const telemetry::ScopedSpan span("session.run_forward");
  for (int i = 0; i < static_cast<int>(graph_.ops().size()); ++i) {
    const telemetry::ScopedSpan op_span("op.forward", [&] {
      return graph_.ops()[static_cast<std::size_t>(i)].name;
    });
    forward_op(i);
  }
}

void Session::run_backward() {
  if (!virtual_mode_) {
    for (int i = 0; i < static_cast<int>(buffers_.size()); ++i) {
      fill_constant(grad(i), buffers_[static_cast<std::size_t>(i)].count, 0.0f);
    }
    const int last = static_cast<int>(buffers_.size()) - 1;
    fill_constant(grad(last), buffers_.back().count,
                  1.0f / static_cast<float>(buffers_.back().count));
  }
  const telemetry::ScopedSpan span("session.run_backward");
  for (int i = static_cast<int>(graph_.ops().size()); i-- > 0;) {
    const telemetry::ScopedSpan op_span("op.backward", [&] {
      return graph_.ops()[static_cast<std::size_t>(i)].name;
    });
    backward_op(i);
  }
}

std::vector<Session::OpTime> Session::time(int iterations) {
  check_param(iterations >= 1, "need at least one timing iteration");
  run_forward();
  run_backward();

  std::vector<OpTime> result(graph_.ops().size());
  for (std::size_t i = 0; i < graph_.ops().size(); ++i) {
    result[i].name = graph_.ops()[i].name;
  }
  double total = 0.0;
  for (int iter = 0; iter < iterations; ++iter) {
    for (int i = 0; i < static_cast<int>(graph_.ops().size()); ++i) {
      const double clock0 = dev_->clock_ms();
      Timer timer;
      forward_op(i);
      result[static_cast<std::size_t>(i)].forward_ms +=
          virtual_mode_ ? dev_->clock_ms() - clock0 : timer.elapsed_ms();
    }
    if (!virtual_mode_) {
      for (int i = 0; i < static_cast<int>(buffers_.size()); ++i) {
        fill_constant(grad(i), buffers_[static_cast<std::size_t>(i)].count,
                      0.0f);
      }
      const int last = static_cast<int>(buffers_.size()) - 1;
      fill_constant(grad(last), buffers_.back().count,
                    1.0f / static_cast<float>(buffers_.back().count));
    }
    for (int i = static_cast<int>(graph_.ops().size()); i-- > 0;) {
      const double clock0 = dev_->clock_ms();
      Timer timer;
      backward_op(i);
      result[static_cast<std::size_t>(i)].backward_ms +=
          virtual_mode_ ? dev_->clock_ms() - clock0 : timer.elapsed_ms();
    }
  }
  for (auto& ot : result) {
    ot.forward_ms /= iterations;
    ot.backward_ms /= iterations;
    total += ot.forward_ms + ot.backward_ms;
  }
  last_iteration_ms_ = total;
  return result;
}

}  // namespace ucudnn::tfmini
