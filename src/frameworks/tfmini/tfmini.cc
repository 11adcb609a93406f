#include "frameworks/tfmini/tfmini.h"

#include <algorithm>
#include <map>
#include <cmath>
#include <random>

#include "common/timer.h"
#include "frameworks/ops.h"
#include "gemm/gemm.h"
#include "telemetry/trace.h"

namespace ucudnn::tfmini {

namespace ops = frameworks::ops;

namespace {

// TensorFlow averages over the in-bounds elements of each window.
ops::Pool pool_of(const Op& op) {
  return {op.type == OpType::kMaxPool ? ops::PoolMode::kMax
                                      : ops::PoolMode::kAvgValid,
          op.window, op.stride, op.pad};
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
                       ops::pool_out_edge(in.shape.h, window, stride, pad),
                       ops::pool_out_edge(in.shape.w, window, stride, pad)});
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
  if (virtual_mode_) return nullptr;
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

void Session::forward_op(int index) {
  const Op& op = graph_.op(index);
  OpBuffers& out = buffers_[static_cast<std::size_t>(index)];
  const auto in = [&](int slot) -> OpBuffers& {
    return buffers_[static_cast<std::size_t>(op.inputs[static_cast<std::size_t>(slot)])];
  };
  const auto in_op = [&](int slot) -> const Op& {
    return graph_.op(op.inputs[static_cast<std::size_t>(slot)]);
  };
  const ops::Target target{*dev_, virtual_mode_};

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
    case OpType::kRelu:
      return ops::relu_forward(target, out.count, in(0).data, out.data);
    case OpType::kMaxPool:
    case OpType::kAvgPool:
      return ops::pool_forward(target, pool_of(op), in_op(0).shape, op.shape,
                               in(0).data, out.data,
                               reinterpret_cast<std::int32_t*>(out.aux));
    case OpType::kMatMul: {
      const std::int64_t n = op.shape.n;
      const std::int64_t in_features = in_op(0).shape.count() / n;
      if (virtual_mode_) {
        return ops::model_memory_op(
            *dev_, in_op(0).shape.bytes() + in_op(1).shape.bytes() +
                       op.shape.bytes() +
                       2.0 * n * in_features * op.units / 4.0);
      }
      gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kYes, n, op.units, in_features,
                  1.0f, in(0).data, in_features, in(1).data, in_features, 0.0f,
                  out.data, op.units);
      return;
    }
    case OpType::kBatchNorm:
      return ops::batch_norm_forward(target, op.shape, op.eps, in(0).data,
                                     nullptr, nullptr, out.aux, out.data);
    case OpType::kAdd:
      return ops::add_forward(target, out.count, in(0).data, in(1).data,
                              out.data);
    case OpType::kConcat: {
      std::vector<ops::ConcatPart> parts;
      for (int slot = 0; slot < static_cast<int>(op.inputs.size()); ++slot) {
        parts.push_back({in(slot).data, in_op(slot).shape.c});
      }
      return ops::concat_forward(target, op.shape, parts, out.data);
    }
    case OpType::kSoftmaxXent: {
      const std::int64_t n = in_op(0).shape.n;
      return ops::softmax_xent_forward(target, n, in_op(0).shape.count() / n,
                                       in(0).data, out.aux, out.data);
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
  // Gradients are resolved here, before any parallel loop; all are null in
  // Virtual mode.
  const auto dx = [&](int slot) {
    return grad(op.inputs[static_cast<std::size_t>(slot)]);
  };
  float* dy = grad(index);
  const ops::Target target{*dev_, virtual_mode_};

  switch (op.type) {
    case OpType::kPlaceholder:
    case OpType::kVariable:
      return;
    case OpType::kConv2d: {
      const kernels::ConvProblem problem(in_op(0).shape, op.filter, op.geom);
      const bool v = virtual_mode_;
      handle_.convolution(ConvKernelType::kBackwardFilter, problem, 1.0f,
                          v ? nullptr : in(0).data, dy, 1.0f, dx(1));
      handle_.convolution(ConvKernelType::kBackwardData, problem, 1.0f, dy,
                          v ? nullptr : in(1).data, 1.0f, dx(0));
      return;
    }
    case OpType::kRelu:
      return ops::relu_backward(target, out.count, out.data, dy, dx(0));
    case OpType::kMaxPool:
    case OpType::kAvgPool:
      return ops::pool_backward(target, pool_of(op), in_op(0).shape, op.shape,
                                dy, reinterpret_cast<std::int32_t*>(out.aux),
                                dx(0));
    case OpType::kMatMul: {
      const std::int64_t n = op.shape.n;
      const std::int64_t in_features = in_op(0).shape.count() / n;
      if (virtual_mode_) {
        return ops::model_memory_op(
            *dev_, 2.0 * (in_op(0).shape.bytes() + in_op(1).shape.bytes() +
                          op.shape.bytes()));
      }
      // dW += dyᵀ x;  dx += dy W.
      gemm::sgemm(gemm::Trans::kYes, gemm::Trans::kNo, op.units, in_features, n,
                  1.0f, dy, op.units, in(0).data, in_features, 1.0f, dx(1),
                  in_features);
      gemm::sgemm(gemm::Trans::kNo, gemm::Trans::kNo, n, in_features, op.units,
                  1.0f, dy, op.units, in(1).data, in_features, 1.0f, dx(0),
                  in_features);
      return;
    }
    case OpType::kBatchNorm:
      return ops::batch_norm_backward(target, op.shape, in(0).data, nullptr,
                                      out.aux, dy, dx(0), nullptr, nullptr);
    case OpType::kAdd:
      return ops::add_backward(target, out.count, dy, dx(0), dx(1));
    case OpType::kConcat: {
      std::vector<ops::ConcatPart> parts;
      for (int slot = 0; slot < static_cast<int>(op.inputs.size()); ++slot) {
        parts.push_back({dx(slot), in_op(slot).shape.c});
      }
      return ops::concat_backward(target, op.shape, dy, parts);
    }
    case OpType::kSoftmaxXent: {
      const std::int64_t n = in_op(0).shape.n;
      return ops::softmax_xent_backward(target, n, in_op(0).shape.count() / n,
                                        out.aux, dy == nullptr ? 0.0f : dy[0],
                                        dx(0));
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
