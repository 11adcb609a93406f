#include "frameworks/caffepp/net.h"

#include <algorithm>
#include <cstring>

#include "common/timer.h"
#include "telemetry/trace.h"

namespace ucudnn::caffepp {

Net::Net(core::UcudnnHandle& handle, std::string name, NetOptions options)
    : name_(std::move(name)),
      options_(options),
      ctx_{handle, handle.base().device_ptr(),
           handle.base().exec_mode() == mcudnn::ExecMode::kVirtual} {}

Blob* Net::make_blob(const std::string& name, const TensorShape& shape) {
  check(blobs_.find(name) == blobs_.end(), Status::kBadParam,
        "duplicate blob name: " + name);
  auto blob = std::make_unique<Blob>(ctx_.dev, name, shape, options_.with_diffs);
  Blob* raw = blob.get();
  blobs_.emplace(name, std::move(blob));
  last_top_ = name;
  return raw;
}

Blob* Net::blob(const std::string& name) {
  const auto it = blobs_.find(name);
  check(it != blobs_.end(), Status::kBadParam, "unknown blob: " + name);
  return it->second.get();
}

std::string Net::input(const std::string& name, const TensorShape& shape) {
  make_blob(name, shape);
  inputs_.push_back(name);
  return name;
}

std::string Net::conv(const std::string& name, const std::string& bottom,
                      std::int64_t out_channels, std::int64_t kernel,
                      std::int64_t stride, std::int64_t pad, bool bias,
                      std::int64_t groups) {
  Blob* b = blob(bottom);
  check_param(groups >= 1 && b->shape().c % groups == 0,
              "bad group count for " + name);
  const FilterDesc filter{out_channels, b->shape().c / groups, kernel, kernel};
  const ConvGeometry geom{.pad_h = pad, .pad_w = pad, .stride_h = stride,
                          .stride_w = stride, .groups = groups};
  const TensorShape out = geom.output_shape(b->shape(), filter);
  Blob* t = make_blob(name, out);
  layers_.push_back(std::make_unique<ConvLayer>(ctx_, name, b, t, filter, geom,
                                                bias,
                                                options_.workspace_limit));
  return name;
}

std::string Net::relu(const std::string& name, const std::string& bottom,
                      bool in_place) {
  Blob* b = blob(bottom);
  Blob* t = in_place ? b : make_blob(name, b->shape());
  layers_.push_back(std::make_unique<ReluLayer>(name, b, t));
  return in_place ? bottom : name;
}

std::string Net::pool_max(const std::string& name, const std::string& bottom,
                          std::int64_t window, std::int64_t stride,
                          std::int64_t pad) {
  return pool(name, bottom,
              {frameworks::ops::PoolMode::kMax, window, stride, pad});
}

std::string Net::pool_avg(const std::string& name, const std::string& bottom,
                          std::int64_t window, std::int64_t stride,
                          std::int64_t pad) {
  return pool(name, bottom,
              {frameworks::ops::PoolMode::kAvgWindow, window, stride, pad});
}

std::string Net::pool(const std::string& name, const std::string& bottom,
                      const frameworks::ops::Pool& op) {
  Blob* b = blob(bottom);
  const auto edge = [&](std::int64_t in) {
    return frameworks::ops::pool_out_edge(in, op.window, op.stride, op.pad);
  };
  Blob* t = make_blob(name, {b->shape().n, b->shape().c, edge(b->shape().h),
                             edge(b->shape().w)});
  layers_.push_back(std::make_unique<PoolLayer>(ctx_, name, b, t, op));
  return name;
}

std::string Net::lrn(const std::string& name, const std::string& bottom,
                     std::int64_t local_size, float alpha, float beta,
                     float k) {
  Blob* b = blob(bottom);
  Blob* t = make_blob(name, b->shape());
  layers_.push_back(std::make_unique<LrnLayer>(ctx_, name, b, t, local_size,
                                               alpha, beta, k));
  return name;
}

std::string Net::fc(const std::string& name, const std::string& bottom,
                    std::int64_t out_features, bool bias) {
  Blob* b = blob(bottom);
  Blob* t = make_blob(name, TensorShape{b->shape().n, out_features, 1, 1});
  layers_.push_back(
      std::make_unique<FcLayer>(ctx_, name, b, t, out_features, bias));
  return name;
}

std::string Net::batch_norm(const std::string& name,
                            const std::string& bottom) {
  Blob* b = blob(bottom);
  Blob* t = make_blob(name, b->shape());
  layers_.push_back(std::make_unique<BatchNormLayer>(ctx_, name, b, t));
  return name;
}

std::string Net::eltwise_sum(const std::string& name, const std::string& a,
                             const std::string& b) {
  Blob* ba = blob(a);
  Blob* bb = blob(b);
  check(ba->shape() == bb->shape(), Status::kBadParam,
        "eltwise shape mismatch: " + a + " vs " + b);
  Blob* t = make_blob(name, ba->shape());
  layers_.push_back(std::make_unique<EltwiseSumLayer>(name, ba, bb, t));
  return name;
}

std::string Net::concat(const std::string& name,
                        const std::vector<std::string>& bottoms) {
  check_param(!bottoms.empty(), "concat needs at least one bottom");
  std::vector<Blob*> bs;
  std::int64_t channels = 0;
  for (const auto& bn : bottoms) {
    bs.push_back(blob(bn));
    channels += bs.back()->shape().c;
    check(bs.back()->shape().n == bs[0]->shape().n &&
              bs.back()->shape().h == bs[0]->shape().h &&
              bs.back()->shape().w == bs[0]->shape().w,
          Status::kBadParam, "concat spatial mismatch at " + bn);
  }
  const TensorShape out{bs[0]->shape().n, channels, bs[0]->shape().h,
                        bs[0]->shape().w};
  Blob* t = make_blob(name, out);
  layers_.push_back(std::make_unique<ConcatLayer>(name, std::move(bs), t));
  return name;
}

std::string Net::dropout(const std::string& name, const std::string& bottom,
                         float ratio) {
  Blob* b = blob(bottom);
  Blob* t = make_blob(name, b->shape());
  layers_.push_back(std::make_unique<DropoutLayer>(ctx_, name, b, t, ratio));
  return name;
}

std::string Net::softmax_loss(const std::string& name,
                              const std::string& bottom) {
  Blob* b = blob(bottom);
  Blob* t = make_blob(name, TensorShape{1, 1, 1, 1});
  layers_.push_back(std::make_unique<SoftmaxLossLayer>(ctx_, name, b, t));
  return name;
}

void Net::init(std::uint64_t seed) {
  initialized_ = true;
  if (ctx_.virtual_mode) return;
  std::mt19937 rng(static_cast<unsigned>(seed));
  for (auto& layer : layers_) layer->init_params(rng);
  // Deterministic synthetic input data for the declared input blobs.
  for (const auto& name : inputs_) {
    Blob* b = blob(name);
    fill_random(b->data(), b->count(), seed ^ 0x5bd1e995u);
  }
}

void Net::forward() {
  if (!initialized_) init();
  // Caffe-style WD integration (§III-E): every ConvLayer announced its
  // kernels at construction, so the recorded list is complete — freeze it
  // and solve the arena division up front instead of inside the first
  // convolution. A WD plan already degraded to WR makes this a no-op.
  if (ctx_.handle.options().workspace_policy == core::WorkspacePolicy::kWD &&
      !ctx_.handle.wd_finalized()) {
    ctx_.handle.finalize_wd();
  }
  const telemetry::ScopedSpan span("net.forward", [&] { return name_; });
  for (auto& layer : layers_) {
    const telemetry::ScopedSpan layer_span("layer.forward",
                                           [&] { return layer->name(); });
    layer->forward(ctx_);
  }
}

void Net::seed_top_diff() {
  Blob* top = blob(last_top_);
  if (top->has_diff()) {
    fill_constant(top->diff(), top->count(),
                  1.0f / static_cast<float>(top->count()));
  }
}

void Net::backward() {
  if (!ctx_.virtual_mode) {
    // Zero all diffs, then seed the final blob's diff.
    for (auto& [name, blob] : blobs_) {
      (void)name;
      if (blob->has_diff()) fill_constant(blob->diff(), blob->count(), 0.0f);
    }
    for (auto& layer : layers_) {
      for (Blob* param : layer->params()) {
        if (param->has_diff()) {
          fill_constant(param->diff(), param->count(), 0.0f);
        }
      }
    }
    seed_top_diff();
  }
  const telemetry::ScopedSpan span("net.backward", [&] { return name_; });
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    const telemetry::ScopedSpan layer_span("layer.backward",
                                           [&] { return (*it)->name(); });
    (*it)->backward(ctx_);
  }
}

std::vector<Net::LayerTime> Net::time(int iterations) {
  check_param(iterations >= 1, "need at least one timing iteration");
  // Warmup (triggers μ-cuDNN benchmarking + optimization + workspace
  // allocation so they are excluded from the measurement, like `caffe time`).
  forward();
  backward();

  std::vector<LayerTime> result(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    result[i].name = layers_[i]->name();
  }

  device::Device& dev = ctx_.handle.device();
  const bool virtual_mode = ctx_.virtual_mode;
  double total = 0.0;
  for (int iter = 0; iter < iterations; ++iter) {
    for (std::size_t i = 0; i < layers_.size(); ++i) {
      const double clock0 = dev.clock_ms();
      Timer timer;
      layers_[i]->forward(ctx_);
      result[i].forward_ms +=
          virtual_mode ? dev.clock_ms() - clock0 : timer.elapsed_ms();
    }
    if (!virtual_mode) {
      for (auto& [name, blob] : blobs_) {
        (void)name;
        if (blob->has_diff()) fill_constant(blob->diff(), blob->count(), 0.0f);
      }
      seed_top_diff();
    }
    for (std::size_t i = layers_.size(); i-- > 0;) {
      const double clock0 = dev.clock_ms();
      Timer timer;
      layers_[i]->backward(ctx_);
      result[i].backward_ms +=
          virtual_mode ? dev.clock_ms() - clock0 : timer.elapsed_ms();
    }
  }
  for (auto& lt : result) {
    lt.forward_ms /= iterations;
    lt.backward_ms /= iterations;
    total += lt.forward_ms + lt.backward_ms;
  }
  last_iteration_ms_ = total;
  return result;
}

std::map<std::string, kernels::ConvProblem> Net::conv_problems() const {
  std::map<std::string, kernels::ConvProblem> result;
  for (const auto& layer : layers_) {
    if (const auto* conv = dynamic_cast<const ConvLayer*>(layer.get())) {
      result.emplace(conv->name(), conv->problem());
    }
  }
  return result;
}

std::map<std::string, Net::LayerMemory> Net::memory_report() const {
  std::map<std::string, LayerMemory> report;
  for (const auto& [tag, bytes] : ctx_.dev->usage_by_tag()) {
    if (bytes == 0) continue;
    if (tag == "wd_arena") {
      report["__wd_arena__"].workspace += bytes;
      continue;
    }
    const auto colon = tag.rfind(':');
    if (colon == std::string::npos) continue;
    std::string layer = tag.substr(0, colon);
    const std::string kind = tag.substr(colon + 1);
    // Workspace tags look like "conv2(Forward):ws" — strip the kernel type.
    if (const auto paren = layer.find('('); paren != std::string::npos) {
      layer = layer.substr(0, paren);
    }
    // Parameter blobs are tagged "<layer>:param[...]:data|:diff".
    if (const auto param = layer.find(":param"); param != std::string::npos) {
      report[layer.substr(0, param)].param += bytes;
      continue;
    }
    LayerMemory& m = report[layer];
    if (kind == "ws") {
      m.workspace += bytes;
    } else if (kind == "aux") {
      m.aux += bytes;
    } else {
      m.data += bytes;
    }
  }
  return report;
}

}  // namespace ucudnn::caffepp
