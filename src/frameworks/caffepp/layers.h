// caffepp layers: the mini-Caffe substrate's layer zoo. Every layer
// implements real numeric forward/backward on the host CPU and a modeled
// cost path for Virtual execution (network-scale paper figures). ReLU,
// pooling, batch norm, eltwise sum, concat and softmax loss are thin
// wrappers over the host ops tfmini also calls (frameworks/ops.h);
// convolution, LRN, FC and dropout keep their own bodies.
//
// Backward convention: bottom-blob diffs are ACCUMULATED (+=) — the Net
// zeroes all diffs before each backward pass — so fan-out (ResNet skip
// connections, DenseNet concats) sums gradients correctly. Parameter diffs
// are overwritten each pass.
#pragma once

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/ucudnn.h"
#include "frameworks/caffepp/blob.h"
#include "frameworks/ops.h"

namespace ucudnn::caffepp {

/// Per-pass execution context handed to layers by the Net.
struct LayerContext {
  core::UcudnnHandle& handle;
  std::shared_ptr<device::Device> dev;
  bool virtual_mode;

  /// Where the shared host ops run.
  frameworks::ops::Target target() const { return {*dev, virtual_mode}; }
  /// `blob`'s diff, resolved before any parallel loop; null in Virtual mode,
  /// which never allocates diffs.
  float* diff(Blob* blob) const {
    return virtual_mode ? nullptr : blob->diff();
  }
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}
  virtual ~Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  const std::string& name() const noexcept { return name_; }
  virtual void forward(const LayerContext& ctx) = 0;
  virtual void backward(const LayerContext& ctx) = 0;
  /// Deterministic parameter initialization (numeric mode only).
  virtual void init_params(std::mt19937& rng) { (void)rng; }
  virtual std::vector<Blob*> params() { return {}; }

 protected:
  std::string name_;
};

/// 2-D convolution through μ-cuDNN (or any cuDNN-shaped handle), plus bias.
class ConvLayer : public Layer {
 public:
  ConvLayer(const LayerContext& ctx, std::string name, Blob* bottom, Blob* top,
            const FilterDesc& filter, const ConvGeometry& geom, bool bias,
            std::size_t ws_limit);

  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;
  void init_params(std::mt19937& rng) override;
  std::vector<Blob*> params() override;

  const kernels::ConvProblem& problem() const noexcept { return problem_; }

 private:
  Blob* bottom_;
  Blob* top_;
  FilterDesc filter_;
  ConvGeometry geom_;
  kernels::ConvProblem problem_;
  std::unique_ptr<Blob> weights_;  // shaped (K, C, R, S) flattened into NCHW
  std::unique_ptr<Blob> bias_;     // (1, K, 1, 1), null when bias disabled
};

class ReluLayer : public Layer {
 public:
  ReluLayer(std::string name, Blob* bottom, Blob* top)
      : Layer(std::move(name)), bottom_(bottom), top_(top) {}
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;

 private:
  Blob* bottom_;
  Blob* top_;  // may equal bottom_ (in-place)
};

class PoolLayer : public Layer {
 public:
  PoolLayer(const LayerContext& ctx, std::string name, Blob* bottom, Blob* top,
            const frameworks::ops::Pool& pool);
  ~PoolLayer() override;
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;

 private:
  Blob* bottom_;
  Blob* top_;
  frameworks::ops::Pool pool_;
  std::shared_ptr<device::Device> dev_;
  std::int32_t* argmax_ = nullptr;  // device-tracked, max pooling only
};

/// Across-channel local response normalization (AlexNet's norm layers).
class LrnLayer : public Layer {
 public:
  LrnLayer(const LayerContext& ctx, std::string name, Blob* bottom, Blob* top,
           std::int64_t local_size, float alpha, float beta, float k);
  ~LrnLayer() override;
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;

 private:
  Blob* bottom_;
  Blob* top_;
  std::int64_t local_size_;
  float alpha_, beta_, k_;
  std::shared_ptr<device::Device> dev_;
  float* scale_ = nullptr;  // (k + alpha/n * window-sum of squares)
};

/// Fully connected (InnerProduct): y = x * Wᵀ + b over flattened features.
class FcLayer : public Layer {
 public:
  FcLayer(const LayerContext& ctx, std::string name, Blob* bottom, Blob* top,
          std::int64_t out_features, bool bias = true);
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;
  void init_params(std::mt19937& rng) override;
  std::vector<Blob*> params() override;

 private:
  Blob* bottom_;
  Blob* top_;
  std::int64_t in_features_, out_features_;
  std::unique_ptr<Blob> weights_;  // (out, in, 1, 1)
  std::unique_ptr<Blob> bias_;
};

/// Training-mode batch normalization with learned scale/shift.
class BatchNormLayer : public Layer {
 public:
  BatchNormLayer(const LayerContext& ctx, std::string name, Blob* bottom,
                 Blob* top, float eps = 1e-5f);
  ~BatchNormLayer() override;
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;
  void init_params(std::mt19937& rng) override;
  std::vector<Blob*> params() override;

 private:
  Blob* bottom_;
  Blob* top_;
  float eps_;
  std::shared_ptr<device::Device> dev_;
  std::unique_ptr<Blob> gamma_;  // (1, C, 1, 1)
  std::unique_ptr<Blob> beta_;
  float* stats_ = nullptr;  // per-channel saved mean, then inverse std
};

/// Elementwise sum of two equal-shape blobs (ResNet shortcut joins).
class EltwiseSumLayer : public Layer {
 public:
  EltwiseSumLayer(std::string name, Blob* a, Blob* b, Blob* top)
      : Layer(std::move(name)), a_(a), b_(b), top_(top) {}
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;

 private:
  Blob* a_;
  Blob* b_;
  Blob* top_;
};

/// Channel-axis concatenation (DenseNet / Inception).
class ConcatLayer : public Layer {
 public:
  ConcatLayer(std::string name, std::vector<Blob*> bottoms, Blob* top)
      : Layer(std::move(name)), bottoms_(std::move(bottoms)), top_(top) {}
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;

 private:
  std::vector<Blob*> bottoms_;
  Blob* top_;
};

/// Dropout with a deterministic per-pass mask (timing fidelity, reproducible
/// numerics).
class DropoutLayer : public Layer {
 public:
  DropoutLayer(const LayerContext& ctx, std::string name, Blob* bottom,
               Blob* top, float ratio);
  ~DropoutLayer() override;
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;

 private:
  Blob* bottom_;
  Blob* top_;
  float ratio_;
  std::shared_ptr<device::Device> dev_;
  std::uint8_t* mask_ = nullptr;
  std::uint64_t pass_ = 0;
};

/// Softmax + cross-entropy against synthetic labels (label[n] = n % classes).
class SoftmaxLossLayer : public Layer {
 public:
  SoftmaxLossLayer(const LayerContext& ctx, std::string name, Blob* bottom,
                   Blob* loss);
  ~SoftmaxLossLayer() override;
  void forward(const LayerContext& ctx) override;
  void backward(const LayerContext& ctx) override;

 private:
  Blob* bottom_;
  Blob* loss_;
  std::shared_ptr<device::Device> dev_;
  float* prob_ = nullptr;
};

}  // namespace ucudnn::caffepp
