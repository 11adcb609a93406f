// Host layer ops shared by the caffepp and tfmini frameworks: one forward
// and one backward for ReLU, pooling, batch norm, elementwise add, channel
// concat and softmax cross-entropy, each with its Virtual-mode cost.
//
// The two frameworks differ only in how they announce convolutions to
// μ-cuDNN (§IV-B2); for everything else they call this library, the way
// every framework calls cuDNN. Ops run on raw pointers the caller has
// already resolved, so no parallel body ever allocates. In Virtual mode an
// op advances the device clock by its modeled cost and touches no memory;
// its pointers may then be null.
//
// Backward convention: input gradients are ACCUMULATED (+=), so fan-out
// sums correctly; parameter gradients (batch-norm scale/shift) are
// overwritten.
#pragma once

#include <cstdint>
#include <span>

#include "device/device.h"
#include "tensor/tensor.h"

namespace ucudnn::frameworks::ops {

/// Where an op runs: on the host CPU, or modeled on `dev`'s clock.
struct Target {
  device::Device& dev;
  bool virtual_mode;
};

/// Models a bandwidth-bound elementwise op on `dev`'s clock.
void model_memory_op(device::Device& dev, double bytes);
/// Models a GEMM-like op (compute- or bandwidth-bound, whichever is worse).
void model_gemm(device::Device& dev, double flops, double bytes);

/// y = max(0, x).
void relu_forward(const Target& t, std::int64_t count, const float* x,
                  float* y);
/// Gates on the OUTPUT sign so in-place use (y == x) stays valid. With
/// dx == dy the gradient is masked in place; otherwise dx += gated dy.
void relu_backward(const Target& t, std::int64_t count, const float* y,
                   const float* dy, float* dx);

enum class PoolMode {
  kMax,
  kAvgWindow,  // average divided by the full window area (Caffe)
  kAvgValid,   // average divided by the in-bounds element count (TF)
};

/// A square pooling window applied to both spatial dims.
struct Pool {
  PoolMode mode;
  std::int64_t window, stride, pad;
};

/// Floor-mode output edge: (in + 2*pad - window) / stride + 1.
std::int64_t pool_out_edge(std::int64_t in, std::int64_t window,
                           std::int64_t stride, std::int64_t pad);

/// `argmax` holds one input-plane index per output element; kMax writes it
/// in forward and reads it in backward, the average modes ignore it.
void pool_forward(const Target& t, const Pool& pool, const TensorShape& in,
                  const TensorShape& out, const float* x, float* y,
                  std::int32_t* argmax);
void pool_backward(const Target& t, const Pool& pool, const TensorShape& in,
                   const TensorShape& out, const float* dy,
                   const std::int32_t* argmax, float* dx);

/// Training-mode batch norm per channel over N, H and W. `stats` holds 2*C
/// floats: the batch means, then the inverse standard deviations, saved
/// for backward. Null `gamma`/`beta` is the identity scale/shift.
void batch_norm_forward(const Target& t, const TensorShape& s, float eps,
                        const float* x, const float* gamma, const float* beta,
                        float* stats, float* y);
/// Writes `dgamma`/`dbeta` when `gamma` is non-null.
void batch_norm_backward(const Target& t, const TensorShape& s,
                         const float* x, const float* gamma,
                         const float* stats, const float* dy, float* dx,
                         float* dgamma, float* dbeta);

/// y = a + b.
void add_forward(const Target& t, std::int64_t count, const float* a,
                 const float* b, float* y);
void add_backward(const Target& t, std::int64_t count, const float* dy,
                  float* da, float* db);

/// One concat input: its storage (data in forward, gradient in backward)
/// and its channel count.
struct ConcatPart {
  float* ptr;
  std::int64_t channels;
};

/// Concatenates `parts` along the channel axis into `y` (shape `out`).
void concat_forward(const Target& t, const TensorShape& out,
                    std::span<const ConcatPart> parts, float* y);
void concat_backward(const Target& t, const TensorShape& out, const float* dy,
                     std::span<const ConcatPart> parts);

/// Softmax over `classes` logits per sample, then the mean cross-entropy
/// against synthetic labels (label[i] = i % classes) into loss[0]. Keeps
/// the probabilities in `prob` for backward.
void softmax_xent_forward(const Target& t, std::int64_t n,
                          std::int64_t classes, const float* x, float* prob,
                          float* loss);
/// dx += seed / n * (prob - onehot(label)); `seed` is the loss gradient.
void softmax_xent_backward(const Target& t, std::int64_t n,
                           std::int64_t classes, const float* prob,
                           float seed, float* dx);

}  // namespace ucudnn::frameworks::ops
