// tfmini: a TensorFlow-1.x-style mini framework — deferred graph
// construction, session-based execution, tape autodiff.
//
// Its integration style with μ-cuDNN differs from caffepp's and mirrors
// TensorFlow 1.4.1 as described in §IV-B2 of the paper: layers do not
// announce kernels as the graph is built. Instead, just before the first
// run, the session announces all three passes of every Conv2d with the
// 8 MiB default limit (kDefaultPerKernelLimit), which
// UCUDNN_WORKSPACE_LIMIT / Options::workspace_limit overrides.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ucudnn.h"
#include "tensor/tensor.h"

namespace ucudnn::tfmini {

enum class OpType {
  kPlaceholder,
  kVariable,
  kConv2d,
  kRelu,
  kMaxPool,
  kAvgPool,
  kMatMul,
  kBatchNorm,
  kAdd,
  kConcat,
  kSoftmaxXent,
};

enum class Padding { kSame, kValid };

/// One node of the deferred graph. Outputs are identified by op index.
struct Op {
  OpType type;
  std::string name;
  std::vector<int> inputs;  // op indices (conv/matmul: [data, weights])
  TensorShape shape;        // output shape

  // conv2d
  FilterDesc filter;
  ConvGeometry geom;
  // pool
  std::int64_t window = 0, stride = 0, pad = 0;
  // matmul
  std::int64_t units = 0;
  // batch norm
  float eps = 1e-5f;
};

/// Deferred computation graph. Building it performs shape inference only —
/// no allocation, no μ-cuDNN queries (that is the point of the tfmini
/// integration style).
class Graph {
 public:
  int placeholder(const std::string& name, const TensorShape& shape);
  int variable(const std::string& name, const TensorShape& shape);
  /// stride/padding applied to both spatial dims; `filters` is a variable op
  /// holding (K, C, R, S).
  int conv2d(const std::string& name, int input, int filters,
             std::int64_t stride, Padding padding);
  int relu(const std::string& name, int input);
  int max_pool(const std::string& name, int input, std::int64_t window,
               std::int64_t stride, Padding padding);
  int avg_pool(const std::string& name, int input, std::int64_t window,
               std::int64_t stride, Padding padding);
  /// y[N, units] = flatten(x) * Wᵀ; `weights` holds (units, in, 1, 1).
  int matmul(const std::string& name, int input, int weights);
  int batch_norm(const std::string& name, int input);
  int add(const std::string& name, int a, int b);
  int concat(const std::string& name, const std::vector<int>& inputs);
  int softmax_xent(const std::string& name, int logits);

  const std::vector<Op>& ops() const noexcept { return ops_; }
  const Op& op(int index) const { return ops_.at(static_cast<std::size_t>(index)); }
  int find(const std::string& name) const;

  /// Symmetric SAME/VALID pad for one spatial dim (TF semantics, rounding
  /// the asymmetric TF pad up to symmetric).
  static std::int64_t same_pad(std::int64_t in, std::int64_t window,
                               std::int64_t stride);

 private:
  int add_op(Op op);
  std::vector<Op> ops_;
  std::map<std::string, int> by_name_;
};

/// Executes a Graph: allocates all tensors on the handle's device (tracked),
/// initializes variables deterministically, runs forward and tape-reversed
/// backward passes, and times per-op like the TF benchmark scripts.
class Session {
 public:
  Session(Graph& graph, core::UcudnnHandle& handle);
  ~Session();

  void initialize(std::uint64_t seed = 1);
  void run_forward();
  void run_backward();

  struct OpTime {
    std::string name;
    double forward_ms = 0.0;
    double backward_ms = 0.0;
  };
  /// One warmup iteration, then `iterations` timed fwd+bwd passes.
  std::vector<OpTime> time(int iterations);
  double last_iteration_ms() const noexcept { return last_iteration_ms_; }

  float* data(int op) { return buffers_.at(static_cast<std::size_t>(op)).data; }
  /// Gradient storage is allocated on first use. Virtual mode has none
  /// (null), so the tracked footprint of timing runs matches forward-pass
  /// memory.
  float* grad(int op);

 private:
  struct OpBuffers {
    float* data = nullptr;
    float* grad = nullptr;
    float* aux = nullptr;   // argmax / saved stats / probabilities
    std::int64_t count = 0;
  };

  void forward_op(int index);
  void backward_op(int index);
  /// Announces every Conv2d kernel (forward + both backward passes) to
  /// μ-cuDNN with its op label and the default workspace limit, mirroring
  /// TensorFlow's GetConvolution*Algorithm phase. Runs before the first
  /// execution so the WD kernel list is complete at finalization and
  /// backward kernels never hit the unrecorded-fallback path.
  void register_conv_kernels();

  bool registered_kernels_ = false;

  Graph& graph_;
  core::UcudnnHandle& handle_;
  std::shared_ptr<device::Device> dev_;
  bool virtual_mode_;
  std::vector<OpBuffers> buffers_;
  std::vector<void*> owned_;  // allocations to release (pooled virtual mode)
  bool initialized_ = false;
  double last_iteration_ms_ = 0.0;
};

}  // namespace ucudnn::tfmini
