// Net: the mini-Caffe network container. A builder API assembles a DAG of
// layers over named blobs (layers execute in insertion order, which the
// builder keeps topological); `time()` reproduces Caffe's `caffe time`
// command (per-layer forward/backward breakdown); `memory_report()` yields
// the Fig. 12 per-layer memory accounting straight from the Device's
// tagged allocations.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/ucudnn.h"
#include "frameworks/caffepp/layers.h"

namespace ucudnn::caffepp {

struct NetOptions {
  /// Per-layer workspace limit the framework announces to μ-cuDNN via
  /// GetConvolution*Algorithm (Caffe default: 8 MiB).
  std::size_t workspace_limit = std::size_t{8} << 20;
  /// Allocate diff blobs (off for inference-only nets).
  bool with_diffs = true;
};

class Net {
 public:
  Net(core::UcudnnHandle& handle, std::string name, NetOptions options = {});

  const std::string& name() const noexcept { return name_; }
  core::UcudnnHandle& handle() noexcept { return ctx_.handle; }

  // ---- builder (each returns the top blob name for chaining) ----
  std::string input(const std::string& name, const TensorShape& shape);
  std::string conv(const std::string& name, const std::string& bottom,
                   std::int64_t out_channels, std::int64_t kernel,
                   std::int64_t stride = 1, std::int64_t pad = 0,
                   bool bias = true, std::int64_t groups = 1);
  std::string relu(const std::string& name, const std::string& bottom,
                   bool in_place = true);
  std::string pool_max(const std::string& name, const std::string& bottom,
                       std::int64_t window, std::int64_t stride,
                       std::int64_t pad = 0);
  std::string pool_avg(const std::string& name, const std::string& bottom,
                       std::int64_t window, std::int64_t stride,
                       std::int64_t pad = 0);
  std::string lrn(const std::string& name, const std::string& bottom,
                  std::int64_t local_size = 5, float alpha = 1e-4f,
                  float beta = 0.75f, float k = 1.0f);
  std::string fc(const std::string& name, const std::string& bottom,
                 std::int64_t out_features, bool bias = true);
  std::string batch_norm(const std::string& name, const std::string& bottom);
  std::string eltwise_sum(const std::string& name, const std::string& a,
                          const std::string& b);
  std::string concat(const std::string& name,
                     const std::vector<std::string>& bottoms);
  std::string dropout(const std::string& name, const std::string& bottom,
                      float ratio = 0.5f);
  std::string softmax_loss(const std::string& name, const std::string& bottom);

  // ---- execution ----
  /// Deterministic parameter (and input) initialization; no-op in Virtual
  /// mode where tensor contents are never touched.
  void init(std::uint64_t seed = 1);
  void forward();
  void backward();

  struct LayerTime {
    std::string name;
    double forward_ms = 0.0;
    double backward_ms = 0.0;
  };
  /// `caffe time` equivalent: one warmup iteration (which also triggers
  /// μ-cuDNN's benchmarking/optimization), then `iterations` timed
  /// forward+backward passes. Returns the per-layer average breakdown.
  std::vector<LayerTime> time(int iterations);

  /// Total of the last time() run, ms per iteration.
  double last_iteration_ms() const noexcept { return last_iteration_ms_; }

  // ---- introspection ----
  Blob* blob(const std::string& name);
  const std::vector<std::unique_ptr<Layer>>& layers() const noexcept {
    return layers_;
  }
  /// Convolution problems by layer name (for benches that re-derive configs).
  std::map<std::string, kernels::ConvProblem> conv_problems() const;

  struct LayerMemory {
    std::size_t data = 0;   // activations (data + diff)
    std::size_t param = 0;  // weights/bias (data + diff)
    std::size_t aux = 0;    // layer-internal buffers
    std::size_t workspace = 0;
    std::size_t total() const noexcept {
      return data + param + aux + workspace;
    }
  };
  /// Per-layer memory from the device's tagged allocations. Workspace tags
  /// ("<layer>(Forward):ws" or the shared "wd_arena") are attributed to
  /// their layer; the arena appears under "__wd_arena__".
  std::map<std::string, LayerMemory> memory_report() const;

 private:
  Blob* make_blob(const std::string& name, const TensorShape& shape);
  std::string pool(const std::string& name, const std::string& bottom,
                   const frameworks::ops::Pool& op);
  void seed_top_diff();

  std::string name_;
  NetOptions options_;
  LayerContext ctx_;
  std::map<std::string, std::unique_ptr<Blob>> blobs_;
  std::vector<std::string> inputs_;
  std::vector<std::unique_ptr<Layer>> layers_;
  std::string last_top_;
  double last_iteration_ms_ = 0.0;
  bool initialized_ = false;
};

}  // namespace ucudnn::caffepp
