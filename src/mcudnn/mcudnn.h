// mcudnn — the cuDNN substitute this reproduction is built on.
//
// Mirrors the cuDNN 7 convolution API surface: an opaque handle bound to one
// device, descriptor-driven convolution calls with alpha/beta scaling,
// workspace-size queries, a Get*Algorithm heuristic with the infamous
// fall-back-to-slower-algorithm-when-one-byte-short semantics (Fig. 1 of the
// paper), and a Find*Algorithm benchmarking entry point that returns a
// performance-sorted list of all algorithms.
//
// Execution modes:
//  * kNumeric — kernels really run (host CPU). On a simulated device the
//    virtual clock additionally advances by the modeled time.
//  * kVirtual — kernels are not executed; only the virtual clock advances.
//    Data pointers may be null. This is how network-scale paper figures are
//    regenerated in milliseconds.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "device/device.h"
#include "kernels/conv_problem.h"
#include "kernels/registry.h"
#include "tensor/tensor.h"

namespace ucudnn::mcudnn {

enum class ExecMode { kNumeric, kVirtual };

/// cudnnConvolutionFwdPreference_t equivalent.
enum class AlgoPreference {
  kNoWorkspace,
  kPreferFastest,
  kSpecifyWorkspaceLimit,
};

/// The workspace limit a preference stands for: 0 for kNoWorkspace, no
/// limit for kPreferFastest, `ws_limit` for kSpecifyWorkspaceLimit.
constexpr std::size_t workspace_limit(AlgoPreference preference,
                                      std::size_t ws_limit) {
  return preference == AlgoPreference::kNoWorkspace ? 0
         : preference == AlgoPreference::kPreferFastest
             ? std::numeric_limits<std::size_t>::max()
             : ws_limit;
}

/// cudnnConvolution*AlgoPerf_t equivalent.
struct AlgoPerf {
  int algo = -1;
  Status status = Status::kNotSupported;
  double time_ms = -1.0;  // modeled (simulated device) or measured (host CPU)
  std::size_t memory = 0; // required workspace bytes
};

/// mcudnnHandle_t equivalent: bound to one device, carries the exec mode.
class Handle {
 public:
  /// Defaults to a fresh host-CPU device in numeric mode.
  Handle();
  /// Throws kBadParam for a null device.
  explicit Handle(std::shared_ptr<device::Device> dev);
  Handle(std::shared_ptr<device::Device> dev, ExecMode mode);

  device::Device& device() const noexcept { return *device_; }
  const std::shared_ptr<device::Device>& device_ptr() const noexcept {
    return device_;
  }

  ExecMode exec_mode() const noexcept { return mode_; }
  void set_exec_mode(ExecMode mode) noexcept { mode_ = mode; }

  /// cudnnSetStream equivalent: Virtual-mode kernels advance this stream's
  /// clock, so kernels on different streams overlap in modeled time.
  int stream() const noexcept { return stream_; }
  void set_stream(int stream) noexcept { stream_ = stream; }

 private:
  std::shared_ptr<device::Device> device_;
  ExecMode mode_;
  int stream_ = 0;
};

/// Assembles and validates a ConvProblem from cuDNN-style descriptors.
/// Descriptor roles per kernel type (matching the cuDNN signatures):
///   Forward:        in = x,  out = y   (problem.x = in,  problem.y = out)
///   BackwardData:   in = dy, out = dx  (problem.x = out, problem.y = in)
///   BackwardFilter: in = x,  out = dy  (problem.x = in,  problem.y = out)
/// Throws Error(kBadParam) on inconsistent shapes.
kernels::ConvProblem make_problem(ConvKernelType type, const TensorDesc& in,
                                  const FilterDesc& w, const ConvGeometry& conv,
                                  const TensorDesc& out);

/// cudnnGetConvolution*WorkspaceSize: exact requirement of one algorithm.
/// Throws Error(kNotSupported) if the algorithm cannot run this problem.
std::size_t workspace_size(const Handle& handle, ConvKernelType type,
                           const kernels::ConvProblem& p, int algo);

/// cudnnFindConvolution*Algorithm: evaluates every algorithm (modeled time on
/// simulated devices, wall-clock on the host CPU) and returns results sorted
/// fastest-first; unsupported algorithms trail with kNotSupported status.
std::vector<AlgoPerf> find_algorithms(const Handle& handle, ConvKernelType type,
                                      const kernels::ConvProblem& p);

/// find_algorithms restricted to the algorithm ids in `algos`: only those
/// are evaluated (and consult the kernel fault site), in one call. On the
/// host CPU the operands are allocated and filled once per call, with a
/// workspace sized for the largest need among `algos`.
std::vector<AlgoPerf> find_algorithms(const Handle& handle, ConvKernelType type,
                                      const kernels::ConvProblem& p,
                                      const std::vector<int>& algos);

/// cudnnGetConvolution*Algorithm: cheapest algorithm honoring the preference.
/// kSpecifyWorkspaceLimit picks the FASTEST algorithm whose workspace fits
/// `ws_limit` — one byte short of the fastest algorithm's need and you get
/// the next (slower) one, exactly the cliff μ-cuDNN exists to fix.
int get_algorithm(const Handle& handle, ConvKernelType type,
                  const kernels::ConvProblem& p, AlgoPreference preference,
                  std::size_t ws_limit = std::numeric_limits<std::size_t>::max());

/// cudnnConvolution{Forward,BackwardData,BackwardFilter}. Operand roles:
///   Forward:        a = x,  b = w,  out = y
///   BackwardData:   a = dy, b = w,  out = dx
///   BackwardFilter: a = x,  b = dy, out = dw
/// In kVirtual mode data pointers are ignored (may be null) and only the
/// device clock advances.
void convolution(const Handle& handle, ConvKernelType type,
                 const kernels::ConvProblem& p, float alpha, const float* a,
                 const float* b, float beta, float* out, int algo,
                 void* workspace, std::size_t workspace_bytes);

// ---------------------------------------------------------------------------
// cuDNN-shaped Status-returning C-style API (what a framework integrates
// against; μ-cuDNN overloads the same entry points for its wrapper handle).
// ---------------------------------------------------------------------------

[[nodiscard]] Status mcudnnGetConvolutionWorkspaceSize(const Handle& handle,
                                         ConvKernelType type,
                                         const TensorDesc& in,
                                         const FilterDesc& w,
                                         const ConvGeometry& conv,
                                         const TensorDesc& out, int algo,
                                         std::size_t* bytes);

[[nodiscard]] Status mcudnnGetConvolutionAlgorithm(const Handle& handle, ConvKernelType type,
                                     const TensorDesc& in, const FilterDesc& w,
                                     const ConvGeometry& conv,
                                     const TensorDesc& out,
                                     AlgoPreference preference,
                                     std::size_t ws_limit, int* algo);

[[nodiscard]] Status mcudnnFindConvolutionAlgorithm(const Handle& handle, ConvKernelType type,
                                      const TensorDesc& in, const FilterDesc& w,
                                      const ConvGeometry& conv,
                                      const TensorDesc& out,
                                      int requested_count, int* returned_count,
                                      AlgoPerf* results);

[[nodiscard]] Status mcudnnConvolutionForward(const Handle& handle, float alpha,
                                const TensorDesc& x_desc, const float* x,
                                const FilterDesc& w_desc, const float* w,
                                const ConvGeometry& conv, int algo,
                                void* workspace, std::size_t workspace_bytes,
                                float beta, const TensorDesc& y_desc, float* y);

[[nodiscard]] Status mcudnnConvolutionBackwardData(const Handle& handle, float alpha,
                                     const FilterDesc& w_desc, const float* w,
                                     const TensorDesc& dy_desc, const float* dy,
                                     const ConvGeometry& conv, int algo,
                                     void* workspace,
                                     std::size_t workspace_bytes, float beta,
                                     const TensorDesc& dx_desc, float* dx);

[[nodiscard]] Status mcudnnConvolutionBackwardFilter(const Handle& handle, float alpha,
                                       const TensorDesc& x_desc, const float* x,
                                       const TensorDesc& dy_desc,
                                       const float* dy, const ConvGeometry& conv,
                                       int algo, void* workspace,
                                       std::size_t workspace_bytes, float beta,
                                       const FilterDesc& dw_desc, float* dw);

}  // namespace ucudnn::mcudnn
