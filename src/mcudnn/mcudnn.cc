#include "mcudnn/mcudnn.h"

#include <algorithm>
#include <optional>

#include "analysis/workspace_audit.h"
#include "common/aligned_buffer.h"
#include "common/fault_injection.h"
#include "common/status.h"
#include "common/timer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ucudnn::mcudnn {

namespace {

// Member-initializer validation: the mode is read off the device before any
// constructor body runs.
std::shared_ptr<device::Device> non_null(std::shared_ptr<device::Device> dev) {
  check_param(dev != nullptr, "mcudnn::Handle needs a device (got null)");
  return dev;
}

}  // namespace

Handle::Handle()
    : device_(std::make_shared<device::Device>(device::host_cpu_spec())),
      mode_(ExecMode::kNumeric) {}

Handle::Handle(std::shared_ptr<device::Device> dev)
    : device_(non_null(std::move(dev))),
      mode_(device_->is_simulated() ? ExecMode::kVirtual : ExecMode::kNumeric) {
}

Handle::Handle(std::shared_ptr<device::Device> dev, ExecMode mode)
    : device_(non_null(std::move(dev))), mode_(mode) {}

kernels::ConvProblem make_problem(ConvKernelType type, const TensorDesc& in,
                                  const FilterDesc& w, const ConvGeometry& conv,
                                  const TensorDesc& out) {
  switch (type) {
    case ConvKernelType::kForward:
    case ConvKernelType::kBackwardFilter: {
      const kernels::ConvProblem p(in.shape, w, conv);
      check_param(p.y == out.shape,
                  "output descriptor " + out.shape.to_string() +
                      " does not match convolution output " + p.y.to_string());
      return p;
    }
    case ConvKernelType::kBackwardData: {
      // `out` is dx (the problem's input side), `in` is dy.
      const kernels::ConvProblem p(out.shape, w, conv);
      check_param(p.y == in.shape,
                  "dy descriptor " + in.shape.to_string() +
                      " does not match convolution output " + p.y.to_string());
      return p;
    }
  }
  throw Error(Status::kBadParam, "unknown kernel type");
}

std::size_t workspace_size(const Handle& handle, ConvKernelType type,
                           const kernels::ConvProblem& p, int algo) {
  (void)handle;
  return kernels::algo_workspace(type, algo, p);
}

namespace {

// Scratch operands for timing algorithms on the host CPU, allocated and
// filled once per find_algorithms call, like the buffers
// cudnnFindConvolutionForwardAlgorithm allocates internally.
struct Scratch {
  AlignedBuffer<float> a, b, out;
  AlignedBuffer<char> ws;

  Scratch(ConvKernelType type, const kernels::ConvProblem& p,
          std::size_t ws_bytes) {
    const kernels::OperandCounts n = kernels::operand_counts(type, p);
    a = AlignedBuffer<float>(static_cast<std::size_t>(n.a));
    b = AlignedBuffer<float>(static_cast<std::size_t>(n.b));
    out = AlignedBuffer<float>(static_cast<std::size_t>(n.out));
    fill_constant(a.data(), n.a, 0.5f);
    fill_constant(b.data(), n.b, 0.25f);
    fill_constant(out.data(), n.out, 0.0f);
    ws = AlignedBuffer<char>(ws_bytes);
  }
};

// Wall-clock measurement of one algorithm on the host CPU: one warmup, then
// the timed run.
double measure_algo_ms(ConvKernelType type, const kernels::ConvProblem& p,
                       int algo, Scratch& s) {
  kernels::execute(type, algo, p, s.a.data(), s.b.data(), s.out.data(), 1.0f,
                   0.0f, s.ws.data(), s.ws.bytes());
  Timer timer;
  kernels::execute(type, algo, p, s.a.data(), s.b.data(), s.out.data(), 1.0f,
                   0.0f, s.ws.data(), s.ws.bytes());
  return timer.elapsed_ms();
}

// Successful results first, fastest first; the rest keep their order.
void sort_by_time(std::vector<AlgoPerf>& results) {
  std::stable_sort(results.begin(), results.end(),
                   [](const AlgoPerf& l, const AlgoPerf& r) {
                     const bool lo = l.status == Status::kSuccess;
                     const bool ro = r.status == Status::kSuccess;
                     if (lo != ro) return lo;
                     if (!lo) return false;
                     return l.time_ms < r.time_ms;
                   });
}

}  // namespace

std::vector<AlgoPerf> find_algorithms(const Handle& handle, ConvKernelType type,
                                      const kernels::ConvProblem& p) {
  std::vector<int> algos(static_cast<std::size_t>(kernels::algo_count(type)));
  for (std::size_t i = 0; i < algos.size(); ++i) algos[i] = static_cast<int>(i);
  return find_algorithms(handle, type, p, algos);
}

std::vector<AlgoPerf> find_algorithms(const Handle& handle, ConvKernelType type,
                                      const kernels::ConvProblem& p,
                                      const std::vector<int>& algos) {
  const telemetry::ScopedSpan span("find_algorithms",
                                   [&] { return p.to_string(); });
  {
    static telemetry::Counter calls =
        telemetry::MetricsRegistry::instance().counter(
            "ucudnn.mcudnn.find_algorithms");
    calls.add(1);
  }
  std::vector<AlgoPerf> results;
  results.reserve(algos.size());
  std::size_t max_workspace = 0;
  for (const int algo : algos) {
    AlgoPerf perf;
    perf.algo = algo;
    if (kernels::algo_supported(type, algo, p)) {
      perf.status = Status::kSuccess;  // until the evaluation fails
      perf.memory = kernels::algo_workspace(type, algo, p);
      max_workspace = std::max(max_workspace, perf.memory);
    }
    results.push_back(perf);
  }

  const bool simulated = handle.device().is_simulated();
  std::optional<Scratch> scratch;
  std::optional<analysis::ScopedAuditContext> audit_context;
  for (AlgoPerf& perf : results) {
    if (perf.status != Status::kSuccess) continue;  // unsupported
    if (FaultInjector::instance().armed() &&
        FaultInjector::instance().should_fail(FaultSite::kKernel)) {
      // Benchmarking observes the failure instead of throwing, exactly like
      // cudnnFind* reporting a per-algorithm status.
      perf.status = Status::kExecutionFailed;
      continue;
    }
    if (simulated) {
      perf.time_ms = handle.device().model_time_ms(type, perf.algo, p);
      continue;
    }
    if (!scratch) {
      scratch.emplace(type, p, max_workspace);
      audit_context.emplace("find_algorithms");
    }
    perf.time_ms = measure_algo_ms(type, p, perf.algo, *scratch);
  }
  sort_by_time(results);
  return results;
}

int get_algorithm(const Handle& handle, ConvKernelType type,
                  const kernels::ConvProblem& p, AlgoPreference preference,
                  std::size_t ws_limit) {
  const std::size_t limit = workspace_limit(preference, ws_limit);
  const auto results = find_algorithms(handle, type, p);
  for (const AlgoPerf& perf : results) {
    if (perf.status == Status::kSuccess && perf.memory <= limit) {
      return perf.algo;
    }
  }
  throw Error(Status::kNotSupported,
              "no algorithm fits workspace limit " + std::to_string(limit) +
                  " for " + p.to_string());
}

void convolution(const Handle& handle, ConvKernelType type,
                 const kernels::ConvProblem& p, float alpha, const float* a,
                 const float* b, float beta, float* out, int algo,
                 void* workspace, std::size_t workspace_bytes) {
  const telemetry::ScopedSpan span("mcudnn_conv", [&] {
    return p.to_string() + " algo=" + std::to_string(algo);
  });
  {
    static telemetry::Counter calls =
        telemetry::MetricsRegistry::instance().counter(
            "ucudnn.mcudnn.convolutions");
    calls.add(1);
  }
  // The launch-path checks build their message only when they fail.
  if (!kernels::algo_supported(type, algo, p)) {
    throw Error(Status::kNotSupported,
                std::string(kernels::algo_name(type, algo)) +
                    " unsupported for " + p.to_string());
  }
  // Before any operand byte is touched: a failed launch never has partial
  // effects, which is what makes the caller's retry bitwise-safe.
  FaultInjector::instance().fail_point(FaultSite::kKernel);
  device::Device& dev = handle.device();
  if (handle.exec_mode() == ExecMode::kVirtual) {
    // No data touched; advance the virtual clock by the modeled time. The
    // workspace-size contract is still enforced so that virtual runs catch
    // configuration bugs.
    const std::size_t required = kernels::algo_workspace(type, algo, p);
    if (workspace_bytes < required) {
      throw Error(Status::kBadParam,
                  "virtual execution with insufficient workspace: need " +
                      std::to_string(required) + ", got " +
                      std::to_string(workspace_bytes));
    }
    dev.advance_stream_ms(handle.stream(), dev.model_time_ms(type, algo, p));
    return;
  }
  if (a == nullptr || b == nullptr || out == nullptr) {
    throw Error(Status::kBadParam, "null operand in numeric convolution");
  }
  kernels::execute(type, algo, p, a, b, out, alpha, beta, workspace,
                   workspace_bytes);
  if (dev.is_simulated()) {
    dev.advance_stream_ms(handle.stream(), dev.model_time_ms(type, algo, p));
  }
}

// ---------------------------------------------------------------------------

Status mcudnnGetConvolutionWorkspaceSize(const Handle& handle,
                                         ConvKernelType type,
                                         const TensorDesc& in,
                                         const FilterDesc& w,
                                         const ConvGeometry& conv,
                                         const TensorDesc& out, int algo,
                                         std::size_t* bytes) {
  UCUDNN_API_BODY({
    check_param(bytes != nullptr, "null output pointer");
    *bytes = workspace_size(handle, type, make_problem(type, in, w, conv, out),
                            algo);
  });
}

Status mcudnnGetConvolutionAlgorithm(const Handle& handle, ConvKernelType type,
                                     const TensorDesc& in, const FilterDesc& w,
                                     const ConvGeometry& conv,
                                     const TensorDesc& out,
                                     AlgoPreference preference,
                                     std::size_t ws_limit, int* algo) {
  UCUDNN_API_BODY({
    check_param(algo != nullptr, "null output pointer");
    *algo = get_algorithm(handle, type, make_problem(type, in, w, conv, out),
                          preference, ws_limit);
  });
}

Status mcudnnFindConvolutionAlgorithm(const Handle& handle, ConvKernelType type,
                                      const TensorDesc& in, const FilterDesc& w,
                                      const ConvGeometry& conv,
                                      const TensorDesc& out,
                                      int requested_count, int* returned_count,
                                      AlgoPerf* results) {
  UCUDNN_API_BODY({
    check_param(returned_count != nullptr && results != nullptr,
                "null output pointer");
    const auto perfs =
        find_algorithms(handle, type, make_problem(type, in, w, conv, out));
    const int n = std::min<int>(requested_count, static_cast<int>(perfs.size()));
    for (int i = 0; i < n; ++i) results[i] = perfs[static_cast<std::size_t>(i)];
    *returned_count = n;
  });
}

Status mcudnnConvolutionForward(const Handle& handle, float alpha,
                                const TensorDesc& x_desc, const float* x,
                                const FilterDesc& w_desc, const float* w,
                                const ConvGeometry& conv, int algo,
                                void* workspace, std::size_t workspace_bytes,
                                float beta, const TensorDesc& y_desc, float* y) {
  UCUDNN_API_BODY({
    convolution(handle, ConvKernelType::kForward,
                make_problem(ConvKernelType::kForward, x_desc, w_desc, conv,
                             y_desc),
                alpha, x, w, beta, y, algo, workspace, workspace_bytes);
  });
}

Status mcudnnConvolutionBackwardData(const Handle& handle, float alpha,
                                     const FilterDesc& w_desc, const float* w,
                                     const TensorDesc& dy_desc, const float* dy,
                                     const ConvGeometry& conv, int algo,
                                     void* workspace,
                                     std::size_t workspace_bytes, float beta,
                                     const TensorDesc& dx_desc, float* dx) {
  UCUDNN_API_BODY({
    convolution(handle, ConvKernelType::kBackwardData,
                make_problem(ConvKernelType::kBackwardData, dy_desc, w_desc,
                             conv, dx_desc),
                alpha, dy, w, beta, dx, algo, workspace, workspace_bytes);
  });
}

Status mcudnnConvolutionBackwardFilter(const Handle& handle, float alpha,
                                       const TensorDesc& x_desc, const float* x,
                                       const TensorDesc& dy_desc,
                                       const float* dy, const ConvGeometry& conv,
                                       int algo, void* workspace,
                                       std::size_t workspace_bytes, float beta,
                                       const FilterDesc& dw_desc, float* dw) {
  UCUDNN_API_BODY({
    convolution(handle, ConvKernelType::kBackwardFilter,
                make_problem(ConvKernelType::kBackwardFilter, x_desc, dw_desc,
                             conv, dy_desc),
                alpha, x, dy, beta, dw, algo, workspace, workspace_bytes);
  });
}

}  // namespace ucudnn::mcudnn
