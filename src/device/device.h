// Device abstraction: the paper measures real GPUs (K80, P100-SXM2,
// V100-SXM2); this reproduction substitutes a calibrated device simulator
// plus a real host-CPU backend (see DESIGN.md §2).
//
// A Device provides:
//  * a spec (peak flop/s, memory bandwidth, memory capacity, launch overhead)
//    used by the analytic kernel-time model,
//  * tracked "device memory" allocation (throws kAllocFailed past capacity;
//    records current/peak/per-tag usage — the basis of the Fig. 12 memory
//    breakdowns),
//  * a virtual clock advanced by modeled kernel times when executing in
//    Virtual mode (network-scale benchmarks finish in milliseconds).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/thread_annotations.h"
#include "kernels/conv_problem.h"

namespace ucudnn::device {

/// Static description of one accelerator.
struct DeviceSpec {
  std::string name;
  double peak_sp_gflops = 0.0;      // single-precision peak
  double mem_bandwidth_gbs = 0.0;   // DRAM bandwidth
  std::size_t memory_bytes = 0;     // capacity ("GPU memory")
  double kernel_overhead_us = 5.0;  // fixed per-kernel launch cost
  double batch_half = 8.0;          // micro-batch size at 50% utilization
  bool measured = false;            // true: run & time real kernels (host CPU)
};

/// Profiles of the paper's three evaluation GPUs (Table I; per-GPU numbers —
/// the K80 figures are per GK210 die) and the host CPU backend.
DeviceSpec k80_spec();
DeviceSpec p100_sxm2_spec();
DeviceSpec v100_sxm2_spec();
DeviceSpec host_cpu_spec();

class Device {
 public:
  explicit Device(DeviceSpec spec);

  const DeviceSpec& spec() const noexcept { return spec_; }
  bool is_simulated() const noexcept { return !spec_.measured; }

  /// Analytic kernel time: overhead + max(compute-time, memory-time), with
  /// the algorithm's catalog efficiency (kernels::algo_efficiency) and a
  /// small-batch utilization factor n / (n + batch_half). Deterministic.
  /// Milliseconds.
  double model_time_ms(ConvKernelType type, int algo,
                       const kernels::ConvProblem& p) const;

  /// Tracked allocation of "device memory" (really host memory). Throws
  /// Error(kAllocFailed) when the device capacity would be exceeded.
  /// `tag` groups allocations for per-layer reporting.
  void* allocate(std::size_t bytes, const std::string& tag);
  void deallocate(void* ptr) noexcept;

  std::size_t bytes_in_use() const;
  std::size_t peak_bytes() const;
  /// Current bytes per allocation tag.
  std::map<std::string, std::size_t> usage_by_tag() const;
  /// Peak bytes ever held under a tag.
  std::map<std::string, std::size_t> peak_by_tag() const;

  /// Virtual execution clocks. Streams model CUDA streams: kernels on
  /// different streams overlap, so wall time is the maximum stream clock.
  /// advance_clock_ms is shorthand for stream 0.
  void advance_clock_ms(double ms);
  void advance_stream_ms(int stream, double ms);
  /// Wall clock: the maximum over all stream clocks.
  double clock_ms() const;
  double stream_clock_ms(int stream) const;
  /// Joins all streams at the current wall clock (cudaDeviceSynchronize).
  void sync_streams();
  void reset_clock();

 private:
  struct Allocation {
    std::size_t bytes;
    std::string tag;
  };

  DeviceSpec spec_;
  mutable Mutex mutex_{"Device"};
  std::map<void*, Allocation> allocations_ GUARDED_BY(mutex_);
  std::map<std::string, std::size_t> tag_usage_ GUARDED_BY(mutex_);
  std::map<std::string, std::size_t> tag_peak_ GUARDED_BY(mutex_);
  std::size_t in_use_ GUARDED_BY(mutex_) = 0;
  std::size_t peak_ GUARDED_BY(mutex_) = 0;
  std::map<int, double> stream_clocks_ GUARDED_BY(mutex_);
};

}  // namespace ucudnn::device
