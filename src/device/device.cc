#include "device/device.h"

#include <algorithm>
#include <cstdlib>

#include "common/fault_injection.h"
#include "common/status.h"
#include "kernels/registry.h"

namespace ucudnn::device {

DeviceSpec k80_spec() {
  // Per GK210 die: the 8.73 SP TFlop/s / 480 GB/s in Table I are per board
  // (two dies); frameworks see each die as one device.
  return DeviceSpec{.name = "K80",
                    .peak_sp_gflops = 4365.0,
                    .mem_bandwidth_gbs = 240.0,
                    .memory_bytes = std::size_t{12} << 30,
                    .kernel_overhead_us = 8.0,
                    .batch_half = 6.0};
}

DeviceSpec p100_sxm2_spec() {
  return DeviceSpec{.name = "P100-SXM2",
                    .peak_sp_gflops = 10600.0,
                    .mem_bandwidth_gbs = 732.0,
                    .memory_bytes = std::size_t{16} << 30,
                    .kernel_overhead_us = 6.0,
                    .batch_half = 10.0};
}

DeviceSpec v100_sxm2_spec() {
  return DeviceSpec{.name = "V100-SXM2",
                    .peak_sp_gflops = 15700.0,
                    .mem_bandwidth_gbs = 900.0,
                    .memory_bytes = std::size_t{16} << 30,
                    .kernel_overhead_us = 5.0,
                    .batch_half = 14.0};
}

DeviceSpec host_cpu_spec() {
  return DeviceSpec{.name = "HostCpu",
                    .peak_sp_gflops = 200.0,
                    .mem_bandwidth_gbs = 30.0,
                    .memory_bytes = std::size_t{64} << 30,
                    .kernel_overhead_us = 20.0,
                    .batch_half = 2.0,
                    .measured = true};
}

Device::Device(DeviceSpec spec, int ordinal)
    : spec_(std::move(spec)), ordinal_(ordinal) {}

double Device::model_time_ms(ConvKernelType type, int algo,
                             const kernels::ConvProblem& p) const {
  const double flops = kernels::algo_flops(type, algo, p);
  const double traffic = kernels::algo_traffic_bytes(type, algo, p);
  const double batch = static_cast<double>(p.batch());
  const double utilization = batch / (batch + spec_.batch_half);
  const double eff = kernels::algo_efficiency(type, algo) * utilization;
  const double compute_ms = flops / (eff * spec_.peak_sp_gflops * 1e9) * 1e3;
  const double memory_ms =
      traffic / (spec_.mem_bandwidth_gbs * 1e9) * 1e3;
  return spec_.kernel_overhead_us * 1e-3 + std::max(compute_ms, memory_ms);
}

void* Device::allocate(std::size_t bytes, const std::string& tag) {
  // Before any state is touched, so an injected OOM leaves nothing to undo.
  FaultInjector::instance().fail_point(FaultSite::kAlloc);
  MutexLock lock(mutex_);
  check(in_use_ + bytes <= spec_.memory_bytes, Status::kAllocFailed,
        spec_.name + ": out of device memory allocating " +
            std::to_string(bytes) + " bytes (" + std::to_string(in_use_) +
            " in use of " + std::to_string(spec_.memory_bytes) + ")");
  void* ptr = std::malloc(std::max<std::size_t>(bytes, 1));
  check(ptr != nullptr, Status::kAllocFailed, "host allocation failed");
  allocations_[ptr] = Allocation{bytes, tag};
  in_use_ += bytes;
  peak_ = std::max(peak_, in_use_);
  tag_usage_[tag] += bytes;
  tag_peak_[tag] = std::max(tag_peak_[tag], tag_usage_[tag]);
  return ptr;
}

void Device::deallocate(void* ptr) noexcept {
  if (ptr == nullptr) return;
  MutexLock lock(mutex_);
  auto it = allocations_.find(ptr);
  if (it == allocations_.end()) return;
  in_use_ -= it->second.bytes;
  tag_usage_[it->second.tag] -= it->second.bytes;
  allocations_.erase(it);
  std::free(ptr);
}

std::size_t Device::bytes_in_use() const {
  MutexLock lock(mutex_);
  return in_use_;
}

std::size_t Device::peak_bytes() const {
  MutexLock lock(mutex_);
  return peak_;
}

std::map<std::string, std::size_t> Device::usage_by_tag() const {
  MutexLock lock(mutex_);
  return tag_usage_;
}

std::map<std::string, std::size_t> Device::peak_by_tag() const {
  MutexLock lock(mutex_);
  return tag_peak_;
}

void Device::advance_clock_ms(double ms) { advance_stream_ms(0, ms); }

void Device::advance_stream_ms(int stream, double ms) {
  MutexLock lock(mutex_);
  stream_clocks_[stream] += ms;
}

double Device::clock_ms() const {
  MutexLock lock(mutex_);
  double wall = 0.0;
  for (const auto& [stream, clock] : stream_clocks_) {
    (void)stream;
    wall = std::max(wall, clock);
  }
  return wall;
}

double Device::stream_clock_ms(int stream) const {
  MutexLock lock(mutex_);
  const auto it = stream_clocks_.find(stream);
  return it == stream_clocks_.end() ? 0.0 : it->second;
}

void Device::sync_streams() {
  MutexLock lock(mutex_);
  double wall = 0.0;
  for (const auto& [stream, clock] : stream_clocks_) {
    (void)stream;
    wall = std::max(wall, clock);
  }
  for (auto& [stream, clock] : stream_clocks_) {
    (void)stream;
    clock = wall;
  }
}

void Device::reset_clock() {
  MutexLock lock(mutex_);
  stream_clocks_.clear();
}

Node::Node(const DeviceSpec& spec, int device_count) {
  check_param(device_count >= 1, "node needs at least one device");
  devices_.reserve(static_cast<std::size_t>(device_count));
  for (int i = 0; i < device_count; ++i) {
    devices_.push_back(std::make_shared<Device>(spec, i));
  }
}

}  // namespace ucudnn::device
