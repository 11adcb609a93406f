// perfbench driver: runs one workload and prints its result as the last line
// of stdout. perfbench/README.md explains the workloads, every metric, and
// which layer each per-layer metric belongs to.
//
//   perfbench --workload train_host|sim_resnet50|serve_host --seed N
//             --seconds S --trace 0|1 [--rounds R] [--trace-out FILE]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/aligned_buffer.h"
#include "core/ucudnn.h"
#include "frameworks/caffepp/model_zoo.h"
#include "kernels/registry.h"
#include "serve/server.h"
#include "telemetry/metrics.h"
#include "tensor/tensor.h"

namespace perfbench {

// --- common.h -------------------------------------------------------------

namespace {

// Origin of the Chrome trace timestamps.
const Clock::time_point kTraceEpoch = Clock::now();

}  // namespace

void Result::fail(const std::string& why) {
  correct = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void Result::check_op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    fail(what);
  }
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::string describe(const std::vector<double>& values) {
  char text[160];
  std::snprintf(text, sizeof text, "%.6g [%.6g, %.6g] n=%zu",
                quantile(values, 0.5), quantile(values, 0.25),
                quantile(values, 0.75), values.size());
  return text;
}

Metrics median_over_rounds(const std::vector<Metrics>& rounds) {
  std::map<std::string, std::vector<double>> by_name;
  for (const Metrics& round : rounds) {
    for (const auto& [name, value] : round) by_name[name].push_back(value);
  }
  Metrics medians;
  for (const auto& [name, values] : by_name) {
    medians[name] = median(values);
    std::printf("rounds %s: %s\n", name.c_str(), describe(values).c_str());
  }
  return medians;
}

int SpanLog::open(const char* name) {
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, Clock::now(), Clock::time_point{}});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanLog::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
  stack_.pop_back();
}

void SpanLog::report(const std::vector<const SpanLog*>& logs,
                     const std::string& path) {
  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (const SpanLog* log : logs) {
    std::vector<double> child_ms(log->spans_.size(), 0.0);
    for (const Span& s : log->spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<std::size_t>(s.parent)] +=
            ms_between(s.begin, s.end);
      }
    }
    for (std::size_t i = 0; i < log->spans_.size(); ++i) {
      const Span& s = log->spans_[i];
      const double ms = ms_between(s.begin, s.end);
      Totals& t = by_name[s.name];
      ++t.count;
      t.total_ms += ms;
      t.self_ms += ms - child_ms[i];
    }
  }
  for (const auto& [name, t] : by_name) {
    std::printf("span %-20s count=%-8llu total_ms=%-12.3f self_ms=%.3f\n",
                name.c_str(), static_cast<unsigned long long>(t.count),
                t.total_ms, t.self_ms);
  }
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fputs("{\"traceEvents\":[\n", f);
  const char* separator = "";
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans_) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   separator, s.name, log->tid_,
                   ms_between(kTraceEpoch, s.begin) * 1e3,
                   ms_between(s.begin, s.end) * 1e3);
      separator = ",\n";
    }
  }
  std::fputs("\n]}\n", f);
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench: error writing %s\n", path.c_str());
  } else {
    std::printf("spans written to %s\n", path.c_str());
  }
}

namespace {

using namespace ucudnn;

// --- layer probes ---------------------------------------------------------
// Calls into the library's layers, timed and counted from outside it.

std::uint64_t registry_count(const char* name) {
  return telemetry::MetricsRegistry::instance().counter(name).value();
}

/// Library event counters, read as deltas. The process-wide registry counts
/// whether or not telemetry export is enabled.
struct Counters {
  std::uint64_t find_calls = 0;      ///< mcudnn find_algorithms (benchmarking)
  std::uint64_t benchmark_runs = 0;  ///< Benchmarker::run calls
  std::uint64_t cache_hits = 0;      ///< benchmark-cache lookups that hit
  std::uint64_t cache_misses = 0;
  std::uint64_t plan_misses = 0;     ///< PlanCache misses
  std::uint64_t segments = 0;        ///< executor segments run
  std::uint64_t conv_calls = 0;      ///< mcudnn::convolution launches
  std::uint64_t replans = 0;         ///< executor tail re-plans

  static Counters now() {
    return {registry_count("ucudnn.mcudnn.find_algorithms"),
            registry_count("ucudnn.benchmark.runs"),
            registry_count("ucudnn.benchmark_cache.hits"),
            registry_count("ucudnn.benchmark_cache.misses"),
            registry_count("ucudnn.plan_cache.misses"),
            registry_count("ucudnn.executor.segments"),
            registry_count("ucudnn.mcudnn.convolutions"),
            registry_count("ucudnn.planner.replans")};
  }
  Counters operator-(const Counters& base) const {
    return {find_calls - base.find_calls,
            benchmark_runs - base.benchmark_runs,
            cache_hits - base.cache_hits,
            cache_misses - base.cache_misses,
            plan_misses - base.plan_misses,
            segments - base.segments,
            conv_calls - base.conv_calls,
            replans - base.replans};
  }
};

/// Operands of one kernel in the roles mcudnn::convolution gives them for
/// its type, filled from a seed.
struct Operands {
  AlignedBuffer<float> a, b, out;
};

Operands make_operands(ConvKernelType type, const kernels::ConvProblem& p,
                       std::uint64_t seed) {
  const std::int64_t a =
      type == ConvKernelType::kBackwardData ? p.y.count() : p.x.count();
  const std::int64_t b =
      type == ConvKernelType::kBackwardFilter ? p.y.count() : p.w.count();
  const std::int64_t out = type == ConvKernelType::kForward ? p.y.count()
                           : type == ConvKernelType::kBackwardData
                               ? p.x.count()
                               : p.w.count();
  Operands ops{AlignedBuffer<float>(static_cast<std::size_t>(a)),
               AlignedBuffer<float>(static_cast<std::size_t>(b)),
               AlignedBuffer<float>(static_cast<std::size_t>(out))};
  fill_random(ops.a.data(), a, seed);
  fill_random(ops.b.data(), b, seed + 1);
  fill_random(ops.out.data(), out, seed + 2);
  return ops;
}

/// Pointer arithmetic that keeps virtual-mode null operands null.
template <typename T>
T* at(T* base, std::int64_t offset) {
  return base == nullptr ? nullptr : base + offset;
}

/// Algorithm families the kernel time is split into.
constexpr const char* kFamilies[] = {"gemm", "direct", "fft", "winograd"};
constexpr int kFamilyCount = 4;

int family(ConvKernelType type, int algo) {
  switch (type) {
    case ConvKernelType::kForward:
      if (algo == kernels::fwd_algo::kDirect) return 1;
      if (algo == kernels::fwd_algo::kFft ||
          algo == kernels::fwd_algo::kFftTiling) {
        return 2;
      }
      if (algo == kernels::fwd_algo::kWinograd ||
          algo == kernels::fwd_algo::kWinogradNonfused) {
        return 3;
      }
      return 0;
    case ConvKernelType::kBackwardData:
      if (algo == kernels::bwd_data_algo::kAlgo0) return 1;
      if (algo == kernels::bwd_data_algo::kFft ||
          algo == kernels::bwd_data_algo::kFftTiling) {
        return 2;
      }
      if (algo == kernels::bwd_data_algo::kWinograd ||
          algo == kernels::bwd_data_algo::kWinogradNonfused) {
        return 3;
      }
      return 0;
    case ConvKernelType::kBackwardFilter:
      if (algo == kernels::bwd_filter_algo::kAlgo0) return 1;
      if (algo == kernels::bwd_filter_algo::kFft) return 2;
      return 0;
  }
  return 0;
}

/// The reference algorithm: direct if it runs this problem without
/// workspace (it is the plainest arithmetic), else any zero-workspace one.
int reference_algo(ConvKernelType type, const kernels::ConvProblem& p) {
  const int direct =
      type == ConvKernelType::kForward ? kernels::fwd_algo::kDirect : 0;
  std::vector<int> order{direct};
  for (int algo = 0; algo < kernels::algo_count(type); ++algo) {
    if (algo != direct) order.push_back(algo);
  }
  for (const int algo : order) {
    if (kernels::algo_supported(type, algo, p) &&
        kernels::algo_workspace(type, algo, p) == 0) {
      return algo;
    }
  }
  throw Error(Status::kNotSupported,
              "no zero-workspace algorithm for " + p.to_string());
}

/// Single-shot, no-workspace mcudnn convolution on a fresh HostCpu handle:
/// what micro-batched outputs must equal (the paper's §II-B contract).
void reference_convolution(ConvKernelType type, const kernels::ConvProblem& p,
                           const float* a, const float* b, float beta,
                           float* out) {
  const mcudnn::Handle reference(
      std::make_shared<device::Device>(device::host_cpu_spec()));
  mcudnn::convolution(reference, type, p, 1.0f, a, b, beta, out,
                      reference_algo(type, p), nullptr, 0);
}

/// Bound on max|out - ref| / max(1, max|ref|). FFT and Winograd round
/// differently from the direct reference; the library's tests use 5e-3 too.
constexpr double kTolerance = 5e-3;

/// Runs one kernel through the facade and through the reference on the same
/// seeded operands, output prefilled so `beta` is checked too.
double reference_diff(core::UcudnnHandle& handle, ConvKernelType type,
                      const kernels::ConvProblem& p, float beta,
                      std::uint64_t seed) {
  Operands ops = make_operands(type, p, seed);
  AlignedBuffer<float> expected(ops.out.size());
  std::memcpy(expected.data(), ops.out.data(), ops.out.bytes());
  handle.convolution(type, p, 1.0f, ops.a.data(), ops.b.data(), beta,
                     ops.out.data());
  reference_convolution(type, p, ops.a.data(), ops.b.data(), beta,
                        expected.data());
  return max_rel_diff(ops.out.data(), expected.data(),
                      static_cast<std::int64_t>(ops.out.size()));
}

/// Costs of one pass over a set of kernels, from replaying their plans.
struct KernelReplay {
  std::size_t kernels = 0;
  double facade_ms = 0.0;  ///< Σ median UcudnnHandle::convolution call
  double bare_ms = 0.0;    ///< Σ median bare mcudnn segments of each plan
  double launch_us = 0.0;  ///< median bare launch of one segment, virtual
  double family_ms[kFamilyCount] = {};  ///< bare_ms by algorithm family
  std::vector<double> facade_ms_by_kernel;  ///< kernels that have a plan
};

constexpr int kReplayReps = 5;

/// Replays each kernel's plan kReplayReps times (after one untimed warm
/// call) through the facade (span "replay.convolution") and as its bare
/// mcudnn segments ("replay.segments" > "replay.segment"), then launches the
/// same segments on a virtual-mode handle. `kernels` is a copy: the facade
/// calls may append to the handle's recorded list.
KernelReplay replay_kernels(core::UcudnnHandle& handle,
                            std::vector<core::KernelRequest> kernels,
                            std::uint64_t seed, SpanLog& log) {
  KernelReplay r;
  const bool numeric =
      handle.base().exec_mode() == mcudnn::ExecMode::kNumeric;
  const mcudnn::Handle launcher(
      std::make_shared<device::Device>(handle.device().spec()),
      mcudnn::ExecMode::kVirtual);
  std::vector<double> launches_us;
  for (const core::KernelRequest& k : kernels) {
    const core::Configuration* config =
        handle.configuration_for(k.type, k.problem);
    if (config == nullptr) continue;
    const core::ExecutionPlan plan = core::build_plan(
        k.type, k.problem, *config, core::WorkspaceBinding{});
    Operands ops;
    AlignedBuffer<char> ws;
    if (numeric) {
      ops = make_operands(k.type, k.problem, seed);
      ws = AlignedBuffer<char>(plan.workspace);
    }
    std::vector<double> facade_ms, bare_ms;
    std::vector<std::vector<double>> segment_ms(plan.segments.size());
    for (int rep = 0; rep <= kReplayReps; ++rep) {
      const Clock::time_point t0 = Clock::now();
      {
        const SpanLog::Scope span(log, "replay.convolution");
        handle.convolution(k.type, k.problem, 1.0f, ops.a.data(),
                           ops.b.data(), 0.0f, ops.out.data());
      }
      const Clock::time_point t1 = Clock::now();
      double bare = 0.0;
      {
        const SpanLog::Scope span(log, "replay.segments");
        for (std::size_t i = 0; i < plan.segments.size(); ++i) {
          const core::PlanSegment& seg = plan.segments[i];
          const Clock::time_point s0 = Clock::now();
          {
            const SpanLog::Scope segment_span(log, "replay.segment");
            mcudnn::convolution(
                handle.base(), k.type, k.problem.with_batch(seg.batch), 1.0f,
                at(ops.a.data(), seg.a_offset), at(ops.b.data(), seg.b_offset),
                seg.accumulate ? 1.0f : 0.0f,
                at(ops.out.data(), seg.out_offset), seg.algo, ws.data(),
                plan.workspace);
          }
          const double ms = ms_between(s0, Clock::now());
          bare += ms;
          if (rep > 0) segment_ms[i].push_back(ms);
        }
      }
      if (rep == 0) continue;
      facade_ms.push_back(ms_between(t0, t1));
      bare_ms.push_back(bare);
      for (const core::PlanSegment& seg : plan.segments) {
        const Clock::time_point l0 = Clock::now();
        mcudnn::convolution(launcher, k.type, k.problem.with_batch(seg.batch),
                            1.0f, nullptr, nullptr, 0.0f, nullptr, seg.algo,
                            nullptr, plan.workspace);
        launches_us.push_back(ms_between(l0, Clock::now()) * 1e3);
      }
    }
    const double facade = median(facade_ms);
    r.facade_ms += facade;
    r.facade_ms_by_kernel.push_back(facade);
    r.bare_ms += median(bare_ms);
    for (std::size_t i = 0; i < plan.segments.size(); ++i) {
      r.family_ms[family(k.type, plan.segments[i].algo)] +=
          median(segment_ms[i]);
    }
    ++r.kernels;
  }
  r.launch_us = median(launches_us);
  return r;
}

double mib(std::size_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

/// Bytes the device holds as workspace: per-kernel or shared WR buffers
/// ("...:ws") and the WD arena.
std::size_t workspace_bytes(const device::Device& dev) {
  std::size_t total = 0;
  for (const auto& [tag, bytes] : dev.usage_by_tag()) {
    if (tag == "wd_arena" || tag.ends_with(":ws")) total += bytes;
  }
  return total;
}

/// The plan record: every executed kernel's division and algorithms, then
/// the executing device's peak and workspace memory.
void print_plan_record(const core::UcudnnHandle& handle,
                       const std::string& tag) {
  const telemetry::ExecutionReport report = handle.execution_report();
  for (const telemetry::KernelReport& k : report.kernels) {
    std::printf("plan %s %s: %s\n", tag.c_str(), k.label.c_str(),
                k.plan.c_str());
  }
  const device::Device& dev = handle.device();
  std::printf("plan %s device.peak_mib=%.3f device.workspace_mib=%.3f\n",
              tag.c_str(), mib(dev.peak_bytes()), mib(workspace_bytes(dev)));
}

void add_setup_metrics(const core::UcudnnHandle& handle,
                       const Counters& setup, Metrics& m) {
  m["benchmarker.benchmark_ms"] = handle.total_benchmark_ms();
  m["benchmarker.find_calls"] = static_cast<double>(setup.find_calls);
  m["benchmarker.cache_hits"] = static_cast<double>(setup.cache_hits);
  m["benchmarker.cache_misses"] = static_cast<double>(setup.cache_misses);
  m["planner.optimize_ms"] = handle.total_optimize_ms();
  const core::WdPlan* wd = handle.wd_plan();
  m["planner.wd_variables"] =
      wd == nullptr ? 0.0 : static_cast<double>(wd->num_variables);
}

/// Timed windows must not benchmark or miss the plan cache: either would
/// put set-up work into the steady-state numbers.
void check_window(const Counters& window, Metrics& m, Result& result) {
  m["planner.plan_cache_misses_timed"] =
      static_cast<double>(window.plan_misses);
  m["planner.benchmark_runs_timed"] =
      static_cast<double>(window.benchmark_runs + window.find_calls);
  result.check_op(window.plan_misses == 0 && window.benchmark_runs == 0 &&
                      window.find_calls == 0,
                  "plan-cache misses or benchmarking inside a timed window");
}

void add_per_op_counts(const Counters& window, std::size_t ops, Metrics& m) {
  const double n = std::max(1.0, static_cast<double>(ops));
  m["executor.segments_per_iter"] = static_cast<double>(window.segments) / n;
  m["executor.replans"] = static_cast<double>(window.replans);
  m["mcudnn.conv_calls_per_iter"] = static_cast<double>(window.conv_calls) / n;
}

void add_replay_metrics(const KernelReplay& replay, Metrics& m) {
  const double kernels = std::max(1.0, static_cast<double>(replay.kernels));
  m["facade.conv_call_us"] = replay.facade_ms / kernels * 1e3;
  m["facade.overhead_us"] = (replay.facade_ms - replay.bare_ms) / kernels * 1e3;
  m["mcudnn.launch_us"] = replay.launch_us;
  m["kernels.compute_ms"] = replay.bare_ms;
  for (int f = 0; f < kFamilyCount; ++f) {
    m[std::string("kernels.") + kFamilies[f] + "_pct"] =
        replay.bare_ms > 0.0 ? 100.0 * replay.family_ms[f] / replay.bare_ms
                             : 0.0;
  }
}

void add_device_metrics(const core::UcudnnHandle& handle, Metrics& m) {
  const device::Device& dev = handle.device();
  m["device.peak_mib"] = mib(dev.peak_bytes());
  m["device.workspace_mib"] = mib(workspace_bytes(dev));
  m["planner.est_err_pct"] = handle.execution_report().estimation_error_pct();
}

/// Serving latencies from the best round. A stall of a fraction of a second
/// (other tenants of the machine) cascades into a round of deadline misses,
/// because the admission estimate then refuses requests as unmeetable; such
/// interference only ever slows a round down.
void take_best_round(const std::vector<Metrics>& rounds, Metrics& m) {
  for (const char* name : {"lat_p50_ms", "lat_p90_ms"}) {
    double best = rounds.front().at(name);
    for (const Metrics& r : rounds) best = std::min(best, r.at(name));
    m[name] = best;
  }
}

/// The mean over rounds without the highest and the lowest. Each round's
/// HostCpu plan is a draw from a few plans of distinct speed, and the median
/// of such draws jumps between them; dropping the extremes still discards a
/// round hit by a stall.
void take_trimmed_mean(const std::vector<Metrics>& rounds,
                       std::initializer_list<const char*> names, Metrics& m) {
  for (const char* name : names) {
    std::vector<double> values;
    for (const Metrics& r : rounds) values.push_back(r.at(name));
    std::sort(values.begin(), values.end());
    const std::size_t trim = values.size() >= 3 ? 1 : 0;
    double sum = 0.0;
    for (std::size_t i = trim; i < values.size() - trim; ++i) sum += values[i];
    m[name] = sum / static_cast<double>(values.size() - 2 * trim);
  }
}

/// Simulated-device cost of a plan: one pass of the workload's kernels and
/// the device peak memory meanwhile.
struct ModelRun {
  double ms = 0.0;
  std::size_t peak_bytes = 0;
};

// --- train_host and sim_resnet50: caffepp training loops -----------------

struct NetWorkload {
  const char* name;
  bool simulated;   ///< simulated P100-SXM2 in virtual mode, else HostCpu
  double warmup_s;  ///< discarded prefix of every timed window
  core::Options options;
  std::function<void(caffepp::Net&)> build;
};

std::shared_ptr<device::Device> make_device(bool simulated) {
  return std::make_shared<device::Device>(
      simulated ? device::p100_sxm2_spec() : device::host_cpu_spec());
}

/// Samples of closed-loop forward+backward iterations.
struct Window {
  std::vector<double> lat_ms, backward_ms, late_ms, model_ms;
  double elapsed_s = 0.0;
};

/// Iterates for `seconds` (at least once). In a closed loop an iteration is
/// due when the previous one ends, so `late_ms` is the loop's own gap.
Window run_iterations(caffepp::Net& net, const device::Device& dev,
                      double seconds, SpanLog& log) {
  Window w;
  const Clock::time_point begin = Clock::now();
  const Clock::time_point end = begin + seconds_to_duration(seconds);
  Clock::time_point prev = begin;
  for (;;) {
    const Clock::time_point start = Clock::now();
    if (start >= end && !w.lat_ms.empty()) break;
    const double clock0 = dev.clock_ms();
    Clock::time_point mid;
    {
      const SpanLog::Scope iteration(log, "iteration");
      {
        const SpanLog::Scope span(log, "net.forward");
        net.forward();
      }
      mid = Clock::now();
      const SpanLog::Scope span(log, "net.backward");
      net.backward();
    }
    const Clock::time_point stop = Clock::now();
    w.late_ms.push_back(ms_between(prev, start));
    w.lat_ms.push_back(ms_between(start, stop));
    w.backward_ms.push_back(ms_between(mid, stop));
    w.model_ms.push_back(dev.clock_ms() - clock0);
    prev = stop;
  }
  w.elapsed_s = ms_between(begin, prev) / 1e3;
  return w;
}

/// Every recorded kernel's micro-batched output against the reference.
void check_kernels(core::UcudnnHandle& handle, std::uint64_t seed,
                   Result& result) {
  const std::vector<core::KernelRequest> kernels = handle.recorded_kernels();
  for (const core::KernelRequest& k : kernels) {
    // Caffe accumulates data gradients (beta 1); beta 0.5 on BackwardFilter
    // checks the caller's beta survives the micro-batches' accumulation.
    const float beta = k.type == ConvKernelType::kForward        ? 0.0f
                       : k.type == ConvKernelType::kBackwardData ? 1.0f
                                                                 : 0.5f;
    const double diff = reference_diff(handle, k.type, k.problem, beta, seed);
    result.check_op(diff <= kTolerance,
                    k.label + " differs from the reference by " +
                        std::to_string(diff));
  }
}

/// Every WD assignment covers its kernel's mini-batch and owns a disjoint
/// slice inside the arena.
void check_wd_plan(const core::UcudnnHandle& handle, std::size_t arena_bytes,
                   Result& result) {
  const core::WdPlan* plan = handle.wd_plan();
  const std::vector<core::KernelRequest>& kernels = handle.recorded_kernels();
  result.check_op(plan != nullptr && !handle.degradation_stats().any() &&
                      plan->assignments.size() == kernels.size(),
                  "WD plan missing, degraded, or not covering every kernel");
  if (plan == nullptr) return;
  std::size_t end = 0;
  for (std::size_t i = 0; i < plan->assignments.size() && i < kernels.size();
       ++i) {
    const core::WdAssignment& a = plan->assignments[i];
    std::int64_t covered = 0;
    for (const core::MicroConfig& micro : a.config.micro) {
      covered += micro.batch;
    }
    result.check_op(covered == kernels[i].problem.batch(),
                    kernels[i].label + " micro-batches sum to " +
                        std::to_string(covered));
    result.check_op(a.offset >= end,
                    kernels[i].label + " overlaps the previous arena slice");
    end = a.offset + a.config.workspace;
  }
  result.check_op(end <= arena_bytes && plan->total_workspace <= arena_bytes,
                  "WD assignment does not fit the arena");
}

/// Simulated times are differences of an ever-growing device clock, so the
/// same plan reads the same only up to rounding.
bool same_model(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

/// One round: set up from nothing, warm up, measure, check, and (traced)
/// replay the plans.
Metrics run_net_round(const NetWorkload& w, const RunConfig& cfg, int round,
                      SpanLog& log, Result& result) {
  Metrics m;
  const std::uint64_t seed = cfg.seed * 1000 + static_cast<std::uint64_t>(round);
  const Counters before_setup = Counters::now();
  const Clock::time_point t0 = Clock::now();
  const std::shared_ptr<device::Device> dev = make_device(w.simulated);
  core::UcudnnHandle handle(dev, w.options);
  caffepp::Net net(handle, w.name);
  w.build(net);
  net.init(seed);
  net.forward();
  net.backward();
  m["setup_s"] = ms_between(t0, Clock::now()) / 1e3;
  add_setup_metrics(handle, Counters::now() - before_setup, m);

  run_iterations(net, *dev, w.warmup_s, log);
  const double window_s = cfg.seconds / cfg.rounds;
  const Counters before_window = Counters::now();
  const Window timed =
      run_iterations(net, *dev, cfg.trace ? window_s / 2 : window_s, log);
  std::size_t ops = timed.lat_ms.size();
  if (cfg.trace) {
    // The second half is traced; its p50 against the first half's is the
    // tracing overhead.
    log.set_enabled(true);
    const Window traced = run_iterations(net, *dev, window_s / 2, log);
    log.set_enabled(false);
    ops += traced.lat_ms.size();
    m["trace.overhead_pct"] =
        100.0 * (median(traced.lat_ms) / median(timed.lat_ms) - 1.0);
    m["caffepp.backward_pct"] =
        100.0 * median(traced.backward_ms) / median(traced.lat_ms);
  }
  const Counters in_window = Counters::now() - before_window;
  check_window(in_window, m, result);
  add_per_op_counts(in_window, ops, m);
  result.attempted += ops;

  m["lat_p50_ms"] = quantile(timed.lat_ms, 0.5);
  m["lat_p90_ms"] = quantile(timed.lat_ms, 0.9);
  m["op.e2e_p99_ms"] = quantile(timed.lat_ms, 0.99);
  m["goodput_per_s"] =
      static_cast<double>(timed.lat_ms.size()) / timed.elapsed_s;
  m["op.late_p99_ms"] = quantile(timed.late_ms, 0.99);
  m["op.late_max_ms"] = quantile(timed.late_ms, 1.0);
  std::printf("round %d iteration_ms %s\n", round,
              describe(timed.lat_ms).c_str());
  add_device_metrics(handle, m);

  if (w.simulated) {
    const std::vector<double>& model = timed.model_ms;
    result.check_op(
        std::all_of(model.begin(), model.end(),
                    [&](double v) { return same_model(v, model.front()); }),
        "simulated iteration time changed between iterations");
    m["model_ms"] = model.front();
    check_wd_plan(handle, w.options.total_workspace_size, result);
    const core::WdPlan* wd = handle.wd_plan();
    std::printf(
        "plan round%d kernels=%zu wd_arena_used_mib=%.3f model_ms=%.4f "
        "device.peak_mib=%.3f\n",
        round, handle.recorded_kernels().size(),
        wd == nullptr ? 0.0 : mib(wd->total_workspace), model.front(),
        mib(dev->peak_bytes()));
  } else {
    print_plan_record(handle, "round" + std::to_string(round));
    check_kernels(handle, seed, result);
    result.check_op(std::isfinite(net.blob("loss")->data()[0]),
                    "training loss is not finite");
  }

  if (cfg.trace) {
    log.set_enabled(true);
    const KernelReplay replay =
        replay_kernels(handle, handle.recorded_kernels(), seed, log);
    log.set_enabled(false);
    add_replay_metrics(replay, m);
    m["framework.nonconv_ms"] = m["lat_p50_ms"] - replay.facade_ms;
  }
  return m;
}

/// The workload's network planned on a simulated P100 under `policy`: the
/// time of one iteration and the device peak.
ModelRun net_model_run(const NetWorkload& w, core::BatchSizePolicy policy) {
  const std::shared_ptr<device::Device> dev = make_device(true);
  core::Options options = w.options;
  options.batch_size_policy = policy;
  core::UcudnnHandle handle(dev, options);
  caffepp::Net net(handle, w.name);
  w.build(net);
  net.forward();  // plans every kernel
  net.backward();
  const double clock0 = dev->clock_ms();
  net.forward();
  net.backward();
  return {dev->clock_ms() - clock0, dev->peak_bytes()};
}

void run_net_workload(const NetWorkload& w, const RunConfig& cfg,
                      Result& result) {
  SpanLog log(false, 0);
  std::vector<Metrics> rounds;
  for (int round = 0; round < cfg.rounds; ++round) {
    rounds.push_back(run_net_round(w, cfg, round, log, result));
  }
  Metrics m = median_over_rounds(rounds);
  take_trimmed_mean(rounds, {"lat_p50_ms", "lat_p90_ms", "goodput_per_s"}, m);

  // peak_mib and model_speedup come from the simulated P100, which is
  // deterministic: they gate plan quality and memory without timing noise.
  // On HostCpu the plan itself follows timing noise, so the same network
  // is planned on the simulated device under the same options.
  double model_ms = 0.0;
  if (w.simulated) {
    model_ms = m.at("model_ms");
    const bool same = std::all_of(
        rounds.begin(), rounds.end(), [&](const Metrics& r) {
          return same_model(r.at("model_ms"), rounds.front().at("model_ms")) &&
                 r.at("device.peak_mib") ==
                     rounds.front().at("device.peak_mib");
        });
    result.check_op(same, "simulated plan differs between rounds");
    m["peak_mib"] = m.at("device.peak_mib");
  } else {
    const ModelRun chosen = net_model_run(w, w.options.batch_size_policy);
    model_ms = chosen.ms;
    m["peak_mib"] = mib(chosen.peak_bytes);
  }
  const ModelRun undivided =
      net_model_run(w, core::BatchSizePolicy::kUndivided);
  m["model_speedup"] = undivided.ms / model_ms;
  std::printf("model model_ms=%.6f undivided_ms=%.6f peak_mib=%.6f\n",
              model_ms, undivided.ms, m["peak_mib"]);
  result.metrics = std::move(m);
  if (cfg.trace) SpanLog::report({&log}, cfg.trace_path);
}

/// The CIFAR-10 CNN of train_host: 5x5, 5x5 and 3x3 convolutions, so GEMM,
/// FFT and Winograd all compete.
void build_cifar_cnn(caffepp::Net& net) {
  net.input("data", TensorShape{16, 3, 32, 32});
  net.conv("conv1", "data", 16, 5, 1, 2);
  net.relu("relu1", "conv1");
  net.pool_max("pool1", "conv1", 2, 2);
  net.conv("conv2", "pool1", 32, 5, 1, 2);
  net.relu("relu2", "conv2");
  net.pool_max("pool2", "conv2", 2, 2);
  net.conv("conv3", "pool2", 32, 3, 1, 1);
  net.relu("relu3", "conv3");
  net.fc("fc", "conv3", 10);
  net.softmax_loss("loss", "fc");
}

void run_train_host(const RunConfig& cfg, Result& result) {
  NetWorkload w{"cifar_cnn", false, 0.5, {}, build_cifar_cnn};
  // WR under Caffe's default 8 MiB per-kernel limit, announced by the net.
  w.options.workspace_policy = core::WorkspacePolicy::kWR;
  w.options.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  run_net_workload(w, cfg, result);
}

void run_sim_resnet50(const RunConfig& cfg, Result& result) {
  // The first second after set-up ran 1.5-1.9x slow in probes: 1 s warm-up.
  NetWorkload w{"resnet50", true, 1.0, {}, [](caffepp::Net& net) {
                  caffepp::build_resnet50(net, 128);
                }};
  w.options.workspace_policy = core::WorkspacePolicy::kWD;
  w.options.batch_size_policy = core::BatchSizePolicy::kAll;
  w.options.total_workspace_size = std::size_t{2} << 30;
  run_net_workload(w, cfg, result);
}

// --- serve_host: open-loop load over serve::Server -------------------------

constexpr double kRateA = 1000.0;   // requests/s, far below the knee: latency
constexpr double kRateB = 16000.0;  // requests/s, ~2x capacity: goodput
constexpr double kShareA = 0.6;     // of each round's timed seconds
constexpr double kWarmupA = 0.5;    // s, discarded
constexpr double kWarmupB = 0.25;   // s, discarded
constexpr double kDeadlineMs = 50.0;
// Output buffers are reused round-robin; 2048 slots outlast the deadline at
// the phase-B rate, so reuse does not wait on an unresolved request.
constexpr std::size_t kOutputSlots = 2048;
constexpr std::size_t kInputs = 16;
constexpr std::size_t kCheckEvery = 97;  // phase-A requests kept for checking
constexpr std::size_t kMaxChecks = 32;   // per round
constexpr std::int64_t kPaddedBatches[] = {1, 2, 4, 8, 16};

kernels::ConvProblem request_problem() {
  return kernels::ConvProblem({1, 32, 14, 14}, {32, 32, 3, 3},
                              {.pad_h = 1, .pad_w = 1});
}

core::Options serve_handle_options() {
  core::Options o;
  o.workspace_policy = core::WorkspacePolicy::kWR;
  o.batch_size_policy = core::BatchSizePolicy::kPowerOfTwo;
  o.workspace_limit = std::size_t{8} << 20;
  return o;
}

serve::ServeOptions serve_options() {
  serve::ServeOptions o;
  o.workers = 2;
  o.queue_capacity = 256;
  o.batch_window_us = 200;
  o.max_batch = 16;
  o.pad_to_pow2 = true;
  o.default_deadline_ms = kDeadlineMs;
  return o;
}

enum class Phase { kWarmA, kA, kATraced, kWarmB, kB };

struct PhaseSpec {
  Phase phase;
  double rate;
  double seconds;
};

/// One submitted request.
struct Sent {
  Clock::time_point due;
  Clock::time_point call_begin;
  Clock::time_point call_end;
  serve::TicketPtr ticket;
  Phase phase;
  int check;  ///< index into Rig::checked, -1 when not checked
};

/// What the generator saw as a phase began; the last mark is the end.
struct Mark {
  serve::Server::Counters server;
  Counters lib;
  telemetry::HistogramData queue_wait;
};

Mark mark(const serve::Server& server) {
  return {server.counters(), Counters::now(),
          telemetry::MetricsRegistry::instance()
              .histogram("ucudnn.serve.queue_wait_ms")
              .data()};
}

/// The server and buffers one round drives.
struct Rig {
  serve::Server& server;
  kernels::ConvProblem problem;
  const float* weights;
  std::vector<AlignedBuffer<float>> inputs;
  std::vector<AlignedBuffer<float>> outputs;
  std::vector<AlignedBuffer<float>> checked;
  std::vector<std::size_t> checked_input;
};

struct Load {
  std::vector<Sent> sent;
  std::vector<Mark> marks;
  int max_overload_level = 0;
  std::uint64_t slot_waits = 0;
};

/// The open-loop generator: one thread, seeded exponential gaps. submit()
/// never blocks, so the thread only ever waits for due times. It sleeps
/// rather than spins: a spinning generator takes a whole core from the
/// server and its kernel pool. A late wake-up is measured (op.late_*) and
/// counted in latency, which runs from the due time.
void generate(Rig& rig, const std::vector<PhaseSpec>& phases,
              std::uint64_t seed, bool trace, SpanLog& log, Load& load) {
  std::mt19937_64 rng(seed);
  std::vector<serve::TicketPtr> slot_owner(kOutputSlots);
  std::size_t next = 0;
  Clock::time_point phase_start = Clock::now();
  for (const PhaseSpec& spec : phases) {
    load.marks.push_back(mark(rig.server));
    log.set_enabled(trace && spec.phase == Phase::kATraced);
    const Clock::time_point phase_end =
        phase_start + seconds_to_duration(spec.seconds);
    std::exponential_distribution<double> gap_s(spec.rate);
    for (Clock::time_point due = phase_start + seconds_to_duration(gap_s(rng));
         due < phase_end; due += seconds_to_duration(gap_s(rng))) {
      std::this_thread::sleep_until(due);
      const std::size_t slot = next % kOutputSlots;
      if (slot_owner[slot] != nullptr && !slot_owner[slot]->done()) {
        ++load.slot_waits;
        (void)slot_owner[slot]->wait();
      }
      const std::size_t input = next % kInputs;
      serve::ServeRequest request;
      request.problem = rig.problem;
      request.input = rig.inputs[input].data();
      request.weights = rig.weights;
      request.output = rig.outputs[slot].data();
      // Two priorities, so a full queue evicts as well as rejects.
      request.priority = static_cast<int>(next % 2);
      int check = -1;
      if ((spec.phase == Phase::kA || spec.phase == Phase::kATraced) &&
          next % kCheckEvery == 0 && rig.checked.size() < kMaxChecks) {
        check = static_cast<int>(rig.checked.size());
        rig.checked.emplace_back(
            static_cast<std::size_t>(rig.problem.y.count()), true);
        rig.checked_input.push_back(input);
        request.output = rig.checked.back().data();
      }
      Sent sent{due, Clock::now(), {}, nullptr, spec.phase, check};
      {
        const SpanLog::Scope span(log, "server.submit");
        sent.ticket = rig.server.submit(std::move(request));
      }
      sent.call_end = Clock::now();
      if (check < 0) slot_owner[slot] = sent.ticket;
      if (next % 64 == 0) {
        load.max_overload_level =
            std::max(load.max_overload_level, rig.server.overload_level());
      }
      load.sent.push_back(std::move(sent));
      ++next;
    }
    phase_start = phase_end;
  }
  load.marks.push_back(mark(rig.server));
  log.set_enabled(false);
}

Metrics run_serve_round(const RunConfig& cfg, int round, SpanLog& main_log,
                        SpanLog& gen_log, Result& result) {
  Metrics m;
  const kernels::ConvProblem problem = request_problem();
  const std::uint64_t seed = cfg.seed * 1000 + static_cast<std::uint64_t>(round);
  AlignedBuffer<float> weights(static_cast<std::size_t>(problem.w.count()));
  fill_random(weights.data(), problem.w.count(), seed);

  const Counters before_setup = Counters::now();
  const Clock::time_point t0 = Clock::now();
  core::UcudnnHandle handle(
      std::make_shared<device::Device>(device::host_cpu_spec()),
      serve_handle_options());
  // Warm every padded batch size the server can form, so nothing is
  // benchmarked or planned once requests flow.
  for (const std::int64_t batch : kPaddedBatches) {
    const kernels::ConvProblem p = problem.with_batch(batch);
    AlignedBuffer<float> x(static_cast<std::size_t>(p.x.count()), true);
    AlignedBuffer<float> y(static_cast<std::size_t>(p.y.count()));
    handle.convolution(ConvKernelType::kForward, p, 1.0f, x.data(),
                       weights.data(), 0.0f, y.data());
  }
  serve::Server server(handle, serve_options());
  m["setup_s"] = ms_between(t0, Clock::now()) / 1e3;
  add_setup_metrics(handle, Counters::now() - before_setup, m);

  Rig rig{server, problem, weights.data(), {}, {}, {}, {}};
  for (std::size_t i = 0; i < kInputs; ++i) {
    rig.inputs.emplace_back(static_cast<std::size_t>(problem.x.count()));
    fill_random(rig.inputs.back().data(), problem.x.count(), seed + 1 + i);
  }
  rig.outputs.reserve(kOutputSlots);
  for (std::size_t i = 0; i < kOutputSlots; ++i) {
    rig.outputs.emplace_back(static_cast<std::size_t>(problem.y.count()),
                             true);
  }
  rig.checked.reserve(kMaxChecks);

  const double window_s = cfg.seconds / cfg.rounds;
  const double a_s = kShareA * window_s;
  const double b_s = window_s - a_s;
  std::vector<PhaseSpec> phases{{Phase::kWarmA, kRateA, kWarmupA}};
  if (cfg.trace) {
    phases.push_back({Phase::kA, kRateA, a_s / 2});
    phases.push_back({Phase::kATraced, kRateA, a_s / 2});
  } else {
    phases.push_back({Phase::kA, kRateA, a_s});
  }
  phases.push_back({Phase::kWarmB, kRateB, kWarmupB});
  phases.push_back({Phase::kB, kRateB, b_s});

  Load load;
  load.sent.reserve(static_cast<std::size_t>(
      (kWarmupA + a_s) * kRateA * 1.2 + (kWarmupB + b_s) * kRateB * 1.2));
  std::exception_ptr error;
  std::thread generator([&] {
    try {
      generate(rig, phases, seed, cfg.trace, gen_log, load);
    } catch (...) {
      error = std::current_exception();
    }
  });
  generator.join();
  if (error) std::rethrow_exception(error);
  for (const Sent& s : load.sent) {
    main_log.set_enabled(cfg.trace && s.phase == Phase::kATraced);
    const SpanLog::Scope span(main_log, "ticket.wait");
    (void)s.ticket->wait();
  }
  main_log.set_enabled(false);
  server.drain();

  std::vector<double> lat_a, lat_traced, admit_us, late_ms;
  std::uint64_t good_b = 0;
  std::uint64_t failed = 0;
  std::uint64_t refused_a = 0;
  for (const Sent& s : load.sent) {
    const Status status = s.ticket->wait();
    // Refusals and missed deadlines are the server's designed answers to
    // load: the overload ladder above the knee, and below it the admission
    // estimate after a stall of the machine. They cost latency and goodput;
    // any other status is a failed request.
    const bool ok = status == Status::kSuccess ||
                    status == Status::kRejected ||
                    status == Status::kDeadlineExceeded;
    ++result.attempted;
    if (!ok) ++failed;
    if (status != Status::kSuccess &&
        (s.phase == Phase::kA || s.phase == Phase::kATraced)) {
      ++refused_a;
    }
    if (s.phase == Phase::kA || s.phase == Phase::kATraced) {
      const double from_due = ms_between(s.due, s.ticket->submitted()) +
                              s.ticket->latency_ms();
      // A failed request counts as missing any latency limit.
      (s.phase == Phase::kA ? lat_a : lat_traced)
          .push_back(status == Status::kSuccess
                         ? from_due
                         : std::max(from_due, kDeadlineMs));
      admit_us.push_back(ms_between(s.call_begin, s.call_end) * 1e3);
    }
    if (s.phase == Phase::kA || s.phase == Phase::kATraced ||
        s.phase == Phase::kB) {
      late_ms.push_back(ms_between(s.due, s.call_begin));
    }
    if (s.phase == Phase::kB && status == Status::kSuccess) ++good_b;
  }
  result.failed += failed;

  m["lat_p50_ms"] = quantile(lat_a, 0.5);
  m["lat_p90_ms"] = quantile(lat_a, 0.9);
  m["op.e2e_p99_ms"] = quantile(lat_a, 0.99);
  m["goodput_per_s"] = static_cast<double>(good_b) / b_s;
  m["op.late_p99_ms"] = quantile(late_ms, 0.99);
  m["op.late_max_ms"] = quantile(late_ms, 1.0);
  m["serve.admit_pct"] = 100.0 * median(admit_us) / 1e3 / m["lat_p50_ms"];
  if (cfg.trace) {
    m["trace.overhead_pct"] =
        100.0 * (median(lat_traced) / m["lat_p50_ms"] - 1.0);
  }

  // marks[i] opened phases[i]: A spans marks[1, size-2), B the last phase.
  const std::size_t a_begin = 1;
  const std::size_t a_end = phases.size() - 2;
  const std::size_t b_begin = phases.size() - 1;
  const std::size_t b_end = phases.size();
  const auto occupancy = [&](std::size_t from, std::size_t to) {
    const serve::Server::Counters& s0 = load.marks[from].server;
    const serve::Server::Counters& s1 = load.marks[to].server;
    const auto batches = static_cast<double>(s1.batches - s0.batches);
    return batches > 0.0 ? static_cast<double>(s1.batched_requests -
                                               s0.batched_requests) /
                               batches
                         : 0.0;
  };
  m["serve.occupancy_a"] = occupancy(a_begin, a_end);
  m["serve.occupancy_b"] = occupancy(b_begin, b_end);
  const telemetry::HistogramData& w0 = load.marks[a_begin].queue_wait;
  const telemetry::HistogramData& w1 = load.marks[a_end].queue_wait;
  const auto waits = static_cast<double>(w1.count - w0.count);
  double lat_sum = 0.0;
  for (const double v : lat_a) lat_sum += v;
  const double mean_lat =
      lat_sum / std::max(1.0, static_cast<double>(lat_a.size()));
  m["serve.queue_wait_pct"] =
      waits > 0.0 ? 100.0 * (w1.sum_ms - w0.sum_ms) / waits / mean_lat : 0.0;

  check_window(load.marks.back().lib - load.marks.front().lib, m, result);
  std::size_t a_requests = 0;
  for (const Sent& s : load.sent) {
    if (s.phase == Phase::kA || s.phase == Phase::kATraced) ++a_requests;
  }
  add_per_op_counts(load.marks[a_end].lib - load.marks[a_begin].lib,
                    a_requests, m);
  add_device_metrics(handle, m);

  const serve::Server::Counters c = server.counters();
  m["serve.rejected"] = static_cast<double>(c.rejected);
  m["serve.shed"] = static_cast<double>(c.shed);
  m["serve.max_overload_level"] = load.max_overload_level;
  print_plan_record(handle, "round" + std::to_string(round));
  std::printf("round %d phase_a_ms %s\n", round, describe(lat_a).c_str());
  std::printf(
      "round %d requests=%zu failed=%llu phase_a_refused=%llu admitted=%llu "
      "completed=%llu rejected=%llu shed=%llu expired=%llu batches=%llu "
      "slot_waits=%llu goodput_per_s=%.1f\n",
      round, load.sent.size(), static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(refused_a),
      static_cast<unsigned long long>(c.admitted),
      static_cast<unsigned long long>(c.completed),
      static_cast<unsigned long long>(c.rejected),
      static_cast<unsigned long long>(c.shed),
      static_cast<unsigned long long>(c.expired),
      static_cast<unsigned long long>(c.batches),
      static_cast<unsigned long long>(load.slot_waits), m["goodput_per_s"]);

  // A checked request's output check is part of that request's operation,
  // not one of its own: a refused request has no output to compare, and
  // `attempted` must not depend on which requests a stall refused.
  for (const Sent& s : load.sent) {
    if (s.check < 0 || s.ticket->wait() != Status::kSuccess) continue;
    const auto i = static_cast<std::size_t>(s.check);
    AlignedBuffer<float> expected(static_cast<std::size_t>(problem.y.count()),
                                  true);
    reference_convolution(ConvKernelType::kForward, problem,
                          rig.inputs[rig.checked_input[i]].data(),
                          weights.data(), 0.0f, expected.data());
    const double diff =
        max_rel_diff(rig.checked[i].data(), expected.data(), problem.y.count());
    if (diff > kTolerance) {
      ++result.failed;
      result.fail("served request differs from the reference by " +
                  std::to_string(diff));
    }
  }

  if (cfg.trace) {
    main_log.set_enabled(true);
    const KernelReplay replay =
        replay_kernels(handle, handle.recorded_kernels(), seed, main_log);
    main_log.set_enabled(false);
    add_replay_metrics(replay, m);
    // Kernels were recorded in warm-up order: batch 1 first, 16 last.
    const double b1 = replay.facade_ms_by_kernel.front();
    const double b16 = replay.facade_ms_by_kernel.back();
    m["serve.exec_b16_vs_b1"] = b16 / b1;
    m["framework.nonconv_ms"] = m["lat_p50_ms"] - b1;
    std::printf("round %d exec_ms_b1=%.4f exec_ms_b16=%.4f\n", round, b1, b16);
  }
  return m;
}

/// The served kernel planned on a simulated P100 under `policy`: one pass
/// over the padded batch sizes, with the largest batch's operands held on
/// the device as the server holds them.
ModelRun serve_model_run(core::BatchSizePolicy policy) {
  const std::shared_ptr<device::Device> dev = make_device(true);
  core::Options options = serve_handle_options();
  options.batch_size_policy = policy;
  core::UcudnnHandle handle(dev, options);
  const kernels::ConvProblem largest =
      request_problem().with_batch(std::end(kPaddedBatches)[-1]);
  const core::DeviceBuffer x(dev, largest.x.bytes(), "input");
  const core::DeviceBuffer w(dev, largest.w.bytes(), "weights");
  const core::DeviceBuffer y(dev, largest.y.bytes(), "output");
  ModelRun run;
  for (const std::int64_t batch : kPaddedBatches) {
    const kernels::ConvProblem p = request_problem().with_batch(batch);
    handle.convolution(ConvKernelType::kForward, p, 1.0f, nullptr, nullptr,
                       0.0f, nullptr);  // plans
    const double clock0 = dev->clock_ms();
    handle.convolution(ConvKernelType::kForward, p, 1.0f, nullptr, nullptr,
                       0.0f, nullptr);
    run.ms += dev->clock_ms() - clock0;
  }
  run.peak_bytes = dev->peak_bytes();
  return run;
}

void run_serve_host(const RunConfig& cfg, Result& result) {
  SpanLog main_log(false, 0);
  SpanLog gen_log(false, 1);
  std::vector<Metrics> rounds;
  for (int round = 0; round < cfg.rounds; ++round) {
    rounds.push_back(run_serve_round(cfg, round, main_log, gen_log, result));
  }
  Metrics m = median_over_rounds(rounds);
  take_best_round(rounds, m);
  take_trimmed_mean(rounds, {"goodput_per_s"}, m);
  const ModelRun chosen =
      serve_model_run(serve_handle_options().batch_size_policy);
  const ModelRun undivided =
      serve_model_run(core::BatchSizePolicy::kUndivided);
  m["model_speedup"] = undivided.ms / chosen.ms;
  m["peak_mib"] = mib(chosen.peak_bytes);
  std::printf("model pass_ms=%.6f undivided_ms=%.6f peak_mib=%.6f\n",
              chosen.ms, undivided.ms, m["peak_mib"]);
  result.metrics = std::move(m);
  if (cfg.trace) SpanLog::report({&main_log, &gen_log}, cfg.trace_path);
}

// --- result line ----------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric lists and units of BENCHMARK.json; keep the two in step.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"lat_p50_ms", "ms"}, {"lat_p90_ms", "ms"},
    {"goodput_per_s", "1/s"}, {"peak_mib", "MiB"},  {"model_speedup", "x"},
};

constexpr MetricDef kPerLayer[] = {
    {"benchmarker.benchmark_ms", "ms"},
    {"benchmarker.find_calls", "count"},
    {"benchmarker.cache_hits", "count"},
    {"benchmarker.cache_misses", "count"},
    {"planner.optimize_ms", "ms"},
    {"planner.wd_variables", "count"},
    {"planner.est_err_pct", "%"},
    {"planner.plan_cache_misses_timed", "count"},
    {"planner.benchmark_runs_timed", "count"},
    {"executor.segments_per_iter", "count"},
    {"executor.replans", "count"},
    {"facade.conv_call_us", "us"},
    {"facade.overhead_us", "us"},
    {"mcudnn.launch_us", "us"},
    {"mcudnn.conv_calls_per_iter", "count"},
    {"kernels.compute_ms", "ms"},
    {"kernels.gemm_pct", "%"},
    {"kernels.direct_pct", "%"},
    {"kernels.fft_pct", "%"},
    {"kernels.winograd_pct", "%"},
    {"framework.nonconv_ms", "ms"},
    {"caffepp.backward_pct", "%"},
    {"device.peak_mib", "MiB"},
    {"device.workspace_mib", "MiB"},
    {"serve.admit_pct", "%"},
    {"serve.queue_wait_pct", "%"},
    {"serve.occupancy_a", "req/batch"},
    {"serve.occupancy_b", "req/batch"},
    {"serve.exec_b16_vs_b1", "x"},
    {"serve.rejected", "count"},
    {"serve.shed", "count"},
    {"serve.max_overload_level", "count"},
    {"op.e2e_p99_ms", "ms"},
    {"op.late_p99_ms", "ms"},
    {"op.late_max_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

/// Prints the result line. A per-layer metric of a layer the workload does
/// not use (a serving count on a training run) prints as 0 and is named on
/// the line before; a missing end-to-end metric or a non-finite value is an
/// error.
bool print_result(const Result& result, bool trace) {
  const MetricDef* begin = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::string json = std::string("{\"correct\": ") +
                     (result.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  std::string not_exercised;
  const char* separator = "";
  for (const MetricDef* def = begin; def != end; ++def) {
    double value = 0.0;
    if (const auto it = result.metrics.find(def->name);
        it != result.metrics.end()) {
      value = it->second;
    } else if (trace) {
      not_exercised += std::string(" ") + def->name;
    } else {
      std::fprintf(stderr, "perfbench: metric %s missing\n", def->name);
      return false;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", def->name);
      return false;
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += std::string(separator) + "\"" + def->name +
            "\": {\"value\": " + number + ", \"unit\": \"" + def->unit +
            "\"}";
    separator = ", ";
  }
  json += "}}";
  if (!not_exercised.empty()) {
    std::printf("not exercised by this workload, reported as 0:%s\n",
                not_exercised.c_str());
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_host|sim_resnet50|serve_host --seed N --seconds S "
               "--trace 0|1 [--rounds R] [--trace-out FILE]\n",
               why.c_str());
  std::exit(2);
}

double number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || !std::isfinite(value)) {
    usage("bad value for " + flag + ": " + text);
  }
  return value;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  std::string workload;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      const double seed = number(flag, value);
      if (seed < 0 || seed != std::floor(seed) || seed > 1e15) {
        usage("--seed must be a whole number >= 0");
      }
      cfg.seed = static_cast<std::uint64_t>(seed);
    } else if (flag == "--seconds") {
      cfg.seconds = number(flag, value);
    } else if (flag == "--trace") {
      cfg.trace = number(flag, value) != 0.0;
    } else if (flag == "--rounds") {
      cfg.rounds = static_cast<int>(number(flag, value));
    } else if (flag == "--trace-out") {
      cfg.trace_path = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!(cfg.seconds > 0.0 && cfg.seconds <= 600.0)) {
    usage("--seconds must be in (0, 600]");
  }
  if (cfg.rounds < 1 || cfg.rounds > 16) usage("--rounds must be in [1, 16]");
  void (*run)(const RunConfig&, Result&) = nullptr;
  if (workload == "train_host") {
    run = run_train_host;
  } else if (workload == "sim_resnet50") {
    run = run_sim_resnet50;
  } else if (workload == "serve_host") {
    run = run_serve_host;
  } else {
    usage("unknown workload '" + workload + "'");
  }
  try {
    Result result;
    run(cfg, result);
    return print_result(result, cfg.trace) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
