#include "core/planner.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/timer.h"
#include "core/wr_optimizer.h"
#include "kernels/registry.h"
#include "mcudnn/mcudnn.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ucudnn::core {

namespace {

telemetry::Counter& replans_metric() {
  static telemetry::Counter c = telemetry::MetricsRegistry::instance().counter(
      "ucudnn.planner.replans");
  return c;
}

}  // namespace

DeviceBuffer::DeviceBuffer(std::shared_ptr<device::Device> dev,
                           std::size_t bytes, const std::string& tag)
    : dev_(std::move(dev)), bytes_(bytes) {
  if (bytes_ > 0) ptr_ = dev_->allocate(bytes_, tag);
}

DeviceBuffer::~DeviceBuffer() {
  if (dev_ && ptr_ != nullptr) dev_->deallocate(ptr_);
}

Planner::Planner(mcudnn::Handle& handle, const Options& options,
                 Benchmarker benchmarker, DegradationStats& stats)
    : handle_(handle),
      options_(options),
      stats_(stats),
      benchmarker_(std::move(benchmarker)) {}

std::optional<KernelId> Planner::find_kernel(
    ConvKernelType type, const kernels::ConvProblem& problem) const {
  const auto [first, last] = index_.equal_range(problem.hash());
  for (auto it = first; it != last; ++it) {
    const KernelRequest& k = kernels_[it->second];
    if (k.type == type && k.problem == problem) return it->second;
  }
  return std::nullopt;
}

KernelId Planner::add_kernel(KernelRequest request) {
  const KernelId id = kernels_.size();
  index_.emplace(request.problem.hash(), id);
  kernels_.push_back(std::move(request));
  slots_.emplace_back();
  return id;
}

void Planner::record_limit(KernelId id, std::size_t limit) {
  slots_[id].recorded_limit = limit;
}

std::size_t Planner::effective_limit(KernelId id) const {
  if (options_.workspace_limit) return *options_.workspace_limit;
  return slots_[id].recorded_limit.value_or(kDefaultPerKernelLimit);
}

Planner::WrEntry& Planner::wr_entry(KernelId id) {
  const std::size_t limit = effective_limit(id);
  std::optional<WrEntry>& slot = slots_[id].wr;
  if (slot && slot->limit == limit) {
    hits_.add();
    return *slot;
  }
  misses_.add();
  // Re-recorded under a new limit: the old entry, its workspace and the plan
  // bound to it go first, so the device never holds both buffers.
  slot.reset();

  const KernelRequest& kernel = kernels_[id];
  const ConvKernelType type = kernel.type;
  const kernels::ConvProblem& problem = kernel.problem;
  MicroBenchmark bench =
      benchmarker_.table(type, problem, options_.batch_size_policy);
  const telemetry::ScopedSpan span("wr_dp", [&] { return kernel.label; });
  Configuration config = solve_wr(type, problem, bench, limit);
  bool degraded = false;
  UCUDNN_LOG_INFO << "WR " << to_string(type) << " " << problem.to_string()
                  << " limit=" << limit << " -> " << config.to_string(type)
                  << " time=" << config.time_ms
                  << "ms ws=" << config.workspace;

  // Tag workspace memory with the layer label.
  const std::string tag = kernel.label + ":ws";
  std::shared_ptr<DeviceBuffer> ws;
  for (;;) {
    try {
      if (options_.share_wr_workspace) {
        // One buffer for every kernel, grown to the largest need.
        if (config.workspace > shared_ws_->size()) {
          shared_ws_ = std::make_shared<DeviceBuffer>(
              handle_.device_ptr(), config.workspace, "shared:ws");
        }
      } else {
        ws = std::make_shared<DeviceBuffer>(handle_.device_ptr(),
                                            config.workspace, tag);
      }
      break;
    } catch (const Error& e) {
      if (e.status() != Status::kAllocFailed || options_.fail_fast ||
          config.workspace == 0) {
        throw;
      }
      // Graceful degradation (§I: a resource shortfall must not abort the
      // run): re-optimize under a geometrically halved limit. Terminates
      // because the front always contains the zero-workspace configuration.
      const std::size_t degraded_limit = config.workspace / 2;
      degraded = true;
      stats_.degraded_allocations.add();
      UCUDNN_LOG_WARN << "workspace allocation of " << config.workspace
                      << " bytes failed for " << tag << " (" << e.what()
                      << "); re-optimizing with limit " << degraded_limit;
      config = solve_wr(type, problem, bench, degraded_limit);
    }
  }
  benchmarker_.note_unmeasured(bench);
  const WorkspaceBinding binding =
      options_.share_wr_workspace
          ? WorkspaceBinding{WorkspaceKind::kSharedWr, 0, shared_ws_->size()}
          : WorkspaceBinding{WorkspaceKind::kPerKernel, 0, ws->size()};
  std::shared_ptr<const ExecutionPlan> plan = lower(id, config, binding);
  slot = WrEntry{limit, std::move(config), std::move(ws), std::move(plan),
                 degraded};
  return *slot;
}

std::shared_ptr<const ExecutionPlan> Planner::lower(
    KernelId id, const Configuration& config,
    const WorkspaceBinding& binding) const {
  const KernelRequest& kernel = kernels_[id];
  const telemetry::ScopedSpan span("plan_build", [&] { return kernel.label; });
  return std::make_shared<const ExecutionPlan>(
      build_plan(kernel.type, kernel.problem, config, binding));
}

Configuration Planner::solve_wr(ConvKernelType type,
                                const kernels::ConvProblem& problem,
                                MicroBenchmark& bench, std::size_t limit) {
  const double benchmark_ms_before = benchmarker_.total_benchmark_ms();
  Timer timer;
  Configuration config = plan_wr(
      bench, problem.batch(), limit,
      [&](MicroBenchmark& table, const std::vector<BenchPair>& pairs) {
        benchmarker_.measure(type, problem, table, pairs);
      });
  // The pairs plan_wr measures count as benchmarking, not optimization.
  total_optimize_ms_.add(timer.elapsed_ms() -
                         (benchmarker_.total_benchmark_ms() -
                          benchmark_ms_before));
  return config;
}

void Planner::finalize_wd() {
  if (wd_finalized() || wd_degraded_to_wr_) return;
  check(options_.workspace_policy == WorkspacePolicy::kWD,
        Status::kBadParam, "finalize_wd requires UCUDNN_WORKSPACE_POLICY=wd");
  const telemetry::ScopedSpan span("wd_ilp", [&] {
    return std::to_string(kernels_.size()) + " kernels";
  });
  const double benchmark_ms_before = benchmarker_.total_benchmark_ms();
  Timer timer;
  // The benchmarker runs inside build_wd_knapsack count as benchmarking,
  // not optimization.
  const auto add_optimize_ms = [&] {
    total_optimize_ms_.add(timer.elapsed_ms() -
                           (benchmarker_.total_benchmark_ms() -
                            benchmark_ms_before));
  };
  WdPlan plan;
  std::size_t limit = options_.total_workspace_size;
  for (;;) {
    try {
      plan = optimize_wd(benchmarker_, kernels_, limit,
                         options_.batch_size_policy);
    } catch (const Error& e) {
      add_optimize_ms();
      if (e.status() != Status::kNotSupported || options_.fail_fast) throw;
      // No feasible division at all: degrade to per-kernel WR, which plans
      // each kernel independently (and can itself degrade further).
      stats_.solver_fallbacks.add();
      wd_degraded_to_wr_ = true;
      UCUDNN_LOG_WARN << "WD plan infeasible (" << e.what()
                      << "); degrading to per-kernel WR";
      return;
    }
    try {
      wd_arena_ = std::make_shared<DeviceBuffer>(
          handle_.device_ptr(), plan.total_workspace, "wd_arena");
      break;
    } catch (const Error& e) {
      if (e.status() != Status::kAllocFailed || options_.fail_fast ||
          plan.total_workspace == 0) {
        throw;
      }
      // The optimizer's limit was infeasible on the actual device: halve
      // what the plan really used and re-solve, down to the zero-workspace
      // division.
      stats_.degraded_allocations.add();
      limit = plan.total_workspace / 2;
      UCUDNN_LOG_WARN << "WD arena allocation of " << plan.total_workspace
                      << " bytes failed (" << e.what()
                      << "); re-optimizing with total limit " << limit;
    }
  }
  add_optimize_ms();
  UCUDNN_LOG_INFO << "WD finalized: " << kernels_.size() << " kernels, "
                  << plan.num_variables << " ILP variables, arena "
                  << plan.total_workspace << " bytes, solve "
                  << plan.solve_ms << " ms";
  wd_plan_ = std::move(plan);
}

const WdAssignment* Planner::wd_assignment(KernelId id) const {
  // Kernels recorded after finalization (the unrecorded-fallback path) have
  // no slot in the frozen assignment list.
  if (!wd_plan_ || id >= wd_plan_->assignments.size()) return nullptr;
  return &wd_plan_->assignments[id];
}

const Configuration* Planner::configuration_for(KernelId id) const {
  if (wd_active()) {
    const WdAssignment* assignment = wd_assignment(id);
    return assignment ? &assignment->config : nullptr;
  }
  const std::optional<WrEntry>& wr = slots_[id].wr;
  return wr && wr->limit == effective_limit(id) ? &wr->config : nullptr;
}

std::string Planner::provenance_for(KernelId id) const {
  std::string prefix;
  if (options_.workspace_policy == WorkspacePolicy::kWD) {
    if (!wd_degraded_to_wr_ && wd_assignment(id)) return "wd_mckp_dp";
    // WD was requested but this kernel runs WR: either the whole plan was
    // infeasible or the kernel was not recorded before finalization.
    prefix = wd_degraded_to_wr_ ? "wd_infeasible->" : "wd_unrecorded->";
  }
  const std::optional<WrEntry>& wr = slots_[id].wr;
  return prefix + (wr && wr->degraded ? "wr_dp(degraded)" : "wr_dp");
}

void Planner::invalidate(ConvKernelType type, int algo) {
  const auto uses = [algo](const Configuration& config) {
    return std::any_of(config.micro.begin(), config.micro.end(),
                       [&](const MicroConfig& m) { return m.algo == algo; });
  };
  for (KernelId id = 0; id < kernels_.size(); ++id) {
    std::optional<WrEntry>& wr = slots_[id].wr;
    if (wr && kernels_[id].type == type && uses(wr->config)) wr.reset();
  }
  if (wd_plan_) {
    const std::vector<WdAssignment>& assignments = wd_plan_->assignments;
    for (KernelId id = 0; id < assignments.size(); ++id) {
      if (kernels_[id].type == type && uses(assignments[id].config)) {
        // The whole arena layout depends on every assignment; re-plan from
        // scratch at the next finalize (the blacklist filter makes the new
        // plan avoid the algorithm).
        wd_plan_.reset();
        wd_arena_ = std::make_shared<DeviceBuffer>();
        for (KernelSlot& slot : slots_) slot.wd = nullptr;
        break;
      }
    }
  }
}

void Planner::note_wd_fallback(KernelId id) {
  stats_.wd_unrecorded_fallbacks.add();
  if (slots_[id].wd_fallbacks++ == 0) {
    UCUDNN_LOG_WARN << "WD: unrecorded kernel "
                    << kernels_[id].problem.to_string()
                    << ", falling back to WR (further occurrences counted "
                       "silently; see degradation stats)";
  }
}

std::optional<PlannedConvolution> Planner::resolve(
    std::shared_ptr<const ExecutionPlan> plan,
    std::shared_ptr<DeviceBuffer> home) {
  // A WD plan leases its arena slice; a WR plan the whole buffer, the shared
  // one at its live extent (it only grows).
  const WorkspaceBinding& binding = plan->binding;
  const bool arena = binding.kind == WorkspaceKind::kWdArena;
  const std::size_t offset = arena ? binding.offset : 0;
  const std::size_t bytes = arena ? binding.bytes : home->size();
  PlannedConvolution planned{std::move(plan), {}};
  if (bytes == 0) return planned;
  const std::pair<const DeviceBuffer*, std::size_t> slice{home.get(), offset};
  if (std::find(leased_.begin(), leased_.end(), slice) == leased_.end()) {
    leased_.push_back(slice);
    planned.lease = {std::move(home), offset, bytes, false};
  } else if (std::shared_ptr<DeviceBuffer> spare = take_spare(bytes)) {
    planned.lease = {std::move(spare), 0, bytes, true};
  } else {
    return std::nullopt;
  }
  return planned;
}

std::shared_ptr<DeviceBuffer> Planner::take_spare(std::size_t bytes) {
  const auto it = std::find_if(
      spares_.begin(), spares_.end(),
      [bytes](const std::shared_ptr<DeviceBuffer>& s) {
        return s->size() == bytes;
      });
  if (it != spares_.end()) {
    std::shared_ptr<DeviceBuffer> spare = std::move(*it);
    spares_.erase(it);
    return spare;
  }
  try {
    return std::make_shared<DeviceBuffer>(handle_.device_ptr(), bytes,
                                          "spare:ws");
  } catch (const Error& e) {
    if (e.status() != Status::kAllocFailed) throw;
    UCUDNN_LOG_DEBUG << "spare workspace of " << bytes << " bytes failed ("
                     << e.what() << "); waiting for the home buffer";
    return nullptr;
  }
}

void Planner::release(WorkspaceLease lease) {
  if (lease.buffer == nullptr) return;
  if (lease.spare) {
    spares_.push_back(std::move(lease.buffer));
    return;
  }
  const auto it =
      std::find(leased_.begin(), leased_.end(),
                std::pair<const DeviceBuffer*, std::size_t>{
                    lease.buffer.get(), lease.offset});
  if (it != leased_.end()) leased_.erase(it);
}

std::optional<PlannedConvolution> Planner::plan(KernelId id) {
  if (wd_active()) {
    if (!wd_finalized()) finalize_wd();
    if (!wd_degraded_to_wr_) {
      if (const WdAssignment* assignment = wd_assignment(id)) {
        std::shared_ptr<const ExecutionPlan>& wd = slots_[id].wd;
        if (wd != nullptr) {
          hits_.add();
        } else {
          misses_.add();
          wd = lower(id, assignment->config,
                     WorkspaceBinding{WorkspaceKind::kWdArena,
                                      assignment->offset,
                                      assignment->config.workspace});
        }
        return resolve(wd, wd_arena_);
      }
      if (wd_finalized()) note_wd_fallback(id);
    }
  }
  const WrEntry& entry = wr_entry(id);
  return resolve(entry.plan, options_.share_wr_workspace ? shared_ws_
                                                         : entry.workspace);
}

std::vector<PlanSegment> Planner::replan_tail(
    ConvKernelType type, const kernels::ConvProblem& problem, int algo,
    std::int64_t done, std::size_t ws_bytes, int replans) {
  const telemetry::ScopedSpan span("replan", [&] {
    return problem.to_string() + " algo=" + std::to_string(algo);
  });
  replans_metric().add(1);
  const std::string& device_name = handle_.device().spec().name;
  // Several calls running the same plan can fail on one algorithm; only the
  // first retires it (and counts and logs that).
  const bool retired = benchmarker_.cache()->blacklist(device_name, type, algo);
  if (retired) stats_.blacklisted_algorithms.add();
  // The entries and plans using the algorithm are stale now; their buffers
  // go at once — calls still running on them (this one included) hold
  // leases that keep them alive. A no-op when another call retired the
  // algorithm first, but not when it was blacklisted through cache().
  invalidate(type, algo);
  // Each re-plan retires one algorithm, so the algorithm count bounds the
  // recursion; past that the failure is systemic, not algorithmic.
  check(replans <= kernels::algo_count(type), Status::kExecutionFailed,
        "kernel keeps failing after blacklisting " +
            std::to_string(replans - 1) + " algorithms for " +
            problem.to_string());
  if (retired) {
    UCUDNN_LOG_WARN << "blacklisting " << kernels::algo_name(type, algo)
                    << " on " << device_name << " after repeated failures; "
                    << "re-planning the remaining "
                    << (problem.batch() - done) << " samples";
  }
  // Re-plan only the unexecuted tail: outputs already written (and, for
  // BackwardFilter, partial accumulations) stay untouched. The existing
  // workspace bounds the new plan, so no reallocation is needed.
  const kernels::ConvProblem rest = problem.with_batch(problem.batch() - done);
  const double benchmark_ms_before = benchmarker_.total_benchmark_ms();
  MicroBenchmark bench =
      benchmarker_.table(type, rest, options_.batch_size_policy);
  const telemetry::ScopedSpan wr_span("wr_dp");
  const Configuration replacement = solve_wr(type, rest, bench, ws_bytes);
  total_replan_benchmark_ms_.add(benchmarker_.total_benchmark_ms() -
                                 benchmark_ms_before);
  benchmarker_.note_unmeasured(bench);
  return build_tail_segments(type, problem, replacement, done);
}

}  // namespace ucudnn::core
