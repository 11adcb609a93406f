#include "core/planner.h"

#include <algorithm>
#include <limits>
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

telemetry::Gauge& plan_cache_epoch_metric() {
  static telemetry::Gauge g = telemetry::MetricsRegistry::instance().gauge(
      "ucudnn.plan_cache.epoch");
  return g;
}

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

DeviceBuffer::DeviceBuffer(DeviceBuffer&& other) noexcept
    : dev_(std::move(other.dev_)),
      ptr_(std::exchange(other.ptr_, nullptr)),
      bytes_(std::exchange(other.bytes_, 0)) {}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    if (dev_ && ptr_ != nullptr) dev_->deallocate(ptr_);
    dev_ = std::move(other.dev_);
    ptr_ = std::exchange(other.ptr_, nullptr);
    bytes_ = std::exchange(other.bytes_, 0);
  }
  return *this;
}

std::shared_ptr<const ExecutionPlan> PlanCache::lookup(KernelId id, bool wd,
                                                      std::size_t limit) {
  std::shared_ptr<const ExecutionPlan> found;
  {
    MutexLock lock(mutex_);
    const Stamp want{wd, limit, epoch_.load(std::memory_order_relaxed)};
    if (id < entries_.size() && entries_[id].stamp == want) {
      found = entries_[id].plan;
    }
  }
  if (found == nullptr) {
    misses_.add();
    return nullptr;
  }
  hits_.add();
  return found;
}

void PlanCache::insert(KernelId id, const Stamp& stamp,
                       std::shared_ptr<const ExecutionPlan> plan) {
  MutexLock lock(mutex_);
  if (id >= entries_.size()) entries_.resize(id + 1);
  entries_[id] = Entry{stamp, std::move(plan)};
}

void PlanCache::erase(KernelId id) {
  MutexLock lock(mutex_);
  if (id < entries_.size()) entries_[id] = Entry{};
}

void PlanCache::bump_epoch() {
  {
    // Entries under the old epoch can no longer match a lookup; dropping
    // them just releases the memory eagerly.
    MutexLock lock(mutex_);
    entries_.clear();
    epoch_.fetch_add(1, std::memory_order_release);
  }
  // Process-wide mirror: total epoch bumps across every handle.
  plan_cache_epoch_metric().add(1);
}

std::size_t PlanCache::size() const {
  MutexLock lock(mutex_);
  return static_cast<std::size_t>(
      std::count_if(entries_.begin(), entries_.end(),
                    [](const Entry& e) { return e.plan != nullptr; }));
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
  if (slot && slot->limit == limit) return *slot;
  if (slot) {
    // Re-recorded under a new limit: the old entry, its workspace and the
    // plan bound to it go first, so the device never holds both buffers and
    // a failed re-plan cannot leave a plan without its workspace.
    plan_cache_.erase(id);
    slot.reset();
  }

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
  DeviceBuffer ws;
  for (;;) {
    try {
      if (options_.share_wr_workspace) {
        // Sequential execution: one shared buffer, grown to the largest need.
        if (config.workspace > shared_ws_.size()) {
          shared_ws_ = DeviceBuffer(handle_.device_ptr(), config.workspace,
                                    "shared:ws");
        }
      } else {
        ws = DeviceBuffer(handle_.device_ptr(), config.workspace, tag);
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
  slot = WrEntry{limit, std::move(config), std::move(ws), degraded};
  return *slot;
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
      wd_arena_ = DeviceBuffer(handle_.device_ptr(), plan.total_workspace,
                               "wd_arena");
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

void Planner::apply_pending_invalidations() {
  if (pending_invalidations_.empty()) return;
  for (const auto& [type, algo] : pending_invalidations_) {
    const auto uses = [algo = algo](const Configuration& config) {
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
          wd_arena_ = DeviceBuffer();
          break;
        }
      }
    }
  }
  pending_invalidations_.clear();
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

PlannedConvolution Planner::resolve(std::shared_ptr<const ExecutionPlan> plan,
                                    KernelId id) {
  PlannedConvolution planned;
  switch (plan->binding.kind) {
    case WorkspaceKind::kNone:
      break;
    case WorkspaceKind::kPerKernel: {
      const std::optional<WrEntry>& wr = slots_[id].wr;
      // Epoch bumps always precede WR-entry erasure, and an entry is only
      // replaced under a new limit (which misses the cached plan's stamp),
      // so a cached plan can only be fetched while its entry is alive.
      check(wr.has_value(), Status::kInternalError,
            "cached plan without a live WR entry");
      planned.workspace = wr->workspace.data();
      planned.workspace_bytes = wr->workspace.size();
      break;
    }
    case WorkspaceKind::kSharedWr:
      // The shared buffer only grows; resolve against its live extent.
      planned.workspace = shared_ws_.data();
      planned.workspace_bytes = shared_ws_.size();
      break;
    case WorkspaceKind::kWdArena: {
      char* arena = static_cast<char*>(wd_arena_.data());
      planned.workspace =
          arena == nullptr ? nullptr : arena + plan->binding.offset;
      planned.workspace_bytes = plan->binding.bytes;
      break;
    }
  }
  planned.plan = std::move(plan);
  return planned;
}

PlannedConvolution Planner::plan(KernelId id) {
  const KernelRequest& kernel = kernels_[id];
  const std::uint64_t epoch = plan_cache_.epoch();
  if (wd_active()) {
    if (!wd_finalized()) finalize_wd();
    if (!wd_degraded_to_wr_) {
      if (const WdAssignment* assignment = wd_assignment(id)) {
        const std::size_t arena = options_.total_workspace_size;
        if (auto cached = plan_cache_.lookup(id, true, arena)) {
          return resolve(std::move(cached), id);
        }
        std::shared_ptr<const ExecutionPlan> built;
        {
          const telemetry::ScopedSpan span("plan_build",
                                           [&] { return kernel.label; });
          built = std::make_shared<const ExecutionPlan>(build_plan(
              kernel.type, kernel.problem, assignment->config,
              WorkspaceBinding{WorkspaceKind::kWdArena, assignment->offset,
                               assignment->config.workspace}));
        }
        plan_cache_.insert(id, {true, arena, epoch}, built);
        return resolve(std::move(built), id);
      }
      if (wd_finalized()) note_wd_fallback(id);
    }
  }

  const std::size_t limit = effective_limit(id);
  if (auto cached = plan_cache_.lookup(id, false, limit)) {
    return resolve(std::move(cached), id);
  }
  WrEntry& entry = wr_entry(id);
  const WorkspaceBinding binding =
      options_.share_wr_workspace
          ? WorkspaceBinding{WorkspaceKind::kSharedWr, 0, shared_ws_.size()}
          : WorkspaceBinding{WorkspaceKind::kPerKernel, 0,
                             entry.workspace.size()};
  std::shared_ptr<const ExecutionPlan> built;
  {
    const telemetry::ScopedSpan span("plan_build",
                                     [&] { return kernel.label; });
    built = std::make_shared<const ExecutionPlan>(
        build_plan(kernel.type, kernel.problem, entry.config, binding));
  }
  plan_cache_.insert(id, {false, limit, epoch}, built);
  return resolve(std::move(built), id);
}

std::vector<PlanSegment> Planner::replan_tail(
    ConvKernelType type, const kernels::ConvProblem& problem, int algo,
    std::int64_t done, std::size_t ws_bytes, int replans) {
  const telemetry::ScopedSpan span("replan", [&] {
    return problem.to_string() + " algo=" + std::to_string(algo);
  });
  replans_metric().add(1);
  const std::string& device_name = handle_.device().spec().name;
  benchmarker_.cache()->blacklist(device_name, type, algo);
  stats_.blacklisted_algorithms.add();
  // Cached WR/WD plans referencing the algorithm are stale now, but their
  // workspace is live in the current call chain — the epoch bump makes them
  // unreachable immediately; the buffers themselves are reclaimed at the
  // next plan() entry via apply_pending_invalidations().
  plan_cache_.bump_epoch();
  pending_invalidations_.emplace_back(type, algo);
  // Each re-plan retires one algorithm, so the algorithm count bounds the
  // recursion; past that the failure is systemic, not algorithmic.
  check(replans <= kernels::algo_count(type), Status::kExecutionFailed,
        "kernel keeps failing after blacklisting " +
            std::to_string(replans - 1) + " algorithms for " +
            problem.to_string());
  UCUDNN_LOG_WARN << "blacklisting " << kernels::algo_name(type, algo)
                  << " on " << device_name << " after repeated failures; "
                  << "re-planning the remaining "
                  << (problem.batch() - done) << " samples";
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
