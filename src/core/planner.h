// Planner — phase one of the paper's two-phase pipeline: turn a convolution
// problem into a ready-to-execute ExecutionPlan.
//
// The Planner owns everything decision-shaped that used to live inline in
// UcudnnHandle: WR optimization (per-kernel DP, §III-B), WD optimization
// (Pareto fronts + ILP over the recorded kernel set, §III-C/E), the whole
// graceful-degradation ladder (workspace-limit halving on OOM, WD->WR), the
// workspace buffers the plans bind to, and a PlanCache so steady-state
// convolution() calls fetch a finished plan instead of re-deriving strides.
// It is also the only owner of kernel identity: each distinct (type,
// problem) is interned once into a dense KernelId, and every per-kernel
// table here and in the facade is a slot indexed by it.
//
// Layering contract (tools/check_layering.py): the planner may include the
// plan IR but never the executor; execution-time policy reaches back into
// the planner only through the callback the facade wires up.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"
#include "core/benchmarker.h"
#include "core/options.h"
#include "core/plan.h"
#include "core/types.h"
#include "core/wd_optimizer.h"
#include "telemetry/metrics.h"

namespace ucudnn::core {

/// Default per-kernel workspace limit when neither the framework nor
/// UCUDNN_WORKSPACE_LIMIT provides one (Caffe's 8 MiB default).
inline constexpr std::size_t kDefaultPerKernelLimit = std::size_t{8} << 20;

/// RAII buffer of tracked device memory.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(std::shared_ptr<device::Device> dev, std::size_t bytes,
               const std::string& tag);
  ~DeviceBuffer();
  DeviceBuffer(DeviceBuffer&& other) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&& other) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  void* data() const noexcept { return ptr_; }
  std::size_t size() const noexcept { return bytes_; }

 private:
  std::shared_ptr<device::Device> dev_;
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

/// Cache of finished ExecutionPlans, one slot per KernelId. Each entry
/// carries what it was built under — WR vs WD, the per-kernel limit (WR) or
/// the arena size (WD), and the blacklist epoch — and a lookup returns the
/// plan only when all three match the caller's, so a plan built for another
/// limit, policy or epoch is never fetched. Blacklisting an algorithm bumps
/// the epoch, which drops every stored plan and makes any plan stamped with
/// an older epoch a miss — while shared_ptr ownership keeps the plan a
/// mid-flight execution still holds alive until it finishes.
class PlanCache {
 public:
  /// What a plan was built under, compared field by field on lookup.
  struct Stamp {
    bool wd = false;
    std::size_t limit = 0;  // WR per-kernel limit, or the WD arena size
    std::uint64_t epoch = 0;

    bool operator==(const Stamp&) const = default;
  };

  /// Returns the kernel's cached plan when its stamp equals `{wd, limit}`
  /// under the current epoch, else nullptr; counts a hit or a miss.
  /// Thread-safe: worker handles of the serving layer (ROADMAP item 1)
  /// share one PlanCache across threads.
  std::shared_ptr<const ExecutionPlan> lookup(KernelId id, bool wd,
                                              std::size_t limit);
  /// Stores `plan` as the kernel's entry, replacing any previous one.
  /// `stamp.epoch` is the epoch read before the plan was built: after an
  /// intervening bump_epoch() the entry is stale and never returned.
  void insert(KernelId id, const Stamp& stamp,
              std::shared_ptr<const ExecutionPlan> plan);
  /// Drops the kernel's entry (the workspace its plan binds is going away).
  void erase(KernelId id);

  /// Invalidates every cached plan and starts a new blacklist epoch.
  void bump_epoch();
  std::uint64_t epoch() const noexcept {
    return epoch_.load(std::memory_order_acquire);
  }

  std::uint64_t hits() const noexcept { return hits_.value(); }
  std::uint64_t misses() const noexcept { return misses_.value(); }
  /// Number of kernels with a stored plan.
  std::size_t size() const;

 private:
  struct Entry {
    Stamp stamp;
    std::shared_ptr<const ExecutionPlan> plan;
  };

  mutable Mutex mutex_{"PlanCache"};
  std::vector<Entry> entries_ GUARDED_BY(mutex_);  // indexed by KernelId
  // Atomic, not guarded: epoch() is read before every plan build, and thin
  // reads must not take the lock. The epoch only changes under the lock, so
  // a lookup compares entries against a consistent epoch.
  std::atomic<std::uint64_t> epoch_{0};
  telemetry::InstanceCounter hits_{"ucudnn.plan_cache.hits"};
  telemetry::InstanceCounter misses_{"ucudnn.plan_cache.misses"};
};

/// A plan plus its workspace binding resolved to the live buffer. The
/// pointer is only valid for the duration of the convolution call it was
/// fetched for (buffers may be reallocated by later degradation events).
struct PlannedConvolution {
  std::shared_ptr<const ExecutionPlan> plan;
  void* workspace = nullptr;
  std::size_t workspace_bytes = 0;
};

class Planner {
 public:
  /// `handle` and `options` are the facade's; `stats` is the facade-owned
  /// degradation ledger, shared with the Executor.
  Planner(mcudnn::Handle& handle, const Options& options,
          Benchmarker benchmarker, DegradationStats& stats);

  // --- kernel identity ----------------------------------------------------

  /// The id of the recorded kernel equal to (type, problem) by full value,
  /// or nullopt. The problem hash only picks the bucket.
  std::optional<KernelId> find_kernel(ConvKernelType type,
                                      const kernels::ConvProblem& problem) const;
  /// Appends a kernel that find_kernel() did not find; returns its id.
  KernelId add_kernel(KernelRequest request);
  /// Every recorded kernel, indexed by KernelId (registration order).
  const std::vector<KernelRequest>& kernels() const noexcept {
    return kernels_;
  }

  /// Remembers the framework-provided workspace limit for a kernel
  /// (GetConvolution*Algorithm recording, done by the facade).
  void record_limit(KernelId id, std::size_t limit);

  /// Returns a ready-to-run plan for the full mini-batch — from the
  /// PlanCache in steady state, otherwise by running WR/WD optimization
  /// (with the full degradation ladder) and lowering the result.
  PlannedConvolution plan(KernelId id);

  /// Retry-budget exhaustion policy, called back from the Executor via the
  /// facade: blacklists `algo` on this device, bumps the PlanCache epoch,
  /// queues the stale WR/WD state for deferred invalidation, re-benchmarks
  /// the unexecuted tail (counted in total_replan_benchmark_ms), re-runs the
  /// WR DP within the workspace already held, and returns splice-ready
  /// segments. `replans` is the per-execution re-plan ordinal; past the
  /// algorithm count the failure is systemic and kExecutionFailed is thrown.
  std::vector<PlanSegment> replan_tail(ConvKernelType type,
                                       const kernels::ConvProblem& problem,
                                       int algo, std::int64_t done,
                                       std::size_t ws_bytes, int replans);

  /// Drops WR entries / WD plans that reference blacklisted algorithms.
  /// Deferred to the next plan() entry (the facade calls this first) because
  /// the invalidating event happens mid-execution, while the stale plan's
  /// workspace pointer is still in use.
  void apply_pending_invalidations();

  // --- WD control (§III-E) ---------------------------------------------

  /// Freezes the recorded kernels and runs WD optimization now. Degrades
  /// per the ladder: arena OOM re-solves with a halved limit; an infeasible
  /// plan falls back to per-kernel WR.
  void finalize_wd();
  bool wd_finalized() const noexcept { return wd_plan_.has_value(); }
  /// Assignments are indexed by KernelId; kernels recorded after
  /// finalization have none.
  const WdPlan* wd_plan() const noexcept {
    return wd_plan_ ? &*wd_plan_ : nullptr;
  }

  // --- introspection ----------------------------------------------------

  /// The configuration that will run / ran for this kernel (null before
  /// optimization).
  const Configuration* configuration_for(KernelId id) const;

  /// Which optimizer produced the kernel's current division — "wr_dp" or
  /// "wd_mckp_dp", with degradation prefixes/suffixes such as
  /// "wd_infeasible->wr_dp" or "wr_dp(degraded)" (workspace OOM halving).
  /// Feeds execution reports.
  std::string provenance_for(KernelId id) const;

  /// The per-kernel workspace limit the WR DP runs under: the
  /// UCUDNN_WORKSPACE_LIMIT override, else the framework-recorded limit,
  /// else the 8 MiB default.
  std::size_t effective_limit(KernelId id) const;

  Benchmarker& benchmarker() noexcept { return benchmarker_; }
  const Benchmarker& benchmarker() const noexcept { return benchmarker_; }
  PlanCache& plan_cache() noexcept { return plan_cache_; }
  const PlanCache& plan_cache() const noexcept { return plan_cache_; }

  /// Wall time spent in DP/ILP optimization (excludes benchmarking).
  double total_optimize_ms() const noexcept {
    return total_optimize_ms_.value();
  }
  /// Wall time spent benchmarking inside tail re-plans (also part of
  /// Benchmarker::total_benchmark_ms), so the §IV-B1 overhead accounting
  /// can show the replan path on its own.
  double total_replan_benchmark_ms() const noexcept {
    return total_replan_benchmark_ms_.value();
  }

 private:
  struct WrEntry {
    std::size_t limit = 0;  // the effective limit the entry was built under
    Configuration config;
    DeviceBuffer workspace;
    bool degraded = false;  // re-optimized under a halved limit after OOM
  };
  /// Per-kernel planner state, indexed by KernelId.
  struct KernelSlot {
    std::optional<std::size_t> recorded_limit;  // from GetConvolution*Algorithm
    std::optional<WrEntry> wr;
    // Warn-once ledger for WD "unrecorded kernel" fallbacks: the first
    // occurrence logs, repeats only count (stats_.wd_unrecorded_fallbacks).
    std::uint64_t wd_fallbacks = 0;
  };

  bool wd_active() const noexcept {
    return options_.workspace_policy == WorkspacePolicy::kWD &&
           !wd_degraded_to_wr_;
  }
  WrEntry& wr_entry(KernelId id);
  /// plan_wr on `bench`, adding its solve time (not the timings it takes)
  /// to total_optimize_ms.
  Configuration solve_wr(ConvKernelType type,
                         const kernels::ConvProblem& problem,
                         MicroBenchmark& bench, std::size_t limit);
  const WdAssignment* wd_assignment(KernelId id) const;
  PlannedConvolution resolve(std::shared_ptr<const ExecutionPlan> plan,
                             KernelId id);
  void note_wd_fallback(KernelId id);

  mcudnn::Handle& handle_;
  const Options& options_;
  DegradationStats& stats_;
  Benchmarker benchmarker_;
  std::vector<KernelRequest> kernels_;  // indexed by KernelId, append-only
  std::vector<KernelSlot> slots_;       // parallel to kernels_
  // Interning index: problem hash -> ids in that bucket (compared by value).
  std::unordered_multimap<std::size_t, KernelId> index_;
  DeviceBuffer shared_ws_;  // used when options_.share_wr_workspace
  std::optional<WdPlan> wd_plan_;
  DeviceBuffer wd_arena_;
  bool wd_degraded_to_wr_ = false;  // infeasible WD plan -> per-kernel WR
  PlanCache plan_cache_;
  std::vector<std::pair<ConvKernelType, int>> pending_invalidations_;
  telemetry::InstanceDoubleCounter total_optimize_ms_{
      "ucudnn.planner.optimize_ms"};
  telemetry::InstanceDoubleCounter total_replan_benchmark_ms_{
      "ucudnn.planner.replan_benchmark_ms"};
};

}  // namespace ucudnn::core
