// Planner — phase one of the paper's two-phase pipeline: turn a convolution
// problem into a ready-to-execute ExecutionPlan.
//
// The Planner owns everything decision-shaped that used to live inline in
// UcudnnHandle: WR optimization (per-kernel DP, §III-B), WD optimization
// (Pareto fronts + ILP over the recorded kernel set, §III-C/E), the whole
// graceful-degradation ladder (workspace-limit halving on OOM, WD->WR), and
// the workspace buffers the plans bind to. Each kernel's lowered plan lives
// in its slot beside the state it was lowered from (the WR entry and its
// buffer, or the WD assignment), so steady-state convolution() calls fetch
// a finished plan instead of re-deriving strides, and whatever drops that
// state drops the plan with it.
// It is also the only owner of kernel identity: each distinct (type,
// problem) is interned once into a dense KernelId, and every per-kernel
// table here and in the facade is a slot indexed by it.
//
// Not synchronized itself: every call runs under the facade's handle lock
// (core/ucudnn.h). Kernels run outside that lock, so each call leases the
// workspace its plan binds for as long as it runs (see WorkspaceLease).
//
// Layering contract (tools/check_layering.py): the planner may include the
// plan IR but never the executor; execution-time policy reaches back into
// the planner only through the callback the facade wires up.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

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
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;

  void* data() const noexcept { return ptr_; }
  std::size_t size() const noexcept { return bytes_; }

 private:
  std::shared_ptr<device::Device> dev_;
  void* ptr_ = nullptr;
  std::size_t bytes_ = 0;
};

/// One call's hold on the workspace its plan binds: the plan's home buffer
/// (a WR buffer, the shared WR buffer, or the kernel's WD arena slice), or a
/// same-size spare when another call holds the home. The buffer is shared,
/// so invalidating the home while the call runs cannot free it under the
/// kernel. Handed back with Planner::release().
struct WorkspaceLease {
  std::shared_ptr<DeviceBuffer> buffer;  ///< null when nothing is leased
  std::size_t offset = 0;                ///< byte offset of the slice
  std::size_t bytes = 0;                 ///< bytes the call may use
  bool spare = false;                    ///< a spare, not the home buffer

  void* data() const noexcept {
    return buffer == nullptr
               ? nullptr
               : static_cast<char*>(buffer->data()) + offset;
  }
};

/// A plan plus the workspace lease the call executes it with.
struct PlannedConvolution {
  std::shared_ptr<const ExecutionPlan> plan;
  WorkspaceLease lease;
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

  /// Returns a ready-to-run plan for the full mini-batch — the one the
  /// kernel's slot holds in steady state (a hit), otherwise by running WR/WD
  /// optimization (with the full degradation ladder) and lowering the
  /// result (a miss) — with its
  /// workspace leased. A call that finds the home buffer leased takes a
  /// same-size spare from the free list, allocating one only when the list
  /// has none. nullopt means that allocation failed: the caller waits for a
  /// release() and asks again.
  std::optional<PlannedConvolution> plan(KernelId id);

  /// Hands back a lease plan() took: the home buffer becomes free again
  /// (unless invalidation replaced it meanwhile, in which case the old
  /// buffer dies with the lease), and a spare returns to the free list.
  void release(WorkspaceLease lease);

  /// Retry-budget exhaustion policy, called back from the Executor via the
  /// facade: blacklists `algo` on this device (counted once, however many
  /// calls fail on it), drops the WR entries and the WD plan that use the
  /// algorithm together with their lowered plans (calls in flight keep
  /// their leased buffers), re-benchmarks the unexecuted tail
  /// (counted in total_replan_benchmark_ms), re-runs the WR DP within the
  /// workspace already held, and returns splice-ready segments. `replans` is
  /// the per-execution re-plan ordinal; past the algorithm count the failure
  /// is systemic and kExecutionFailed is thrown.
  std::vector<PlanSegment> replan_tail(ConvKernelType type,
                                       const kernels::ConvProblem& problem,
                                       int algo, std::int64_t done,
                                       std::size_t ws_bytes, int replans);

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
  /// plan() calls that found the kernel's lowered plan in its slot, and
  /// calls that had to lower one. Readable without the handle lock.
  std::uint64_t plan_cache_hits() const noexcept { return hits_.value(); }
  std::uint64_t plan_cache_misses() const noexcept { return misses_.value(); }

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
    std::shared_ptr<DeviceBuffer> workspace;
    std::shared_ptr<const ExecutionPlan> plan;  // config lowered onto it
    bool degraded = false;  // re-optimized under a halved limit after OOM
  };
  /// Per-kernel planner state, indexed by KernelId.
  struct KernelSlot {
    std::optional<std::size_t> recorded_limit;  // from GetConvolution*Algorithm
    std::optional<WrEntry> wr;
    // The WD assignment lowered onto its arena slice, on the kernel's first
    // plan() after finalization; dropped with the arena.
    std::shared_ptr<const ExecutionPlan> wd;
    // Warn-once ledger for WD "unrecorded kernel" fallbacks: the first
    // occurrence logs, repeats only count (stats_.wd_unrecorded_fallbacks).
    std::uint64_t wd_fallbacks = 0;
  };

  bool wd_active() const noexcept {
    return options_.workspace_policy == WorkspacePolicy::kWD &&
           !wd_degraded_to_wr_;
  }
  /// The kernel's WR entry under its effective limit: a hit when the slot
  /// holds one, else a miss that re-optimizes, allocates and lowers it.
  WrEntry& wr_entry(KernelId id);
  /// `config` lowered for the kernel's full mini-batch onto `binding`.
  std::shared_ptr<const ExecutionPlan> lower(
      KernelId id, const Configuration& config,
      const WorkspaceBinding& binding) const;
  /// plan_wr on `bench`, adding its solve time (not the timings it takes)
  /// to total_optimize_ms.
  Configuration solve_wr(ConvKernelType type,
                         const kernels::ConvProblem& problem,
                         MicroBenchmark& bench, std::size_t limit);
  const WdAssignment* wd_assignment(KernelId id) const;
  /// Leases the workspace `plan` binds in `home`, the buffer of the slot
  /// the plan came from (see plan()).
  std::optional<PlannedConvolution> resolve(
      std::shared_ptr<const ExecutionPlan> plan,
      std::shared_ptr<DeviceBuffer> home);
  /// A free spare of exactly `bytes`, allocated when the free list has none;
  /// null when that allocation fails.
  std::shared_ptr<DeviceBuffer> take_spare(std::size_t bytes);
  /// Drops the WR entries and the WD plan whose divisions use `algo`, and
  /// the plans lowered from them.
  void invalidate(ConvKernelType type, int algo);
  void note_wd_fallback(KernelId id);

  mcudnn::Handle& handle_;
  const Options& options_;
  DegradationStats& stats_;
  Benchmarker benchmarker_;
  std::vector<KernelRequest> kernels_;  // indexed by KernelId, append-only
  std::vector<KernelSlot> slots_;       // parallel to kernels_
  // Interning index: problem hash -> ids in that bucket (compared by value).
  std::unordered_multimap<std::size_t, KernelId> index_;
  // used when options_.share_wr_workspace
  std::shared_ptr<DeviceBuffer> shared_ws_ = std::make_shared<DeviceBuffer>();
  std::optional<WdPlan> wd_plan_;
  std::shared_ptr<DeviceBuffer> wd_arena_ = std::make_shared<DeviceBuffer>();
  bool wd_degraded_to_wr_ = false;  // infeasible WD plan -> per-kernel WR
  // Home slices leased to running calls, as (buffer, offset): a WR buffer
  // or the shared WR buffer at offset 0, or a WD arena slice.
  std::vector<std::pair<const DeviceBuffer*, std::size_t>> leased_;
  // Free spares; a spare is allocated only when two calls collide.
  std::vector<std::shared_ptr<DeviceBuffer>> spares_;
  telemetry::InstanceCounter hits_{"ucudnn.plan_cache.hits"};
  telemetry::InstanceCounter misses_{"ucudnn.plan_cache.misses"};
  telemetry::InstanceDoubleCounter total_optimize_ms_{
      "ucudnn.planner.optimize_ms"};
  telemetry::InstanceDoubleCounter total_replan_benchmark_ms_{
      "ucudnn.planner.replan_benchmark_ms"};
};

}  // namespace ucudnn::core
