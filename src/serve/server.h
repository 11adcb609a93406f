// Server — the resilient multi-tenant serving front-end (docs/serving.md).
//
// Ties the pieces together: submit() runs deadline-aware admission into the
// bounded RequestQueue; a worker pool collects coalescible batches (holding
// them open up to the batch window), merges them through the Batcher, and
// executes ONE micro-batched convolution per batch on the shared
// UcudnnHandle — so concurrent small requests ride the planner's optimal
// micro-batch division instead of thrashing it with batch-1 calls.
//
// Robustness guarantees (asserted by tests/serve_test.cc):
//  * submit() never blocks unboundedly — every path returns a Ticket that
//    is either queued or already resolved (kRejected / kDeadlineExceeded /
//    kShuttingDown).
//  * Every admitted Ticket resolves exactly once, including under drain,
//    overload shedding, injected faults, and execution failure.
//  * Transient kExecutionFailed is retried with exponential backoff up to
//    UCUDNN_SERVE_MAX_RETRIES times (on top of the executor's own
//    re-plan/blacklist ladder); retries are skipped once every member of
//    the batch has expired.
//  * drain() stops admission, flushes in-flight batches, fails everything
//    still queued with kShuttingDown, and joins the workers. Idempotent.
//
// Fault sites (UCUDNN_FAULTS): serve.enqueue (admission rejects),
// serve.batch (batch assembly fails), serve.exec (execution fails —
// exercises the retry ladder).
//
// Metrics: ucudnn.serve.{admitted,rejected,expired,shed,retried,completed,
// exec_failed,shutdown_failed,batches,batched_requests} counters,
// ucudnn.serve.{queue_depth,overload_level} gauges, and
// ucudnn.serve.{e2e_ms,queue_wait_ms,batch_occupancy} histograms.
//
// Tracing: submit() mints a per-request trace id (Ticket::trace_id());
// serve_admit/serve_queue/serve_exec_request/serve_resolve spans
// reconstruct each request's timeline across coalesced batches, and the
// flight recorder captures overload rung changes, batch builds, and
// resolutions. UCUDNN_WATCHDOG_MS attaches an anomaly watchdog sampling
// watchdog_sample(). See docs/observability.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/ucudnn.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "serve/serve_options.h"
#include "telemetry/metrics.h"
#include "telemetry/watchdog.h"

namespace ucudnn::serve {

class Server {
 public:
  /// The handle must outlive the server. The handle's stored plans and
  /// BenchmarkCache are shared by every worker, and workers execute their
  /// batches on it concurrently (UcudnnHandle::convolution is thread-safe).
  Server(core::UcudnnHandle& handle, ServeOptions opts);
  /// Options from the UCUDNN_SERVE_* environment.
  explicit Server(core::UcudnnHandle& handle)
      : Server(handle, ServeOptions::from_env()) {}
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Non-blocking admission. Always returns a valid Ticket; on any
  /// non-admitted path the ticket is already resolved when it returns.
  TicketPtr submit(ServeRequest request);

  /// Graceful shutdown: stop admission, flush in-flight batches, resolve
  /// everything still queued with kShuttingDown, join workers. Idempotent,
  /// safe from any thread.
  void drain();

  bool draining() const noexcept {
    return drained_.load(std::memory_order_acquire);
  }

  /// Resolves every queued request whose deadline has passed (maintenance
  /// hook; workers shed lazily anyway). Returns how many were shed.
  std::size_t shed_expired();

  // --- introspection ------------------------------------------------------

  /// This server's ucudnn.serve.* counters (the process-wide metrics sum
  /// every server's).
  struct Counters {
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;         ///< kRejected resolutions
    std::uint64_t expired = 0;          ///< kDeadlineExceeded resolutions
    std::uint64_t shed = 0;             ///< priority evictions (in rejected)
    std::uint64_t retried = 0;          ///< batch execution retries
    std::uint64_t completed = 0;        ///< kSuccess resolutions
    std::uint64_t exec_failed = 0;      ///< non-deadline failure resolutions
    std::uint64_t shutdown_failed = 0;  ///< kShuttingDown resolutions
    std::uint64_t batches = 0;          ///< merged batches executed
    std::uint64_t batched_requests = 0; ///< requests across those batches
  };
  Counters counters() const;

  std::size_t queue_depth() const { return queue_.depth(); }
  int overload_level() const { return queue_.overload_level(); }
  /// EWMA of recent batch execution times; 0 until the first batch.
  double service_estimate_ms() const noexcept {
    return ewma_ms_.load(std::memory_order_relaxed);
  }
  const ServeOptions& options() const noexcept { return opts_; }

  /// The anomaly watchdog attached by ServeOptions::watchdog_ms (null when
  /// 0 or when the server runs workerless). Stopped by drain().
  telemetry::Watchdog* watchdog() noexcept { return watchdog_.get(); }
  /// One vital-sign snapshot (queue depth/capacity, overload rung, EWMA
  /// estimate, est-vs-measured drift, per-worker busy times) — the sampling
  /// callback the watchdog polls; public so tests can probe it directly.
  telemetry::WatchdogSample watchdog_sample() const;

 private:
  void worker_loop(std::size_t worker_index);
  void process_batch(std::vector<TicketPtr>& batch);
  /// Builds, (fault-point) executes, and scatters one merged batch.
  /// Throws on failure; the caller owns the retry ladder.
  void execute_once(const std::vector<TicketPtr>& batch);
  /// Resolves (first-wins) and counts; no-op if already resolved.
  void finish(const TicketPtr& ticket, Status status);
  /// The estimate admission control refuses unmeetable deadlines with: the
  /// EWMA, or 0 (unknown) on an empty queue once no executed batch has
  /// confirmed it within its own length — one slow batch must not make an
  /// idle server refuse every later request.
  double admission_estimate_ms() const;
  std::int64_t effective_window_us() const;
  void update_load_gauges();

  core::UcudnnHandle& handle_;
  const ServeOptions opts_;
  Batcher batcher_;
  RequestQueue queue_;

  std::atomic<double> ewma_ms_{0.0};
  /// steady_us() of the last EWMA update (the last executed batch).
  std::atomic<std::int64_t> ewma_updated_us_{0};
  std::atomic<bool> drained_{false};
  /// Serializes drain() (and the destructor) against concurrent drainers.
  Mutex drain_mutex_{"serve.Server.drain"};

  // Exported from construction on, zeros included: a server's counters
  // are its status surface.
  using Cell = telemetry::InstanceCounter;
  static constexpr telemetry::Listed kListed = telemetry::Listed::kAlways;
  Cell admitted_{"ucudnn.serve.admitted", kListed};
  Cell rejected_{"ucudnn.serve.rejected", kListed};
  Cell expired_{"ucudnn.serve.expired", kListed};
  Cell shed_{"ucudnn.serve.shed", kListed};
  Cell retried_{"ucudnn.serve.retried", kListed};
  Cell completed_{"ucudnn.serve.completed", kListed};
  Cell exec_failed_{"ucudnn.serve.exec_failed", kListed};
  Cell shutdown_failed_{"ucudnn.serve.shutdown_failed", kListed};
  Cell batches_{"ucudnn.serve.batches", kListed};
  Cell batched_requests_{"ucudnn.serve.batched_requests", kListed};

  telemetry::Gauge m_depth_, m_level_;
  telemetry::Histogram m_e2e_ms_, m_queue_wait_ms_, m_occupancy_;

  /// Per-worker liveness: steady-clock us when the worker began its current
  /// batch, 0 while idle. Sized once at construction, never resized (the
  /// atomics are not movable).
  struct WorkerState {
    std::atomic<std::int64_t> busy_since_us{0};
  };
  std::vector<WorkerState> worker_state_;
  /// The handle's mean |measured - estimated| / estimated, refreshed after
  /// each batch when the options attach a watchdog.
  std::atomic<double> last_drift_{0.0};

  /// Stopped by drain() before the workers are joined and destroyed with
  /// the server (workers never read it); declared before pool_ so destructor
  /// order never leaves the sampler probing a dead pool.
  std::unique_ptr<telemetry::Watchdog> watchdog_;

  /// Last member: destroyed first, but drain() (not the pool destructor)
  /// is what unblocks the workers.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace ucudnn::serve
