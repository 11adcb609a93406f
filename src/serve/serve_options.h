// Serving front-end configuration (docs/serving.md). Like everything else
// in this reproduction, every knob is controllable through UCUDNN_SERVE_*
// environment variables and programmatically through this struct:
//
//   UCUDNN_SERVE_WORKERS          worker threads draining the queue    (2)
//   UCUDNN_SERVE_QUEUE_CAPACITY   bounded request-queue depth          (256)
//   UCUDNN_SERVE_BATCH_WINDOW_US  how long a worker holds a batch open
//                                 for same-shape stragglers            (200)
//   UCUDNN_SERVE_MAX_BATCH        coalesced-batch sample cap           (64)
//   UCUDNN_SERVE_DEADLINE_MS      default per-request deadline; 0 = none (0)
//   UCUDNN_SERVE_MAX_RETRIES      serve-level retries for a transient
//                                 kExecutionFailed batch               (3)
//   UCUDNN_SERVE_RETRY_BACKOFF_US base exponential-backoff unit        (50)
//   UCUDNN_SERVE_WINDOW_WATERMARK queue-depth fraction beyond which the
//                                 batch window collapses to 0          (0.5)
//   UCUDNN_SERVE_SHED_WATERMARK   queue-depth fraction beyond which
//                                 lowest-priority requests are shed    (0.75)
//   UCUDNN_SERVE_PAD_POW2         pad coalesced batches to the next
//                                 power of two (bounds the number of
//                                 distinct plans/benchmarks)           (1)
//   UCUDNN_WATCHDOG_MS            anomaly-watchdog sampling period in ms;
//                                 0 disables it (docs/observability.md) (0)
#pragma once

#include <cstdint>
#include <cstddef>

namespace ucudnn::serve {

struct ServeOptions {
  /// Worker threads draining the queue. 0 is legal and means "no workers":
  /// nothing dequeues, which tests use to make admission behavior
  /// deterministic (drain() still resolves everything).
  int workers = 2;
  std::size_t queue_capacity = 256;
  /// Latency budget a worker spends holding a batch open for same-shape
  /// stragglers. Collapsed to 0 by the overload ladder's first rung.
  std::int64_t batch_window_us = 200;
  /// Sample cap of one coalesced batch (the merged mini-batch the planner
  /// divides into micro-batches).
  std::int64_t max_batch = 64;
  /// Default deadline applied when a request leaves deadline_ms at 0.
  /// 0 = requests without an explicit deadline never expire.
  double default_deadline_ms = 0.0;
  /// Serve-level retries for a batch failing with transient
  /// kExecutionFailed (on top of the executor's own retry/blacklist
  /// ladder, which handles per-segment kernel failures).
  int max_retries = 3;
  /// Exponential backoff base between serve-level retries:
  /// backoff_us * 2^attempt, saturating at 1 s per sleep (max_retries is
  /// unbounded, so the doubling must not overflow).
  std::int64_t retry_backoff_us = 50;
  /// Overload ladder rung 1: queue depth fraction beyond which the batch
  /// window collapses to 0 (stop waiting for stragglers).
  double window_watermark = 0.5;
  /// Overload ladder rung 2: queue depth fraction beyond which admission
  /// sheds the lowest-priority queued request to make room for a
  /// higher-priority arrival (and rejects arrivals that do not beat the
  /// lowest queued priority).
  double shed_watermark = 0.75;
  /// Pad coalesced batches up to the next power of two with zero samples.
  /// Bounds the set of distinct mini-batch sizes the planner ever sees, so
  /// plan-cache entries and benchmark cost stay O(log max_batch) instead of
  /// O(max_batch).
  bool pad_to_pow2 = true;
  /// Anomaly-watchdog sampling period (telemetry::Watchdog over queue depth,
  /// overload rung, est-vs-measured drift, and worker liveness); 0 = off.
  /// Set from UCUDNN_WATCHDOG_MS by from_env().
  std::int64_t watchdog_ms = 0;

  /// Reads every field from the environment.
  static ServeOptions from_env();

  /// Throws Error(kBadParam) on out-of-range values (negative counts,
  /// watermarks outside [0,1] or inverted, zero capacity).
  void validate() const;
};

}  // namespace ucudnn::serve
