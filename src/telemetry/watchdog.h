// Anomaly watchdog: a background sampler that periodically snapshots the
// serving stack's vital signs — queue depth, overload rung, est-vs-measured
// drift, per-worker liveness — and emits structured incident records (plus a
// flight-recorder dump) when thresholds trip. The watchdog knows nothing
// about the serve layer: the owner supplies a sampling callback, keeping
// telemetry a leaf. Incident catalog and thresholds: docs/observability.md.
//
// Lifecycle discipline: stop() joins the sampler thread and severs the
// flight-recorder pointer, so owner teardown in any order is safe — call
// stop() before destroying the recorder the watchdog was given.
//
// Layering contract (tools/check_layering.py): telemetry is a leaf — it may
// include only other telemetry headers and common/thread_annotations.h.
// The owner supplies the options (serve::Server reads UCUDNN_WATCHDOG_MS).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"

namespace ucudnn::telemetry {

struct WatchdogOptions {
  /// Sampling period; 0 disables the background thread (poll_now() still
  /// works, which is what the tests use).
  std::int64_t period_ms = 0;
  /// A worker is "stuck" when busy longer than
  /// max(stuck_factor * service_estimate_ms, min_stuck_ms).
  double stuck_factor = 8.0;
  double min_stuck_ms = 50.0;
  /// est_drift above this fraction (|measured - estimated| / estimated)
  /// raises an incident.
  double drift_threshold = 5.0;
  /// Overload rung at or above this raises an incident.
  int overload_level_threshold = 3;
  /// Incidents also trigger FlightRecorder::auto_dump.
  bool dump_on_incident = true;
};

/// One vital-sign snapshot produced by the owner's sampling callback.
struct WatchdogSample {
  std::size_t queue_depth = 0;
  std::size_t queue_capacity = 0;  // 0 = unknown (saturation check skipped)
  int overload_level = 0;
  double service_estimate_ms = 0.0;  // EWMA batch service estimate
  double est_drift = 0.0;  // |measured-estimated|/estimated from the report
  std::vector<double> worker_busy_ms;  // one entry per currently-busy worker
};

/// A threshold trip. `kind` is one of "worker_stuck", "queue_saturated",
/// "overload", "est_drift", "sample_failed".
struct WatchdogIncident {
  double ts_us = 0.0;
  std::string kind;
  std::string detail;
  double value = 0.0;      // observed value that tripped
  double threshold = 0.0;  // limit it tripped against
};

class Watchdog {
 public:
  using SampleFn = std::function<WatchdogSample()>;

  /// Starts the sampler thread when opts.period_ms > 0. `recorder` (may be
  /// null) receives kWatchdog events and auto-dump requests on incidents.
  Watchdog(WatchdogOptions opts, SampleFn sample_fn,
           FlightRecorder* recorder = nullptr);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Joins the sampler and severs the recorder pointer. Idempotent.
  void stop();

  /// Takes one sample synchronously; returns the number of new incidents.
  std::size_t poll_now();

  std::vector<WatchdogIncident> incidents() const;
  std::uint64_t sample_count() const noexcept { return samples_.value(); }
  bool running() const noexcept {
    return running_.load(std::memory_order_relaxed);
  }

 private:
  void loop();
  void evaluate(const WatchdogSample& sample);
  /// `kind` is a string literal: the flight recorder keeps the pointer.
  void emit(const char* kind, std::string detail, double value,
            double threshold);

  const WatchdogOptions opts_;
  const SampleFn sample_;
  std::atomic<FlightRecorder*> recorder_;
  InstanceCounter samples_{"ucudnn.watchdog.samples", Listed::kAlways};
  std::atomic<bool> running_{false};

  mutable Mutex mutex_{"telemetry.Watchdog"};
  CondVar cv_;
  bool stopping_ GUARDED_BY(mutex_) = false;
  std::vector<WatchdogIncident> incidents_ GUARDED_BY(mutex_);
  // Rising-edge dedup: an incident kind re-fires only after its condition
  // has been observed clear at least once.
  std::map<std::string, bool> active_ GUARDED_BY(mutex_);

  Counter m_incidents_;  // ucudnn.watchdog.incidents

  std::thread thread_;
};

}  // namespace ucudnn::telemetry
