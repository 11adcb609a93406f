#include "telemetry/watchdog.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "telemetry/trace.h"

namespace ucudnn::telemetry {

Watchdog::Watchdog(WatchdogOptions opts, SampleFn sample_fn,
                   FlightRecorder* recorder)
    : opts_(std::move(opts)), sample_(std::move(sample_fn)),
      recorder_(recorder) {
  m_incidents_ =
      MetricsRegistry::instance().counter("ucudnn.watchdog.incidents");
  if (opts_.period_ms > 0 && sample_) {
    running_.store(true, std::memory_order_relaxed);
    thread_ = std::thread([this] { loop(); });
  }
}

Watchdog::~Watchdog() { stop(); }

void Watchdog::stop() {
  {
    MutexLock lock(mutex_);
    stopping_ = true;
    cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
  // Sever the recorder link: after stop() the owner may destroy the flight
  // recorder in any order relative to this watchdog.
  recorder_.store(nullptr, std::memory_order_relaxed);
}

void Watchdog::loop() {
  for (;;) {
    {
      MutexLock lock(mutex_);
      if (stopping_) return;
      cv_.wait_for_us(mutex_, opts_.period_ms * 1000);
      if (stopping_) return;
    }
    poll_now();
  }
}

std::size_t Watchdog::poll_now() {
  if (!sample_) return 0;
  std::size_t count_before;
  {
    MutexLock lock(mutex_);
    count_before = incidents_.size();
  }
  try {
    const WatchdogSample sample = sample_();
    samples_.add();
    evaluate(sample);
    // Recorded as an incident, not swallowed: a failing vital-sign probe is
    // itself an anomaly worth reporting.
  } catch (const std::exception&) {  // status-discipline: allow
    emit("sample_failed", "sampling callback threw", 0.0, 0.0);
  }
  MutexLock lock(mutex_);
  return incidents_.size() - count_before;
}

void Watchdog::evaluate(const WatchdogSample& sample) {
  struct Check {
    const char* kind;
    bool firing;
    std::string detail;
    double value;
    double threshold;
  };
  std::vector<Check> checks;

  const bool saturated =
      sample.queue_capacity > 0 && sample.queue_depth >= sample.queue_capacity;
  checks.push_back({"queue_saturated", saturated,
                    "queue depth " + std::to_string(sample.queue_depth) +
                        " / capacity " + std::to_string(sample.queue_capacity),
                    static_cast<double>(sample.queue_depth),
                    static_cast<double>(sample.queue_capacity)});

  const bool overloaded =
      sample.overload_level >= opts_.overload_level_threshold;
  checks.push_back({"overload", overloaded,
                    "overload rung " + std::to_string(sample.overload_level),
                    static_cast<double>(sample.overload_level),
                    static_cast<double>(opts_.overload_level_threshold)});

  const double stuck_threshold_ms =
      std::max(opts_.stuck_factor * sample.service_estimate_ms,
               opts_.min_stuck_ms);
  double worst_busy_ms = 0.0;
  for (const double busy_ms : sample.worker_busy_ms) {
    worst_busy_ms = std::max(worst_busy_ms, busy_ms);
  }
  const bool stuck = worst_busy_ms > stuck_threshold_ms;
  checks.push_back(
      {"worker_stuck", stuck,
       "worker busy " + std::to_string(worst_busy_ms) + " ms vs " +
           std::to_string(stuck_threshold_ms) + " ms limit (estimate " +
           std::to_string(sample.service_estimate_ms) + " ms)",
       worst_busy_ms, stuck_threshold_ms});

  const bool drifting = sample.est_drift > opts_.drift_threshold;
  checks.push_back({"est_drift", drifting,
                    "est-vs-measured drift " +
                        std::to_string(sample.est_drift * 100.0) + "%",
                    sample.est_drift, opts_.drift_threshold});

  for (Check& check : checks) {
    bool rising = false;
    {
      MutexLock lock(mutex_);
      bool& active = active_[check.kind];
      rising = check.firing && !active;
      active = check.firing;
    }
    if (rising) {
      emit(check.kind, std::move(check.detail), check.value, check.threshold);
    }
  }
}

void Watchdog::emit(const char* kind, std::string detail, double value,
                    double threshold) {
  WatchdogIncident incident;
  incident.ts_us = TraceRecorder::instance().now_us();
  incident.kind = kind;
  incident.detail = std::move(detail);
  incident.value = value;
  incident.threshold = threshold;
  std::fprintf(stderr, "ucudnn: watchdog incident [%s] %s\n", kind,
               incident.detail.c_str());
  {
    MutexLock lock(mutex_);
    incidents_.push_back(incident);
  }
  m_incidents_.add();
  MetricsRegistry::instance()
      .counter(std::string("ucudnn.watchdog.incident.") + kind)
      .add();
  if (FlightRecorder* recorder = recorder_.load(std::memory_order_relaxed)) {
    recorder->record(FlightEventKind::kWatchdog, kind, current_trace_id(),
                     static_cast<std::int64_t>(value),
                     static_cast<std::int64_t>(threshold));
    if (opts_.dump_on_incident) recorder->auto_dump(kind);
  }
}

std::vector<WatchdogIncident> Watchdog::incidents() const {
  MutexLock lock(mutex_);
  return incidents_;
}

}  // namespace ucudnn::telemetry
