#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>
#include <thread>

#include "common/logging.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"

namespace ucudnn::serve {
namespace {

Clock::duration ms_to_duration(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// Ceiling on the exponential retry backoff. max_retries and the backoff
/// base are user-configurable with no upper bound, so 2^attempt scaling
/// must saturate here instead of overflowing.
constexpr std::int64_t kMaxRetryBackoffUs = 1'000'000;

std::int64_t retry_backoff_us(std::int64_t base_us, int attempt) {
  std::int64_t backoff = base_us;
  for (int i = 0; i < attempt && backoff < kMaxRetryBackoffUs; ++i) {
    backoff *= 2;
  }
  return std::min(backoff, kMaxRetryBackoffUs);
}

std::int64_t steady_us() noexcept {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

Server::Server(core::UcudnnHandle& handle, ServeOptions opts)
    : handle_(handle),
      opts_(opts),
      batcher_(opts.pad_to_pow2),
      queue_(opts),
      worker_state_(static_cast<std::size_t>(std::max(opts.workers, 0))) {
  opts_.validate();
  auto& metrics = telemetry::MetricsRegistry::instance();
  m_depth_ = metrics.gauge("ucudnn.serve.queue_depth");
  m_level_ = metrics.gauge("ucudnn.serve.overload_level");
  m_e2e_ms_ = metrics.histogram("ucudnn.serve.e2e_ms");
  m_queue_wait_ms_ = metrics.histogram("ucudnn.serve.queue_wait_ms");
  m_occupancy_ = metrics.histogram("ucudnn.serve.batch_occupancy");

  if (opts_.workers > 0) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(opts_.workers));
    for (int i = 0; i < opts_.workers; ++i) {
      const auto index = static_cast<std::size_t>(i);
      pool_->submit([this, index] { worker_loop(index); });
    }
    if (opts_.watchdog_ms > 0) {
      telemetry::WatchdogOptions wd;
      wd.period_ms = opts_.watchdog_ms;
      watchdog_ = std::make_unique<telemetry::Watchdog>(
          wd, [this] { return watchdog_sample(); },
          &telemetry::FlightRecorder::instance());
    }
  }
}

Server::~Server() { drain(); }

void Server::finish(const TicketPtr& ticket, Status status) {
  Cell& outcome = status == Status::kSuccess            ? completed_
                  : status == Status::kDeadlineExceeded ? expired_
                  : status == Status::kRejected         ? rejected_
                  : status == Status::kShuttingDown     ? shutdown_failed_
                                                        : exec_failed_;
  // Counted as the ticket resolves, so counters() already includes this
  // resolution when the client's wait() returns.
  if (!ticket->resolve(status, [&outcome] { outcome.add(); })) return;
  // Per-request terminal markers: a zero-duration "serve_resolve" span on
  // the request's timeline and a compact status transition in the black box.
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::instance();
  if (recorder.enabled()) {
    telemetry::SpanEvent event;
    event.name = "serve_resolve";
    event.detail = std::string(to_string(status));
    event.ts_us = recorder.now_us();
    event.dur_us = 0.0;
    event.tid = telemetry::TraceRecorder::thread_ordinal();
    event.trace_id = ticket->trace_id();
    recorder.record(std::move(event));
  }
  telemetry::FlightRecorder::note(
      telemetry::FlightEventKind::kStatus, to_string(status).data(),
      ticket->trace_id(), static_cast<std::int64_t>(status), 0);
  m_e2e_ms_.observe_ms(ticket->latency_ms());
}

void Server::update_load_gauges() {
  m_depth_.set(static_cast<std::int64_t>(queue_.depth()));
  m_level_.set(queue_.overload_level());
}

std::int64_t Server::effective_window_us() const {
  // Overload ladder rung 1+: collapse the batch window so queued work
  // drains at maximum rate instead of idling for stragglers.
  return queue_.overload_level() >= 1 ? 0 : opts_.batch_window_us;
}

TicketPtr Server::submit(ServeRequest request) {
  auto ticket = std::make_shared<Ticket>(std::move(request));
  // Mint the request's trace id before anything else can emit on its
  // behalf; the ambient context scopes every admission-path span (and
  // flight event) to it.
  ticket->set_trace_id(telemetry::next_trace_id());
  ticket->set_submit_ts_us(telemetry::TraceRecorder::instance().now_us());
  const telemetry::TraceContext trace_scope(ticket->trace_id());
  const telemetry::ScopedSpan admit_span("serve_admit");
  const double deadline_ms = ticket->request().deadline_ms > 0.0
                                 ? ticket->request().deadline_ms
                                 : opts_.default_deadline_ms;
  if (deadline_ms > 0.0) {
    ticket->set_deadline(ticket->submitted() + ms_to_duration(deadline_ms));
  }

  if (drained_.load(std::memory_order_acquire)) {
    finish(ticket, Status::kShuttingDown);
    return ticket;
  }

  FaultInjector& injector = FaultInjector::instance();
  if (injector.armed() && injector.should_fail(FaultSite::kServeEnqueue)) {
    UCUDNN_LOG_DEBUG << "serve: injected admission rejection";
    finish(ticket, Status::kRejected);
    return ticket;
  }

  RequestQueue::Admission admission =
      queue_.try_enqueue(ticket, admission_estimate_ms());
  for (const TicketPtr& stale : admission.expired) {
    finish(stale, Status::kDeadlineExceeded);
  }
  for (const TicketPtr& victim : admission.shed) {
    shed_.add();
    finish(victim, Status::kRejected);
  }
  switch (admission.status) {
    case Status::kSuccess:
      admitted_.add();
      break;
    default:
      finish(ticket, admission.status);
      break;
  }
  update_load_gauges();
  return ticket;
}

double Server::admission_estimate_ms() const {
  const double estimate = service_estimate_ms();
  const double age_ms =
      static_cast<double>(steady_us() -
                          ewma_updated_us_.load(std::memory_order_relaxed)) /
      1000.0;
  // Stale and nothing queued: admit, and let the next batch re-measure.
  if (age_ms > estimate && queue_.depth() == 0) return 0.0;
  return estimate;
}

std::size_t Server::shed_expired() {
  const std::vector<TicketPtr> stale = queue_.shed_expired();
  for (const TicketPtr& ticket : stale) {
    finish(ticket, Status::kDeadlineExceeded);
  }
  update_load_gauges();
  return stale.size();
}

void Server::worker_loop(std::size_t worker_index) {
  WorkerState* state = worker_index < worker_state_.size()
                           ? &worker_state_[worker_index]
                           : nullptr;
  for (;;) {
    std::vector<TicketPtr> stale;
    std::vector<TicketPtr> batch =
        queue_.next_batch(effective_window_us(), opts_.max_batch,
                          service_estimate_ms(), &stale);
    for (const TicketPtr& ticket : stale) {
      finish(ticket, Status::kDeadlineExceeded);
    }
    if (batch.empty()) {
      // Either the queue is draining (exit) or the wait was cut short just
      // to hand back freshly expired tickets (resolved above — go again).
      if (queue_.draining()) return;
      update_load_gauges();
      continue;
    }
    // Liveness beacon for the watchdog: busy from batch pickup to
    // resolution, cleared on every exit path.
    if (state != nullptr) {
      state->busy_since_us.store(steady_us(), std::memory_order_relaxed);
    }
    try {
      process_batch(batch);
    } catch (const std::exception& e) {
      // process_batch owns failure resolution; anything escaping is a bug,
      // but a worker must never die with tickets unresolved.
      UCUDNN_LOG_ERROR << "serve: batch processing escaped: " << e.what();
      for (const TicketPtr& ticket : batch) {
        finish(ticket, Status::kInternalError);
      }
    }
    if (state != nullptr) {
      state->busy_since_us.store(0, std::memory_order_relaxed);
    }
    update_load_gauges();
  }
}

void Server::execute_once(const std::vector<TicketPtr>& batch) {
  FaultInjector& injector = FaultInjector::instance();
  if (injector.armed()) injector.fail_point(FaultSite::kServeBatch);
  MergedBatch merged = batcher_.build(batch);
  {
    telemetry::ScopedSpan span("serve_exec", [&merged] {
      return merged.problem.to_string() + " total=" +
             std::to_string(merged.total);
    });
    handle_.convolution(merged.type, merged.problem, merged.alpha, merged.a,
                        merged.b, merged.beta, merged.out);
    // After the convolution so an injected failure models the worst case: a
    // transient fault whose attempt already wrote into the output buffer —
    // exactly what the retry ladder's beta-snapshot must survive.
    if (injector.armed()) injector.fail_point(FaultSite::kServeExec);
  }
  batcher_.scatter(merged, batch);
}

void Server::process_batch(std::vector<TicketPtr>& batch) {
  const Clock::time_point start = Clock::now();
  telemetry::TraceRecorder& recorder = telemetry::TraceRecorder::instance();
  // The batch gets its own trace id (execution is shared work), scoped over
  // everything below — serve_exec and the executor's segment spans inherit
  // it ambiently. Member request ids are listed in the batch span's detail,
  // and each member's timeline gets explicit queue/exec spans carrying its
  // own id, so per-request reconstruction never needs the batch id.
  const std::uint64_t batch_trace_id = telemetry::next_trace_id();
  const telemetry::TraceContext trace_scope(batch_trace_id);
  telemetry::ScopedSpan span("serve_batch", [&batch] {
    std::string detail = std::to_string(batch.size()) + " request(s) members=[";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i > 0) detail += ",";
      detail += std::to_string(batch[i]->trace_id());
    }
    detail += "]";
    return detail;
  });
  batches_.add();
  batched_requests_.add(batch.size());
  std::int64_t samples = 0;
  for (const TicketPtr& ticket : batch) {
    samples += ticket->request().problem.batch();
    m_queue_wait_ms_.observe_ms(
        std::chrono::duration<double, std::milli>(start - ticket->submitted())
            .count());
  }
  m_occupancy_.observe_ms(static_cast<double>(samples));
  if (recorder.enabled()) {
    // Retroactive per-member "serve_queue" spans: submit -> batch pickup,
    // recorded on each member's own timeline.
    const double pickup_us = recorder.now_us();
    for (const TicketPtr& ticket : batch) {
      telemetry::SpanEvent event;
      event.name = "serve_queue";
      event.ts_us = ticket->submit_ts_us();
      event.dur_us = std::max(0.0, pickup_us - ticket->submit_ts_us());
      event.tid = telemetry::TraceRecorder::thread_ordinal();
      event.trace_id = ticket->trace_id();
      recorder.record(std::move(event));
    }
  }

  // A singleton batch may execute directly into the client's output buffer
  // (no staging); with beta != 0 a failed attempt can leave it partially
  // accumulated, and a retry re-reading it would apply beta twice. Snapshot
  // it up front and restore before every retry. Staged batches need nothing:
  // they re-stage from the untouched client buffers on each attempt.
  std::vector<float> output_snapshot;
  float* snapshot_dst = nullptr;
  if (opts_.max_retries > 0 && batch.size() == 1 &&
      batch.front()->request().beta != 0.0f) {
    const ServeRequest& req = batch.front()->request();
    snapshot_dst = req.output;
    output_snapshot.assign(
        req.output,
        req.output + kernels::operand_counts(req.type, req.problem).out);
  }

  const double exec_begin_us = recorder.now_us();
  Status failure = Status::kSuccess;
  for (int attempt = 0;; ++attempt) {
    try {
      execute_once(batch);
      break;
    } catch (const Error& e) {
      const Clock::time_point now = Clock::now();
      const bool all_expired =
          std::all_of(batch.begin(), batch.end(), [now](const TicketPtr& t) {
            return t->expired(now);
          });
      // Retries stay on during drain: they are bounded (max_retries with
      // capped backoff), and skipping them would leak kExecutionFailed where
      // the ticket contract promises success/deadline/reject/shutdown.
      if (e.status() == Status::kExecutionFailed &&
          attempt < opts_.max_retries && !all_expired) {
        retried_.add();
        UCUDNN_LOG_WARN << "serve: transient batch failure (attempt "
                        << attempt + 1 << "): " << e.what();
        if (snapshot_dst != nullptr) {
          std::copy(output_snapshot.begin(), output_snapshot.end(),
                    snapshot_dst);
        }
        std::this_thread::sleep_for(std::chrono::microseconds(
            retry_backoff_us(opts_.retry_backoff_us, attempt)));
        continue;
      }
      UCUDNN_LOG_ERROR << "serve: batch failed terminally: " << e.what();
      failure = e.status();
      break;
    }
  }

  if (recorder.enabled()) {
    // Per-member "serve_exec_request" spans covering the (retried) execution
    // window, so each request's timeline is self-contained.
    const double exec_end_us = recorder.now_us();
    for (const TicketPtr& ticket : batch) {
      telemetry::SpanEvent event;
      event.name = "serve_exec_request";
      event.ts_us = exec_begin_us;
      event.dur_us = exec_end_us - exec_begin_us;
      event.tid = telemetry::TraceRecorder::thread_ordinal();
      event.trace_id = ticket->trace_id();
      recorder.record(std::move(event));
    }
  }
  if (opts_.watchdog_ms > 0) {
    // Refresh the est-vs-measured drift vital sign (the handle locks its own
    // exec records). Decided from the options, not from watchdog_, so
    // workers never touch the watchdog drain() stops.
    last_drift_.store(handle_.estimation_error_pct() / 100.0,
                      std::memory_order_relaxed);
  }

  const double service_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  // Lossy EWMA update: concurrent workers may clobber each other's store,
  // which only costs estimate freshness, never correctness.
  const double prev = ewma_ms_.load(std::memory_order_relaxed);
  ewma_ms_.store(prev == 0.0 ? service_ms : 0.8 * prev + 0.2 * service_ms,
                 std::memory_order_relaxed);
  ewma_updated_us_.store(steady_us(), std::memory_order_relaxed);

  const Clock::time_point done = Clock::now();
  for (const TicketPtr& ticket : batch) {
    if (ticket->expired(done)) {
      // Whatever happened, the deadline contract wins (an expired member of
      // a failed batch is a deadline miss, and a result that arrived late
      // is too — so p99 of successful requests stays bounded by the
      // deadline).
      finish(ticket, Status::kDeadlineExceeded);
    } else {
      finish(ticket, failure);  // kSuccess when the batch went through
    }
  }
}

void Server::drain() {
  MutexLock lock(drain_mutex_);
  if (drained_.load(std::memory_order_acquire)) return;
  drained_.store(true, std::memory_order_release);
  // The watchdog samples server state, so it stops before anything else is
  // torn down (its stop() also severs the flight-recorder link).
  if (watchdog_ != nullptr) watchdog_->stop();
  std::vector<TicketPtr> leftovers = queue_.close();
  for (const TicketPtr& ticket : leftovers) {
    finish(ticket, Status::kShuttingDown);
  }
  // Workers flush whatever batch they already collected, observe draining,
  // and return; the pool destructor joins them.
  pool_.reset();
  update_load_gauges();
}

telemetry::WatchdogSample Server::watchdog_sample() const {
  telemetry::WatchdogSample sample;
  sample.queue_depth = queue_.depth();
  sample.queue_capacity = queue_.capacity();
  sample.overload_level = queue_.overload_level();
  sample.service_estimate_ms = service_estimate_ms();
  sample.est_drift = last_drift_.load(std::memory_order_relaxed);
  const std::int64_t now_us = steady_us();
  for (const WorkerState& state : worker_state_) {
    const std::int64_t since = state.busy_since_us.load(std::memory_order_relaxed);
    if (since > 0) {
      sample.worker_busy_ms.push_back(
          static_cast<double>(now_us - since) / 1000.0);
    }
  }
  return sample;
}

Server::Counters Server::counters() const {
  return {admitted_.value(),    rejected_.value(),  expired_.value(),
          shed_.value(),        retried_.value(),   completed_.value(),
          exec_failed_.value(), shutdown_failed_.value(),
          batches_.value(),     batched_requests_.value()};
}

}  // namespace ucudnn::serve
