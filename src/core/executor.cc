#include "core/executor.h"

#include <numeric>

#include "analysis/alias_check.h"
#include "analysis/workspace_audit.h"
#include "common/logging.h"
#include "common/timer.h"
#include "kernels/registry.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ucudnn::core {

namespace {

telemetry::Counter& segments_metric() {
  static telemetry::Counter c = telemetry::MetricsRegistry::instance().counter(
      "ucudnn.executor.segments");
  return c;
}

telemetry::Histogram& segment_ms_histogram() {
  static telemetry::Histogram h =
      telemetry::MetricsRegistry::instance().histogram(
          "ucudnn.executor.segment_ms");
  return h;
}

}  // namespace

Executor::Executor(mcudnn::Handle& handle, const Options& options,
                   DegradationStats& stats)
    : handle_(handle), options_(options), stats_(stats) {}

void Executor::run(const ExecutionPlan& plan, float alpha, const float* a,
                   const float* b, float beta, float* out, void* ws,
                   std::size_t ws_bytes, const ReplanFn& replan,
                   const MeasureFn& measure) {
  const ConvKernelType type = plan.type;
  const kernels::ConvProblem& problem = plan.problem;
  {
    const std::int64_t covered = std::accumulate(
        plan.segments.begin(), plan.segments.end(), std::int64_t{0},
        [](std::int64_t sum, const PlanSegment& s) { return sum + s.batch; });
    if (covered != problem.batch()) {
      throw Error(Status::kInternalError, "plan does not cover the mini-batch");
    }
  }

  const analysis::ScopedAuditContext audit_context(
      plan.binding.kind == WorkspaceKind::kWdArena ? "WD" : "WR");

  // The segment list is mutable: when an algorithm keeps failing past the
  // retry budget, the not-yet-executed tail is spliced out for replacement
  // segments from the ReplanFn.
  std::vector<PlanSegment> segments = plan.segments;
  // On a simulated device the wall-clock Timer reads ~0 (virtual execution
  // only advances the modeled stream clock), so measured segment times are
  // taken as device-clock deltas there — the quantity the planner's
  // estimates model.
  device::Device& dev = handle_.device();
  const bool simulated = dev.is_simulated();
  std::int64_t done = 0;
  int replans = 0;
  std::size_t idx = 0;
  while (idx < segments.size()) {
    const PlanSegment segment = segments[idx];
    const telemetry::ScopedSpan span("segment_exec", [&] {
      return "batch=" + std::to_string(segment.batch) +
             " algo=" + std::to_string(segment.algo);
    });
    const double clock_start =
        simulated ? dev.stream_clock_ms(handle_.stream()) : 0.0;
    Timer segment_timer;
    const kernels::ConvProblem sub = problem.with_batch(segment.batch);
    const float* a_ptr = a == nullptr ? nullptr : a + segment.a_offset;
    const float* b_ptr = b == nullptr ? nullptr : b + segment.b_offset;
    float* out_ptr = out == nullptr ? nullptr : out + segment.out_offset;
    // BackwardFilter accumulates across micro-batches (output scale trick).
    const float micro_beta = segment.accumulate ? 1.0f : beta;

    if (analysis::workspace_audit_enabled()) {
      // BackwardFilter beta-accumulates dw across micro-batches, so
      // workspace aliasing any operand (or the operands aliasing the
      // accumulator) silently corrupts gradients. Checked per segment with
      // the micro-batch spans actually touched.
      const kernels::OperandCounts n = kernels::operand_counts(type, sub);
      const auto bytes = [](std::int64_t count) {
        return static_cast<std::size_t>(count) * sizeof(float);
      };
      analysis::check_disjoint({{ws, ws_bytes, "workspace"},
                                {a_ptr, bytes(n.a), "operand a"},
                                {b_ptr, bytes(n.b), "operand b"},
                                {out_ptr, bytes(n.out), "output"}});
    }

    int failures = 0;
    bool replanned = false;
    for (;;) {
      try {
        mcudnn::convolution(handle_, type, sub, alpha, a_ptr, b_ptr,
                            micro_beta, out_ptr, segment.algo, ws, ws_bytes);
        break;
      } catch (const Error& e) {
        if (e.status() != Status::kExecutionFailed || options_.fail_fast) {
          throw;
        }
        ++failures;
        if (failures <= options_.max_retries) {
          stats_.retries.add();
          telemetry::FlightRecorder::note(
              telemetry::FlightEventKind::kDegradation, "executor.retry",
              telemetry::current_trace_id(), segment.algo, failures);
          UCUDNN_LOG_WARN << "transient kernel failure ("
                          << kernels::algo_name(type, segment.algo) << " on "
                          << sub.to_string() << "): " << e.what()
                          << "; retry " << failures << "/"
                          << options_.max_retries;
          continue;
        }
        ++replans;
        // Blacklisting is the flight recorder's "engine out" moment: record
        // the ladder step and preserve the surrounding ring automatically.
        telemetry::FlightRecorder::note(
            telemetry::FlightEventKind::kDegradation, "executor.blacklist",
            telemetry::current_trace_id(), segment.algo, replans);
        if (telemetry::FlightRecorder::armed()) {
          telemetry::FlightRecorder::instance().auto_dump("executor.blacklist");
        }
        std::vector<PlanSegment> tail = replan(segment.algo, done, replans);
        segments.resize(idx);
        segments.insert(segments.end(), tail.begin(), tail.end());
        replanned = true;
        break;
      }
    }
    if (replanned) continue;  // segments[idx] was replaced; run the new tail
    const double wall_ms = segment_timer.elapsed_ms();
    segments_metric().add(1);
    segment_ms_histogram().observe_ms(wall_ms);
    if (measure) {
      const double measured_ms =
          simulated ? dev.stream_clock_ms(handle_.stream()) - clock_start
                    : wall_ms;
      measure(idx, segment, measured_ms);
    }
    done += segment.batch;
    ++idx;
  }
}

}  // namespace ucudnn::core
