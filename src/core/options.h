// μ-cuDNN configuration. Like the paper's implementation everything is
// controllable through UCUDNN_* environment variables, and programmatically
// through this struct ("a special library function", §III-D):
//
//   UCUDNN_BATCH_SIZE_POLICY     all | powerOfTwo | undivided   (powerOfTwo)
//   UCUDNN_WORKSPACE_POLICY      wr | wd                        (wr)
//   UCUDNN_WORKSPACE_LIMIT       per-kernel bytes, K/M/G suffix; overrides the
//                                limit the framework passes (needed for
//                                frameworks that never pass one, §IV-B2)
//   UCUDNN_TOTAL_WORKSPACE_SIZE  WD total arena bytes           (64M)
//   UCUDNN_SHARED_WORKSPACE      1 = one WR workspace buffer shared by all
//                                kernels (sequential execution) (0)
//   UCUDNN_CACHE_PATH            benchmark-cache database file  (unset = off)
//   UCUDNN_BENCHMARK_DEVICES     parallel benchmarking fan-out  (1)
//   UCUDNN_MAX_RETRIES           transient-kernel-failure retries before the
//                                algorithm is blacklisted       (3)
//   UCUDNN_FAIL_FAST             1 = disable graceful degradation; resource
//                                failures throw immediately     (0)
//   UCUDNN_FAULTS                fault-injection schedule (testing only; see
//                                docs/robustness.md)            (unset = off)
//   UCUDNN_TELEMETRY             1/true/on/yes = metrics + trace spans; any
//                                other value = also write a plain-text metrics
//                                snapshot to that path at exit; 0/false/off/no
//                                = off (docs/observability.md)  (unset = off)
//   UCUDNN_TRACE_FILE            chrome://tracing JSON written at exit;
//                                implies telemetry on           (unset = off)
//   UCUDNN_REQUEST_TRACE_FILE    per-request timeline JSON
//                                (ucudnn-request-trace-v1) written at exit;
//                                implies telemetry on           (unset = off)
//   UCUDNN_TRACE_MAX_SPANS       retained-span cap, drop-oldest; evictions
//                                counted in ucudnn.trace.dropped (1000000)
//   UCUDNN_FLIGHT_FILE           arm the flight recorder; dump its rings
//                                (ucudnn-flight-v1) there at exit and on
//                                faults/incidents
//                                (docs/observability.md)        (unset = off)
//   UCUDNN_FLIGHT_EVENTS         per-thread flight ring capacity, clamped to
//                                [16, 1M]; setting it arms the recorder (4096)
//   UCUDNN_WATCHDOG_MS           anomaly-watchdog sampling period for each
//                                serve::Server; 0 = off
//                                (docs/observability.md)        (0)
//   UCUDNN_REPORT_FILE           per-handle execution report (plan explain,
//                                estimated-vs-measured ms, workspace audit)
//                                at handle teardown; JSON when the path ends
//                                in .json, pretty text otherwise (unset = off)
//   UCUDNN_BENCH_JSON_DIR        bench binaries also write machine-readable
//                                BENCH_<name>.json artifacts to this
//                                directory (same as --json-dir); compare runs
//                                with tools/bench_compare.py  (unset = off)
//   UCUDNN_LOCK_ORDER            1 = runtime lock-order (potential-deadlock)
//                                detection; only in builds compiling the
//                                detector in (Debug/sanitizer presets; see
//                                docs/analysis.md)              (unset = off)
//   UCUDNN_NUM_THREADS           CPU kernel thread-pool size; malformed or
//                                non-positive values warn and fall back to
//                                hardware concurrency, values above 1024 are
//                                clamped (docs/kernels.md)    (cores)
//   UCUDNN_SIMD                  0 = force the portable scalar kernel paths
//                                instead of runtime AVX-512 / AVX2 / NEON
//                                dispatch (docs/kernels.md)   (auto)
//   UCUDNN_SERVE_*               serving front-end knobs (workers, queue
//                                capacity, batch window, deadlines, overload
//                                watermarks) — read by serve::ServeOptions,
//                                cataloged in src/serve/serve_options.h and
//                                docs/serving.md
//
// The telemetry variables are read by the src/telemetry leaf directly (not
// through Options): telemetry must stay includable from every layer without
// creating a cycle back into core. The UCUDNN_SERVE_* family likewise lives
// in the serve layer, which sits on top of this facade, and the kernel
// substrate knobs (UCUDNN_NUM_THREADS, UCUDNN_SIMD) are read by src/common
// for the same layering reason.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/types.h"

namespace ucudnn::core {

struct Options {
  BatchSizePolicy batch_size_policy = BatchSizePolicy::kPowerOfTwo;
  WorkspacePolicy workspace_policy = WorkspacePolicy::kWR;
  /// Per-kernel workspace limit override (WR). When set, wins over the limit
  /// the framework passes to GetConvolution*Algorithm.
  std::optional<std::size_t> workspace_limit;
  /// Total arena size for WD.
  std::size_t total_workspace_size = std::size_t{64} << 20;
  /// WR normally keeps one persistent workspace per kernel (§III-A: total
  /// grows with the layer count). When execution is strictly sequential —
  /// the TensorFlow-style integration — a single shared buffer sized to the
  /// largest requirement is semantically identical and far smaller; set via
  /// UCUDNN_SHARED_WORKSPACE=1.
  bool share_wr_workspace = false;
  /// File-backed benchmark cache (empty = in-memory only).
  std::string cache_path;
  /// Number of devices used for parallel micro-benchmark evaluation.
  int benchmark_devices = 1;
  /// Retries for a transient kExecutionFailed from a kernel before the
  /// algorithm is blacklisted and the remaining mini-batch re-planned.
  int max_retries = 3;
  /// Disables the graceful-degradation chain: allocation failures, infeasible
  /// WD plans, and kernel failures throw immediately instead of degrading.
  bool fail_fast = false;

  /// Reads every field from the environment.
  static Options from_env();
};

}  // namespace ucudnn::core
