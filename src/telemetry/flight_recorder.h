// Always-on flight recorder: fixed-size lock-free per-thread ring buffers of
// compact binary events — the serving stack's black box for "what happened in
// the last N seconds". Writers record span open/close edges, request status
// transitions, fault-site triggers, degradation ladder steps, and overload
// rung changes; the buffer is dumped as `ucudnn-flight-v1` JSON to
// UCUDNN_FLIGHT_FILE on demand, at process exit, and automatically when a
// fault injector site fires or the executor blacklists an algorithm. The
// event catalog lives in docs/observability.md.
//
// Cost model: a disarmed record() is one relaxed atomic load; an armed one is
// a ring-slot claim (fetch_add) plus seven relaxed stores and one release
// store — no locks, no allocation, no syscalls. Each thread owns its ring, so
// writers never contend; readers (dump/snapshot) use a per-slot seqlock to
// discard events they raced with.
//
// Event names must be string literals: the ring stores the pointer, not the
// bytes.
//
// Layering contract (tools/check_layering.py): telemetry is a leaf — it may
// include only other telemetry headers and common/thread_annotations.h.
// Environment gating (UCUDNN_FLIGHT_FILE, UCUDNN_FLIGHT_EVENTS) is therefore
// read with std::getenv directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "telemetry/metrics.h"

namespace ucudnn::telemetry {

enum class FlightEventKind : std::uint8_t {
  kSpanOpen = 0,     // a ScopedSpan opened (arg0 = nesting depth)
  kSpanClose = 1,    // a ScopedSpan closed (arg0 = depth, arg1 = dur in us)
  kStatus = 2,       // a serve ticket resolved (name = status, arg0 = code)
  kFault = 3,        // a fault-injector site fired (name = site)
  kDegradation = 4,  // executor retry/blacklist ladder step
  kOverload = 5,     // queue overload rung change (arg0 = new, arg1 = old)
  kWatchdog = 6,     // anomaly watchdog incident (name = incident kind)
  kMark = 7,         // free-form annotation
};

/// Catalog name for a kind ("span_open", "fault", ...).
const char* to_string(FlightEventKind kind) noexcept;

/// One decoded ring event. Timestamps share TraceRecorder's epoch so flight
/// events and trace spans line up on the same axis.
struct FlightEvent {
  double ts_us = 0.0;
  std::uint64_t trace_id = 0;  // ambient request trace id (0 = none)
  const char* name = "";       // a string literal
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  std::uint32_t tid = 0;  // TraceRecorder::thread_ordinal of the writer
  FlightEventKind kind = FlightEventKind::kMark;
};

namespace detail {
// Mirror of the *singleton* recorder's armed flag, readable without touching
// the singleton (so instrumentation hooks cost one load when disarmed and
// never force construction). Test-local recorders arm only their member flag.
inline std::atomic<bool> g_flight_armed{false};
}  // namespace detail

class FlightRecorder {
 public:
  /// The process-wide recorder. Construction pins MetricsRegistry and the
  /// TraceRecorder first so this singleton is destroyed (and performs its
  /// exit dump) before the registry's exit snapshot — the static-teardown
  /// discipline from docs/observability.md.
  static FlightRecorder& instance();

  /// Test constructor: explicit per-thread capacity and dump path, never
  /// touching the process-wide armed mirror.
  FlightRecorder(std::size_t events_per_thread, std::string dump_path);
  ~FlightRecorder();
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// One relaxed load; true when the *singleton* is armed (hooks' fast path).
  static bool armed() noexcept {
    return kCompiledIn && detail::g_flight_armed.load(std::memory_order_relaxed);
  }

  /// Record through the singleton iff armed. The fast path for call sites.
  static void note(FlightEventKind kind, const char* name,
                   std::uint64_t trace_id = 0, std::int64_t arg0 = 0,
                   std::int64_t arg1 = 0) noexcept;

  /// Appends one event to the calling thread's ring (drop-oldest on wrap).
  /// `name` must be a string literal.
  void record(FlightEventKind kind, const char* name, std::uint64_t trace_id = 0,
              std::int64_t arg0 = 0, std::int64_t arg1 = 0) noexcept;

  bool is_armed() const noexcept {
    return kCompiledIn && armed_.load(std::memory_order_relaxed);
  }
  /// Arms/disarms this recorder; on the singleton also flips the global
  /// mirror that ScopedSpan and the fault injector poll.
  void set_armed(bool on) noexcept;

  /// Consistent-ish merged view of every ring, sorted by timestamp. Events
  /// overwritten mid-read are skipped, never torn.
  std::vector<FlightEvent> snapshot() const;

  /// `ucudnn-flight-v1`: {"schema","capacity_per_thread","recorded",
  /// "dropped","events":[{ts_us,tid,kind,name,trace,arg0,arg1},...]}.
  std::string to_json() const;
  /// Writes to_json() to `path`; false on I/O failure.
  bool dump(const std::string& path) const;

  /// Dump to the configured path (UCUDNN_FLIGHT_FILE for the singleton);
  /// fast no-op returning false when no path is set. Rate-limited so a fault
  /// storm does not turn into an fwrite storm; `reason` is recorded as a
  /// "flight.dump" mark beforehand so the dump explains itself.
  bool auto_dump(const char* reason) noexcept;

  void set_dump_path(std::string path);
  std::string dump_path() const;

  /// Total events ever recorded / overwritten before being read.
  std::uint64_t recorded() const noexcept;
  std::uint64_t dropped() const noexcept;
  std::size_t capacity_per_thread() const noexcept { return capacity_; }
  std::uint64_t dump_count() const noexcept { return dumps_.value(); }

  /// Resets ring contents and counters. Only meaningful while no other
  /// thread is recording (tests).
  void clear();

 private:
  // Single-writer ring. Each slot is a seqlock: `seq` is 0 while the slot is
  // being (re)written and `claim + 1` (odd-free monotonic token) once
  // published with release order; readers re-check it around the field loads.
  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<double> ts_us{0.0};
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<const char*> name{nullptr};
    std::atomic<std::int64_t> arg0{0};
    std::atomic<std::int64_t> arg1{0};
    std::atomic<std::uint32_t> tid{0};
    std::atomic<std::uint8_t> kind{0};
  };
  struct Ring {
    explicit Ring(std::size_t capacity) : slots(capacity) {}
    std::vector<Slot> slots;
    std::atomic<std::uint64_t> head{0};  // total events ever claimed
  };

  FlightRecorder(std::size_t events_per_thread, std::string dump_path,
                 bool global, bool armed);

  Ring* ring_for_this_thread() noexcept;

  const std::size_t capacity_;
  const std::uint64_t id_;    // process-unique; guards thread-local caching
  const bool global_;         // true only for instance()
  std::atomic<bool> armed_{false};
  InstanceCounter dumps_{"ucudnn.flight.dumps", Listed::kAlways};
  std::atomic<std::int64_t> last_auto_dump_us_{-1};

  mutable Mutex mutex_{"FlightRecorder"};
  std::vector<std::unique_ptr<Ring>> rings_ GUARDED_BY(mutex_);
  std::string dump_path_ GUARDED_BY(mutex_);
};

}  // namespace ucudnn::telemetry
