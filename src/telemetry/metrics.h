// Process-wide metrics registry: named atomic counters, gauges, and
// fixed-bucket latency histograms, cheap enough for hot paths. Handles are
// value types wrapping a registry-owned cell; creating one takes a lock,
// updating one is a single relaxed atomic RMW. An object that counts its own
// events owns an InstanceCell instead, which the registry sums under the
// same name. See docs/observability.md for the naming scheme and the catalog
// of metrics the library emits.
//
// Layering contract (tools/check_layering.py): telemetry is a leaf — every
// library may include it, it includes nothing project-local except the
// common/thread_annotations.h locking leaf. Environment gating
// (UCUDNN_TELEMETRY) is therefore read with std::getenv directly.
//
// Defining UCUDNN_DISABLE_TELEMETRY compiles every handle operation to a
// no-op and empties the registry; instance cells still count for their
// owners.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace ucudnn::telemetry {

#ifdef UCUDNN_DISABLE_TELEMETRY
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

namespace detail {

/// Every cell of one counter name: the process cell that Counter handles
/// and retired instance cells add to, plus the live instance cells linked
/// under the name. `instances` and `listed` are guarded by the registry
/// mutex; `listed` names are exported even at zero.
template <typename T>
struct CounterFamily {
  std::atomic<T> process{T{}};
  std::vector<std::atomic<T>*> instances;
  bool listed = false;
};

}  // namespace detail

/// Process-wide handle on a named monotonic counter: Counter for events,
/// DoubleCounter for wall-clock totals (milliseconds). add() bumps the
/// name's process cell; value() takes the registry lock and returns the
/// process cell plus every live InstanceCell registered under the name.
template <typename T>
class BasicCounter {
 public:
  BasicCounter() = default;
  void add(T n = T{1}) noexcept {
    if (kCompiledIn && family_) {
      family_->process.fetch_add(n, std::memory_order_relaxed);
    }
  }
  T value() const noexcept;

 private:
  friend class MetricsRegistry;
  explicit BasicCounter(detail::CounterFamily<T>* family) : family_(family) {}
  detail::CounterFamily<T>* family_ = nullptr;
};

using Counter = BasicCounter<std::uint64_t>;
using DoubleCounter = BasicCounter<double>;

/// When an instance cell's name enters snapshot() and the exporters: once
/// its total is non-zero, or as soon as the cell exists. A name that a
/// process handle was requested for is always exported.
enum class Listed { kOnceCounted, kAlways };

/// A counter owned by the object whose events it counts, created under that
/// event's metric name: value() is the per-object total, and the registry
/// reports it (summed with the name's process cell and any other live
/// instances) in value(), snapshot() and the exporters. When the cell is
/// destroyed its value folds into the process cell, so process totals never
/// go down. add() is one relaxed RMW on the cell's own atomic. Movable; a
/// moved-from cell is inert. Under UCUDNN_DISABLE_TELEMETRY the cell still
/// counts for its owner but is never registered.
template <typename T>
class InstanceCell {
 public:
  explicit InstanceCell(const std::string& name,
                        Listed listed = Listed::kOnceCounted);
  void add(T n = T{1}) noexcept {
    if (cell_) cell_->value.fetch_add(n, std::memory_order_relaxed);
  }
  T value() const noexcept {
    return cell_ ? cell_->value.load(std::memory_order_relaxed) : T{};
  }

 private:
  struct Cell {
    std::atomic<T> value{T{}};
    detail::CounterFamily<T>* family = nullptr;  // null when unregistered
  };
  /// Folds the value into the family's process cell and unlinks it.
  struct Retire {
    void operator()(Cell* cell) const noexcept;
  };
  std::unique_ptr<Cell, Retire> cell_;
};

using InstanceCounter = InstanceCell<std::uint64_t>;
using InstanceDoubleCounter = InstanceCell<double>;

/// Last-writer-wins level (also supports relative adjustment).
class Gauge {
 public:
  Gauge() = default;
  void set(std::int64_t v) noexcept {
    if (kCompiledIn && cell_) cell_->store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t v) noexcept {
    if (kCompiledIn && cell_) cell_->fetch_add(v, std::memory_order_relaxed);
  }
  std::int64_t value() const noexcept {
    return kCompiledIn && cell_ ? cell_->load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
  std::atomic<std::int64_t>* cell_ = nullptr;
};

/// Fixed decade buckets for millisecond latencies: the i-th bucket counts
/// observations <= 1e-3 * 10^i ms (1us, 10us, ... 10s), the last is +inf.
inline constexpr int kHistogramBuckets = 9;

/// Upper bound of bucket `i` in ms; +inf for the overflow bucket.
double histogram_bucket_upper_ms(int i) noexcept;

struct HistogramData {
  std::uint64_t buckets[kHistogramBuckets] = {};
  std::uint64_t count = 0;
  double sum_ms = 0.0;
};

/// Interpolated percentile estimate (`quantile` in [0,1], clamped). The rank
/// `quantile * count` is located in the cumulative bucket counts, then
/// interpolated linearly within that decade bucket between its bounds (the
/// first bucket's lower bound is 0). Ranks landing in the open-ended
/// overflow bucket return its lower bound (10 s) — the histogram carries no
/// upper bound to interpolate toward. Returns 0 for an empty histogram.
double histogram_percentile_ms(const HistogramData& data,
                               double quantile) noexcept;

class Histogram {
 public:
  Histogram() = default;
  void observe_ms(double ms) noexcept;
  HistogramData data() const noexcept;

 private:
  friend class MetricsRegistry;
  struct Cells {
    std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum_ms{0.0};
  };
  explicit Histogram(Cells* cells) : cells_(cells) {}
  Cells* cells_ = nullptr;
};

/// Point-in-time copy of every registered metric.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> double_counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, HistogramData> histograms;
};

class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Handle factories: idempotent per name, safe from any thread.
  Counter counter(const std::string& name);
  DoubleCounter double_counter(const std::string& name);
  Gauge gauge(const std::string& name);
  Histogram histogram(const std::string& name);

  MetricsSnapshot snapshot() const;
  /// Plain-text form, one "name value" line per metric, sorted by name.
  /// Histograms add `.count`, `.sum_ms`, interpolated `.p50_ms`/`.p95_ms`/
  /// `.p99_ms` estimates, and one `.le_<bound>ms` line per bucket.
  std::string to_text() const;
  /// JSON form of the same snapshot (machine-readable artifact):
  /// {"counters":{...},"double_counters":{...},"gauges":{...},
  ///  "histograms":{name:{count,sum_ms,p50_ms,p95_ms,p99_ms,buckets:[...]}}}.
  std::string to_json() const;
  /// Zeroes every cell, live instance cells included; existing handles
  /// stay valid. Intended for tests that need a clean process-wide baseline.
  void reset();

 private:
  template <typename>
  friend class BasicCounter;
  template <typename>
  friend class InstanceCell;
  template <typename T>
  using Families = std::map<std::string,
                            std::unique_ptr<detail::CounterFamily<T>>>;

  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Captured at construction: the destructor must not call back into the
  // env-config function-local static, which — depending on which singleton
  // was touched first — may already be destroyed during static teardown.
  std::string exit_snapshot_path_;

  mutable Mutex mutex_{"MetricsRegistry"};
  template <typename T>
  Families<T>& families() REQUIRES(mutex_);
  /// Finds or creates the name's family; `listed` marks it exported at 0.
  template <typename T>
  detail::CounterFamily<T>* family(const std::string& name, bool listed)
      REQUIRES(mutex_);

  // Node-based maps: cell addresses are stable for the registry's lifetime.
  Families<std::uint64_t> counters_ GUARDED_BY(mutex_);
  Families<double> double_counters_ GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<std::atomic<std::int64_t>>> gauges_
      GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram::Cells>> histograms_
      GUARDED_BY(mutex_);
};

/// True when UCUDNN_TELEMETRY is set truthy (or to a snapshot path) or
/// UCUDNN_TRACE_FILE names a trace output file. Read once per process.
bool telemetry_enabled() noexcept;

/// The file path form of UCUDNN_TELEMETRY ("" when unset or boolean): the
/// registry writes its plain-text snapshot there at process exit.
const std::string& metrics_snapshot_path() noexcept;

/// Mirrors the runtime lock-order detector's observed acquired-after edge
/// graph into the registry: gauge `ucudnn.lockorder.edges` (distinct edges)
/// and one `ucudnn.lockorder.edge.<held>-><acquired>` gauge per edge with
/// its observation count. A no-op when the detector is compiled out or
/// disabled (docs/analysis.md). Called automatically before the exit-time
/// metrics snapshot; tests and tools may call it at any quiescent point.
void sync_lock_order_metrics();

}  // namespace ucudnn::telemetry
