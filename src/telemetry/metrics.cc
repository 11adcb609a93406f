#include "telemetry/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <type_traits>

#include "telemetry/json_writer.h"

namespace ucudnn::telemetry {

namespace {

struct EnvConfig {
  bool enabled = false;
  std::string snapshot_path;  // empty when UCUDNN_TELEMETRY is boolean-ish
};

// std::getenv (not common/env.h): telemetry is a leaf and includes nothing
// project-local.
const EnvConfig& env_config() {
  static const EnvConfig config = [] {
    EnvConfig c;
    if (const char* raw = std::getenv("UCUDNN_TELEMETRY");
        raw != nullptr && raw[0] != '\0') {
      if (std::strcmp(raw, "0") == 0 || std::strcmp(raw, "false") == 0 ||
          std::strcmp(raw, "off") == 0 || std::strcmp(raw, "no") == 0) {
        c.enabled = false;
      } else {
        c.enabled = true;
        if (std::strcmp(raw, "1") != 0 && std::strcmp(raw, "true") != 0 &&
            std::strcmp(raw, "on") != 0 && std::strcmp(raw, "yes") != 0) {
          c.snapshot_path = raw;
        }
      }
    }
    if (const char* trace = std::getenv("UCUDNN_TRACE_FILE");
        trace != nullptr && trace[0] != '\0') {
      c.enabled = true;
    }
    return c;
  }();
  return config;
}

}  // namespace

bool telemetry_enabled() noexcept { return kCompiledIn && env_config().enabled; }

const std::string& metrics_snapshot_path() noexcept {
  return env_config().snapshot_path;
}

double histogram_bucket_upper_ms(int i) noexcept {
  if (i < 0) return 0.0;
  if (i >= kHistogramBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return 1e-3 * std::pow(10.0, i);
}

double histogram_percentile_ms(const HistogramData& data,
                               double quantile) noexcept {
  if (data.count == 0) return 0.0;
  quantile = std::clamp(quantile, 0.0, 1.0);
  const double target = quantile * static_cast<double>(data.count);
  double cumulative = 0.0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const double in_bucket = static_cast<double>(data.buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= target) {
      const double lower = i == 0 ? 0.0 : histogram_bucket_upper_ms(i - 1);
      const double upper = histogram_bucket_upper_ms(i);
      if (!std::isfinite(upper)) return lower;  // open-ended overflow bucket
      const double fraction =
          std::clamp((target - cumulative) / in_bucket, 0.0, 1.0);
      return lower + (upper - lower) * fraction;
    }
    cumulative += in_bucket;
  }
  // count > 0 guarantees some bucket satisfied cumulative + n >= target.
  return histogram_bucket_upper_ms(kHistogramBuckets - 2);
}

void Histogram::observe_ms(double ms) noexcept {
  if (!kCompiledIn || cells_ == nullptr) return;
  int bucket = kHistogramBuckets - 1;
  for (int i = 0; i < kHistogramBuckets - 1; ++i) {
    if (ms <= histogram_bucket_upper_ms(i)) {
      bucket = i;
      break;
    }
  }
  cells_->buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  cells_->count.fetch_add(1, std::memory_order_relaxed);
  cells_->sum_ms.fetch_add(ms, std::memory_order_relaxed);
}

HistogramData Histogram::data() const noexcept {
  HistogramData d;
  if (!kCompiledIn || cells_ == nullptr) return d;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    d.buckets[i] = cells_->buckets[i].load(std::memory_order_relaxed);
  }
  d.count = cells_->count.load(std::memory_order_relaxed);
  d.sum_ms = cells_->sum_ms.load(std::memory_order_relaxed);
  return d;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry registry;
  return registry;
}

MetricsRegistry::MetricsRegistry() {
  if (telemetry_enabled()) exit_snapshot_path_ = metrics_snapshot_path();
}

MetricsRegistry::~MetricsRegistry() {
  // Exit-time plain-text export, gated by UCUDNN_TELEMETRY=<path>. stdio
  // only: iostreams may already be torn down during static destruction.
  if (exit_snapshot_path_.empty()) return;
  sync_lock_order_metrics();
  if (std::FILE* f = std::fopen(exit_snapshot_path_.c_str(), "w")) {
    const std::string text = to_text();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
}

template <typename T>
MetricsRegistry::Families<T>& MetricsRegistry::families() {
  if constexpr (std::is_same_v<T, double>) {
    return double_counters_;
  } else {
    return counters_;
  }
}

template <typename T>
detail::CounterFamily<T>* MetricsRegistry::family(const std::string& name,
                                                  bool listed) {
  auto& family = families<T>()[name];
  if (!family) family = std::make_unique<detail::CounterFamily<T>>();
  family->listed = family->listed || listed;
  return family.get();
}

namespace {

// Caller holds the registry mutex (it guards `instances`).
template <typename T>
T sum_cells(const detail::CounterFamily<T>& family) {
  T total = family.process.load(std::memory_order_relaxed);
  for (const std::atomic<T>* cell : family.instances) {
    total += cell->load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace

template <typename T>
T BasicCounter<T>::value() const noexcept {
  if (!kCompiledIn || family_ == nullptr) return T{};
  MetricsRegistry& registry = MetricsRegistry::instance();
  MutexLock lock(registry.mutex_);
  return sum_cells(*family_);
}

template <typename T>
InstanceCell<T>::InstanceCell(const std::string& name, Listed listed)
    : cell_(new Cell) {
  if (!kCompiledIn) return;
  MetricsRegistry& registry = MetricsRegistry::instance();
  MutexLock lock(registry.mutex_);
  cell_->family = registry.family<T>(name, listed == Listed::kAlways);
  cell_->family->instances.push_back(&cell_->value);
}

template <typename T>
void InstanceCell<T>::Retire::operator()(Cell* cell) const noexcept {
  if (cell->family != nullptr) {
    MetricsRegistry& registry = MetricsRegistry::instance();
    MutexLock lock(registry.mutex_);
    std::vector<std::atomic<T>*>& live = cell->family->instances;
    live.erase(std::find(live.begin(), live.end(), &cell->value));
    cell->family->process.fetch_add(cell->value.load(std::memory_order_relaxed),
                                    std::memory_order_relaxed);
  }
  delete cell;
}

template class BasicCounter<std::uint64_t>;
template class BasicCounter<double>;
template class InstanceCell<std::uint64_t>;
template class InstanceCell<double>;

Counter MetricsRegistry::counter(const std::string& name) {
  if (!kCompiledIn) return Counter();
  MutexLock lock(mutex_);
  return Counter(family<std::uint64_t>(name, /*listed=*/true));
}

DoubleCounter MetricsRegistry::double_counter(const std::string& name) {
  if (!kCompiledIn) return DoubleCounter();
  MutexLock lock(mutex_);
  return DoubleCounter(family<double>(name, /*listed=*/true));
}

Gauge MetricsRegistry::gauge(const std::string& name) {
  if (!kCompiledIn) return Gauge();
  MutexLock lock(mutex_);
  auto& cell = gauges_[name];
  if (!cell) cell = std::make_unique<std::atomic<std::int64_t>>(0);
  return Gauge(cell.get());
}

Histogram MetricsRegistry::histogram(const std::string& name) {
  if (!kCompiledIn) return Histogram();
  MutexLock lock(mutex_);
  auto& cells = histograms_[name];
  if (!cells) cells = std::make_unique<Histogram::Cells>();
  return Histogram(cells.get());
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  MutexLock lock(mutex_);
  const auto export_counters = [](const auto& families, auto& out) {
    for (const auto& [name, family] : families) {
      const auto total = sum_cells(*family);
      if (family->listed || total != 0) out[name] = total;
    }
  };
  export_counters(counters_, snap.counters);
  export_counters(double_counters_, snap.double_counters);
  for (const auto& [name, cell] : gauges_) {
    snap.gauges[name] = cell->load(std::memory_order_relaxed);
  }
  for (const auto& [name, cells] : histograms_) {
    snap.histograms[name] = Histogram(cells.get()).data();
  }
  return snap;
}

std::string MetricsRegistry::to_text() const {
  const MetricsSnapshot snap = snapshot();
  std::ostringstream os;
  os.precision(17);
  for (const auto& [name, value] : snap.counters) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.double_counters) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, value] : snap.gauges) {
    os << name << " " << value << "\n";
  }
  for (const auto& [name, data] : snap.histograms) {
    os << name << ".count " << data.count << "\n";
    os << name << ".sum_ms " << data.sum_ms << "\n";
    os << name << ".p50_ms " << histogram_percentile_ms(data, 0.50) << "\n";
    os << name << ".p95_ms " << histogram_percentile_ms(data, 0.95) << "\n";
    os << name << ".p99_ms " << histogram_percentile_ms(data, 0.99) << "\n";
    for (int i = 0; i < kHistogramBuckets; ++i) {
      // %g keeps the decade bounds readable ("0.1", not the full 17-digit
      // round-trip form the value stream uses).
      char bound[32];
      std::snprintf(bound, sizeof(bound), "%g", histogram_bucket_upper_ms(i));
      os << name << ".le_" << bound << "ms " << data.buckets[i] << "\n";
    }
  }
  return os.str();
}

std::string MetricsRegistry::to_json() const {
  const MetricsSnapshot snap = snapshot();
  JsonWriter w;
  w.begin_object();
  w.key("counters").begin_object();
  for (const auto& [name, value] : snap.counters) w.key(name).value(value);
  w.end_object();
  w.key("double_counters").begin_object();
  for (const auto& [name, value] : snap.double_counters) {
    w.key(name).value(value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& [name, value] : snap.gauges) w.key(name).value(value);
  w.end_object();
  w.key("histograms").begin_object();
  for (const auto& [name, data] : snap.histograms) {
    w.key(name).begin_object();
    w.key("count").value(data.count);
    w.key("sum_ms").value(data.sum_ms);
    w.key("p50_ms").value(histogram_percentile_ms(data, 0.50));
    w.key("p95_ms").value(histogram_percentile_ms(data, 0.95));
    w.key("p99_ms").value(histogram_percentile_ms(data, 0.99));
    w.key("buckets").begin_array();
    for (const std::uint64_t bucket : data.buckets) w.value(bucket);
    w.end_array();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return w.str();
}

void sync_lock_order_metrics() {
  if (!kCompiledIn || !lockorder::kCompiledIn) return;
  if (!lockorder::enabled()) return;
  const std::vector<lockorder::Edge> edges = lockorder::edges();
  MetricsRegistry& registry = MetricsRegistry::instance();
  // Always published while the detector is on — a 0 means "detector ran,
  // no nested acquisitions observed", distinct from "detector off".
  registry.gauge("ucudnn.lockorder.edges")
      .set(static_cast<std::int64_t>(edges.size()));
  for (const lockorder::Edge& edge : edges) {
    registry.gauge("ucudnn.lockorder.edge." + edge.from + "->" + edge.to)
        .set(static_cast<std::int64_t>(edge.count));
  }
}

void MetricsRegistry::reset() {
  MutexLock lock(mutex_);
  const auto zero = [](auto& families) {
    for (auto& [name, family] : families) {
      family->process.store(0);
      for (auto* cell : family->instances) cell->store(0);
    }
  };
  zero(counters_);
  zero(double_counters_);
  for (auto& [name, cell] : gauges_) cell->store(0);
  for (auto& [name, cells] : histograms_) {
    for (auto& bucket : cells->buckets) bucket.store(0);
    cells->count.store(0);
    cells->sum_ms.store(0.0);
  }
}

}  // namespace ucudnn::telemetry
