#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "telemetry/json_writer.h"
#include "telemetry/trace.h"

namespace ucudnn::telemetry {

namespace {

// Consecutive auto_dump() calls within this window coalesce into one file
// write, so a fault storm cannot turn the black box into an fwrite storm.
constexpr std::int64_t kAutoDumpMinIntervalUs = 10'000;

constexpr std::size_t kMinRingCapacity = 1;
constexpr std::size_t kMaxRingCapacity = std::size_t{1} << 20;
constexpr std::size_t kDefaultRingCapacity = 4096;

std::size_t env_ring_capacity() {
  // std::getenv, not common/env.h: telemetry is a leaf.
  const char* raw = std::getenv("UCUDNN_FLIGHT_EVENTS");
  if (raw == nullptr || raw[0] == '\0') return kDefaultRingCapacity;
  char* end = nullptr;
  const long long parsed = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || parsed <= 0) return kDefaultRingCapacity;
  const auto capacity = static_cast<std::size_t>(parsed);
  return std::min(std::max(capacity, std::size_t{16}), kMaxRingCapacity);
}

std::string env_dump_path() {
  const char* path = std::getenv("UCUDNN_FLIGHT_FILE");
  return (path != nullptr && path[0] != '\0') ? std::string(path)
                                              : std::string();
}

std::atomic<std::uint64_t> g_next_recorder_id{1};

// Which recorder instance the calling thread's cached ring belongs to. The
// id (not the pointer) keys the cache so a destroyed-then-reallocated
// recorder can never alias a stale ring.
struct TlsRingRef {
  std::uint64_t recorder_id = 0;
  void* ring = nullptr;
};
thread_local TlsRingRef t_ring;

}  // namespace

const char* to_string(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kSpanOpen: return "span_open";
    case FlightEventKind::kSpanClose: return "span_close";
    case FlightEventKind::kStatus: return "status";
    case FlightEventKind::kFault: return "fault";
    case FlightEventKind::kDegradation: return "degradation";
    case FlightEventKind::kOverload: return "overload";
    case FlightEventKind::kWatchdog: return "watchdog";
    case FlightEventKind::kMark: return "mark";
  }
  return "unknown";
}

FlightRecorder& FlightRecorder::instance() {
  // Construction-order pin (docs/observability.md teardown discipline): the
  // registry and trace recorder are built first, so this singleton — whose
  // destructor performs the exit dump and stamps ucudnn.flight.* — is
  // destroyed before the registry's exit snapshot and while the shared
  // trace epoch still exists.
  MetricsRegistry::instance();
  TraceRecorder::instance();
  const std::string path = env_dump_path();
  const bool armed = !path.empty() ||
                     std::getenv("UCUDNN_FLIGHT_EVENTS") != nullptr ||
                     telemetry_enabled();
  static FlightRecorder recorder(env_ring_capacity(), path, /*global=*/true,
                                 armed);
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t events_per_thread,
                               std::string dump_path)
    : FlightRecorder(events_per_thread, std::move(dump_path),
                     /*global=*/false, /*armed=*/true) {}

FlightRecorder::FlightRecorder(std::size_t events_per_thread,
                               std::string dump_path, bool global, bool armed)
    : capacity_(std::min(std::max(events_per_thread, kMinRingCapacity),
                         kMaxRingCapacity)),
      id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)),
      global_(global) {
  {
    MutexLock lock(mutex_);
    dump_path_ = std::move(dump_path);
  }
  set_armed(armed);
}

FlightRecorder::~FlightRecorder() {
  if (global_) detail::g_flight_armed.store(false, std::memory_order_relaxed);
  if (!kCompiledIn) return;
  std::string path;
  {
    MutexLock lock(mutex_);
    path = dump_path_;
  }
  if (!path.empty() && recorded() > 0 && dump(path)) {
    dumps_.add();
  }
}

void FlightRecorder::set_armed(bool on) noexcept {
  const bool value = kCompiledIn && on;
  armed_.store(value, std::memory_order_relaxed);
  if (global_) detail::g_flight_armed.store(value, std::memory_order_relaxed);
}

void FlightRecorder::note(FlightEventKind kind, const char* name,
                          std::uint64_t trace_id, std::int64_t arg0,
                          std::int64_t arg1) noexcept {
  if (!armed()) return;
  instance().record(kind, name, trace_id, arg0, arg1);
}

FlightRecorder::Ring* FlightRecorder::ring_for_this_thread() noexcept {
  if (t_ring.recorder_id == id_) return static_cast<Ring*>(t_ring.ring);
  try {
    auto owned = std::make_unique<Ring>(capacity_);
    Ring* ring = owned.get();
    {
      MutexLock lock(mutex_);
      rings_.push_back(std::move(owned));
    }
    // A thread that alternates between recorders leaves its old ring behind
    // (still owned, still dumped) and starts a fresh one: each ring keeps a
    // single writer for its whole lifetime, which is what makes the
    // lock-free slot protocol sound.
    t_ring = {id_, ring};
    return ring;
  } catch (...) {
    return nullptr;  // allocation failed; drop the event, never the process
  }
}

void FlightRecorder::record(FlightEventKind kind, const char* name,
                            std::uint64_t trace_id, std::int64_t arg0,
                            std::int64_t arg1) noexcept {
  if (!kCompiledIn || !armed_.load(std::memory_order_relaxed)) return;
  if (name == nullptr) return;
  Ring* ring = ring_for_this_thread();
  if (ring == nullptr) return;
  const std::uint64_t claim =
      ring->head.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = ring->slots[claim % ring->slots.size()];
  // Seqlock writer (single writer per ring): odd token while writing, even
  // claim-derived token once published. The release fence pairs with the
  // reader's acquire fence so a reader that observes any of these field
  // values also observes the odd token and rejects the slot.
  slot.seq.store(claim * 2 + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  slot.ts_us.store(TraceRecorder::instance().now_us(),
                   std::memory_order_relaxed);
  slot.trace_id.store(trace_id, std::memory_order_relaxed);
  slot.name.store(name, std::memory_order_relaxed);
  slot.arg0.store(arg0, std::memory_order_relaxed);
  slot.arg1.store(arg1, std::memory_order_relaxed);
  slot.tid.store(TraceRecorder::thread_ordinal(), std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  slot.seq.store(claim * 2 + 2, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> events;
  if (!kCompiledIn) return events;
  MutexLock lock(mutex_);
  for (const auto& ring : rings_) {
    const std::size_t capacity = ring->slots.size();
    const std::uint64_t head = ring->head.load(std::memory_order_acquire);
    const std::uint64_t begin = head > capacity ? head - capacity : 0;
    for (std::uint64_t i = begin; i < head; ++i) {
      const Slot& slot = ring->slots[i % capacity];
      const std::uint64_t before = slot.seq.load(std::memory_order_acquire);
      if (before == 0 || (before & 1) != 0) continue;  // empty or mid-write
      FlightEvent event;
      event.ts_us = slot.ts_us.load(std::memory_order_relaxed);
      event.trace_id = slot.trace_id.load(std::memory_order_relaxed);
      event.name = slot.name.load(std::memory_order_relaxed);
      event.arg0 = slot.arg0.load(std::memory_order_relaxed);
      event.arg1 = slot.arg1.load(std::memory_order_relaxed);
      event.tid = slot.tid.load(std::memory_order_relaxed);
      event.kind = static_cast<FlightEventKind>(
          slot.kind.load(std::memory_order_relaxed));
      std::atomic_thread_fence(std::memory_order_acquire);
      const std::uint64_t after = slot.seq.load(std::memory_order_relaxed);
      if (before != after || event.name == nullptr) continue;  // raced
      events.push_back(event);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const FlightEvent& a, const FlightEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return events;
}

std::string FlightRecorder::to_json() const {
  const std::vector<FlightEvent> events = snapshot();
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("ucudnn-flight-v1");
  w.key("capacity_per_thread").value(static_cast<std::uint64_t>(capacity_));
  w.key("recorded").value(recorded());
  w.key("dropped").value(dropped());
  w.key("events").begin_array();
  for (const FlightEvent& e : events) {
    w.begin_object();
    w.key("ts_us").value(e.ts_us);
    w.key("tid").value(static_cast<std::int64_t>(e.tid));
    w.key("kind").value(to_string(e.kind));
    w.key("name").value(e.name);
    w.key("trace").value(e.trace_id);
    w.key("arg0").value(e.arg0);
    w.key("arg1").value(e.arg1);
    w.end_object();
  }
  w.end_array().end_object();
  return w.str() + "\n";
}

bool FlightRecorder::dump(const std::string& path) const {
  if (!kCompiledIn || path.empty()) return false;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

bool FlightRecorder::auto_dump(const char* reason) noexcept {
  if (!kCompiledIn || !armed_.load(std::memory_order_relaxed)) return false;
  try {
    std::string path;
    {
      MutexLock lock(mutex_);
      path = dump_path_;
    }
    if (path.empty()) return false;  // black box stays in memory
    const auto now_us =
        static_cast<std::int64_t>(TraceRecorder::instance().now_us());
    const std::int64_t last = last_auto_dump_us_.load(std::memory_order_relaxed);
    if (last >= 0 && now_us - last < kAutoDumpMinIntervalUs) return false;
    last_auto_dump_us_.store(now_us, std::memory_order_relaxed);
    record(FlightEventKind::kMark, "flight.dump", 0, 0, 0);
    if (reason != nullptr) {
      std::fprintf(stderr, "ucudnn: flight recorder dump (%s) -> %s\n", reason,
                   path.c_str());
    }
    if (!dump(path)) return false;
    dumps_.add();
    return true;
  } catch (...) {
    return false;  // a failed dump must never take down the process
  }
}

void FlightRecorder::set_dump_path(std::string path) {
  MutexLock lock(mutex_);
  dump_path_ = std::move(path);
}

std::string FlightRecorder::dump_path() const {
  MutexLock lock(mutex_);
  return dump_path_;
}

std::uint64_t FlightRecorder::recorded() const noexcept {
  if (!kCompiledIn) return 0;
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    total += ring->head.load(std::memory_order_relaxed);
  }
  return total;
}

std::uint64_t FlightRecorder::dropped() const noexcept {
  if (!kCompiledIn) return 0;
  MutexLock lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    const std::uint64_t head = ring->head.load(std::memory_order_relaxed);
    const std::uint64_t capacity = ring->slots.size();
    if (head > capacity) total += head - capacity;
  }
  return total;
}

void FlightRecorder::clear() {
  MutexLock lock(mutex_);
  for (const auto& ring : rings_) {
    for (Slot& slot : ring->slots) slot.seq.store(0, std::memory_order_relaxed);
    ring->head.store(0, std::memory_order_relaxed);
  }
}

}  // namespace ucudnn::telemetry
