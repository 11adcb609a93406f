// Deterministic fault-injection framework (see docs/robustness.md).
//
// μ-cuDNN's premise is that cuDNN fails ungracefully one byte short of its
// workspace; this reproduction must not repeat the mistake one level up.
// The FaultInjector lets tests (and soak runs) provoke the recoverable
// failure classes — device-memory exhaustion, transient kernel failures,
// corrupt/interrupted cache files, serving-layer hiccups — on a
// deterministic schedule so the graceful-degradation chain in src/core and
// the overload ladder in src/serve can be exercised and their guarantees
// asserted.
//
// Configuration comes from UCUDNN_FAULTS (or programmatically via
// configure()). The spec is a ';'-separated list of site clauses:
//
//   UCUDNN_FAULTS="alloc:every=7;kernel:p=0.02,seed=42;cache:corrupt-load"
//
// The sites are the fixed set in kFaultSites: alloc (Device::allocate),
// kernel (mcudnn::convolution and find_algorithms), cache-load / cache-save
// (BenchmarkCache file I/O), and serve.enqueue / serve.batch / serve.exec
// (serve::Server). The site "cache" requires one or both of the flags
// `corrupt-load` / `fail-save` and applies its parameters to the flagged
// sub-sites. Any other name is a spec error.
//
// Parameters per clause:
//   every=N   trigger on every Nth check (deterministic)
//   p=X       trigger with probability X in [0,1] (seeded PRNG — never
//             the wall clock, so a given seed replays exactly)
//   seed=S    PRNG seed for p (default 42)
//   after=N   skip the first N checks before arming
//   count=N   stop after N triggers (default unlimited)
// A clause with neither `every` nor `p` defaults to every=1.
//
// Counter semantics: `checks` counts how many times an armed, enabled site
// was consulted (the injection point was reached); `triggered` counts how
// many of those checks actually injected a fault. Disabled sites count
// nothing, and an unarmed injector adds only one relaxed atomic load to the
// hot paths.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_annotations.h"

namespace ucudnn {

/// Every injection site; the value indexes kFaultSites.
enum class FaultSite : std::uint8_t {
  kAlloc,
  kKernel,
  kCacheLoad,
  kCacheSave,
  kServeEnqueue,
  kServeBatch,
  kServeExec,
};

struct FaultSiteRow {
  const char* name;  // the UCUDNN_FAULTS clause name and flight-event name
  Status status;     // thrown by fail_point() when the site fires
};

/// One row per FaultSite, in enum order.
inline constexpr std::array<FaultSiteRow, 7> kFaultSites{{
    {"alloc", Status::kAllocFailed},
    {"kernel", Status::kExecutionFailed},
    {"cache-load", Status::kInternalError},
    {"cache-save", Status::kInternalError},
    {"serve.enqueue", Status::kRejected},
    {"serve.batch", Status::kExecutionFailed},
    {"serve.exec", Status::kExecutionFailed},
}};
static_assert(static_cast<std::size_t>(FaultSite::kServeExec) + 1 ==
              kFaultSites.size());

constexpr const FaultSiteRow& row(FaultSite site) noexcept {
  return kFaultSites[static_cast<std::size_t>(site)];
}

constexpr std::string_view to_string(FaultSite site) noexcept {
  return row(site).name;
}

/// Per-site schedule parsed from one spec clause.
struct FaultSpec {
  bool enabled = false;
  std::uint64_t every = 0;     // fire on every Nth check (0 = off)
  double probability = 0.0;    // fire with p from the seeded PRNG
  std::uint64_t after = 0;     // checks skipped before arming
  std::uint64_t count = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t seed = 42;
};

struct FaultSiteStats {
  std::uint64_t checks = 0;     // injection-point visits while enabled
  std::uint64_t triggered = 0;  // faults actually injected
};

/// Process-wide injector. Thread-safe; deterministic for a fixed spec and a
/// fixed sequence of per-site checks.
class FaultInjector {
 public:
  /// The singleton, configured from UCUDNN_FAULTS on first use. A malformed
  /// env spec is logged and ignored (fail-safe: it must not abort from
  /// inside an allocation path); programmatic configure() throws instead.
  static FaultInjector& instance();

  /// Replaces the whole configuration, resets all counters, and reseeds the
  /// per-site PRNGs. An empty spec disarms everything. Throws
  /// Error(kInvalidValue) on a malformed spec, leaving the old one in place.
  void configure(const std::string& spec);

  /// True when any site is enabled; the single hot-path cost when idle.
  bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }

  /// Consults the site's schedule; counts the check and (maybe) the trigger.
  bool should_fail(FaultSite site);

  /// Throws Error(row(site).status) when should_fail().
  void fail_point(FaultSite site);

  FaultSpec spec(FaultSite site) const;
  FaultSiteStats stats(FaultSite site) const;

  /// Zeroes counters and reseeds PRNGs without touching the schedules.
  void reset_counters();

 private:
  struct Site {
    FaultSpec spec;
    FaultSiteStats stats;
    std::mt19937_64 rng;
  };

  FaultInjector();

  mutable Mutex mutex_{"FaultInjector"};
  std::array<Site, kFaultSites.size()> sites_ GUARDED_BY(mutex_);
  std::atomic<bool> armed_{false};
};

}  // namespace ucudnn
