#include "common/fault_injection.h"

#include <cctype>
#include <optional>
#include <sstream>
#include <vector>

#include "common/env.h"
#include "common/logging.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/trace.h"

namespace ucudnn {
namespace {

std::string trim(const std::string& text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(text[begin]))) ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(text[end - 1]))) --end;
  return text.substr(begin, end - begin);
}

std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::stringstream stream(text);
  std::string part;
  while (std::getline(stream, part, sep)) parts.push_back(trim(part));
  return parts;
}

std::uint64_t parse_u64(const std::string& site, const std::string& key,
                        const std::string& value) {
  check(!value.empty() &&
            value.find_first_not_of("0123456789") == std::string::npos,
        Status::kInvalidValue,
        "UCUDNN_FAULTS: " + site + ":" + key +
            " expects a non-negative integer, got '" + value + "'");
  return std::stoull(value);
}

double parse_probability(const std::string& site, const std::string& value) {
  std::istringstream stream(value);
  double p = 0.0;
  stream >> p;
  check(!stream.fail() && stream.eof() && p >= 0.0 && p <= 1.0,
        Status::kInvalidValue,
        "UCUDNN_FAULTS: " + site + ":p expects a probability in [0, 1], got '" +
            value + "'");
  return p;
}

/// The site a clause names; nullopt when it is not in kFaultSites.
std::optional<FaultSite> site_named(const std::string& name) {
  for (std::size_t i = 0; i < kFaultSites.size(); ++i) {
    if (name == kFaultSites[i].name) return static_cast<FaultSite>(i);
  }
  return std::nullopt;
}

}  // namespace

FaultInjector::FaultInjector() {
  const std::optional<std::string> env = env_raw("UCUDNN_FAULTS");
  if (!env || trim(*env).empty()) return;
  try {
    configure(*env);
  } catch (const Error& e) {
    // Fail safe: a typo in UCUDNN_FAULTS must not abort the process from
    // inside an allocation path; injection simply stays disarmed.
    UCUDNN_LOG_ERROR << "ignoring malformed UCUDNN_FAULTS: " << e.what();
  }
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

void FaultInjector::configure(const std::string& spec) {
  // Parse every clause first; nothing is applied until the whole spec
  // validates, so a failed configure never leaves the injector half-armed.
  std::array<FaultSpec, kFaultSites.size()> parsed_by_site{};
  for (const std::string& clause : split(spec, ';')) {
    if (clause.empty()) continue;
    const std::size_t colon = clause.find(':');
    const std::string site = trim(clause.substr(0, colon));
    const bool is_cache_group = site == "cache";
    const std::optional<FaultSite> named = site_named(site);
    if (!named && !is_cache_group) {
      std::string expected = "cache";
      for (const FaultSiteRow& known : kFaultSites) {
        expected += std::string(", ") + known.name;
      }
      throw Error(Status::kInvalidValue,
                  "UCUDNN_FAULTS: unknown site '" + site + "' in clause '" +
                      clause + "' (expected one of " + expected + ")");
    }
    std::vector<FaultSite> targets;
    if (named) targets.push_back(*named);

    FaultSpec parsed;
    parsed.enabled = true;
    if (colon != std::string::npos) {
      for (const std::string& param : split(clause.substr(colon + 1), ',')) {
        if (param.empty()) continue;
        const std::size_t eq = param.find('=');
        if (eq == std::string::npos) {
          // Bare flags select the cache sub-sites.
          check(is_cache_group &&
                    (param == "corrupt-load" || param == "fail-save"),
                Status::kInvalidValue,
                "UCUDNN_FAULTS: unknown flag '" + param + "' in clause '" +
                    clause + "'");
          targets.push_back(param == "corrupt-load" ? FaultSite::kCacheLoad
                                                    : FaultSite::kCacheSave);
          continue;
        }
        const std::string key = trim(param.substr(0, eq));
        const std::string value = trim(param.substr(eq + 1));
        if (key == "every") {
          parsed.every = parse_u64(site, key, value);
          check(parsed.every >= 1, Status::kInvalidValue,
                "UCUDNN_FAULTS: " + site + ":every must be >= 1");
        } else if (key == "p") {
          parsed.probability = parse_probability(site, value);
        } else if (key == "seed") {
          parsed.seed = parse_u64(site, key, value);
        } else if (key == "after") {
          parsed.after = parse_u64(site, key, value);
        } else if (key == "count") {
          parsed.count = parse_u64(site, key, value);
        } else {
          throw Error(Status::kInvalidValue,
                      "UCUDNN_FAULTS: unknown parameter '" + key +
                          "' in clause '" + clause + "'");
        }
      }
    }
    check(!targets.empty(), Status::kInvalidValue,
          "UCUDNN_FAULTS: site 'cache' needs a corrupt-load or fail-save "
          "flag in clause '" +
              clause + "'");
    if (parsed.every == 0 && parsed.probability == 0.0) parsed.every = 1;
    for (const FaultSite target : targets) {
      parsed_by_site[static_cast<std::size_t>(target)] = parsed;
    }
  }

  // Validation done; apply. Sites without a clause are disarmed, and all
  // counters reset.
  bool any_enabled = false;
  {
    MutexLock lock(mutex_);
    for (std::size_t i = 0; i < sites_.size(); ++i) {
      Site& site = sites_[i];
      site.spec = parsed_by_site[i];
      site.stats = FaultSiteStats{};
      site.rng.seed(site.spec.seed);
      any_enabled = any_enabled || site.spec.enabled;
    }
    armed_.store(any_enabled, std::memory_order_relaxed);
  }
  if (any_enabled) {
    UCUDNN_LOG_INFO << "fault injection armed: " << trim(spec);
  }
}

bool FaultInjector::should_fail(FaultSite site) {
  if (!armed()) return false;
  bool fire = false;
  std::uint64_t triggered = 0;
  {
    MutexLock lock(mutex_);
    Site& state = sites_[static_cast<std::size_t>(site)];
    if (!state.spec.enabled) return false;
    const FaultSpec& spec = state.spec;
    FaultSiteStats& stats = state.stats;
    ++stats.checks;
    if (stats.triggered >= spec.count) return false;
    if (stats.checks <= spec.after) return false;
    fire = spec.every > 0 && (stats.checks - spec.after) % spec.every == 0;
    if (!fire && spec.probability > 0.0) {
      fire = std::uniform_real_distribution<double>(0.0, 1.0)(state.rng) <
             spec.probability;
    }
    if (fire) triggered = ++stats.triggered;
  }
  if (fire && telemetry::FlightRecorder::armed()) {
    // Outside the injector lock: the recorder takes its own mutex for
    // auto_dump, and a fault trigger is exactly the moment the black box
    // must be preserved.
    telemetry::FlightRecorder& recorder = telemetry::FlightRecorder::instance();
    recorder.record(telemetry::FlightEventKind::kFault, row(site).name,
                    telemetry::current_trace_id(),
                    static_cast<std::int64_t>(triggered), 0);
    recorder.auto_dump(row(site).name);
  }
  return fire;
}

void FaultInjector::fail_point(FaultSite site) {
  if (!should_fail(site)) return;
  throw Error(row(site).status,
              std::string("injected fault at site ") + row(site).name);
}

FaultSpec FaultInjector::spec(FaultSite site) const {
  MutexLock lock(mutex_);
  return sites_[static_cast<std::size_t>(site)].spec;
}

FaultSiteStats FaultInjector::stats(FaultSite site) const {
  MutexLock lock(mutex_);
  return sites_[static_cast<std::size_t>(site)].stats;
}

void FaultInjector::reset_counters() {
  MutexLock lock(mutex_);
  for (Site& site : sites_) {
    site.stats = FaultSiteStats{};
    site.rng.seed(site.spec.seed);
  }
}

}  // namespace ucudnn
