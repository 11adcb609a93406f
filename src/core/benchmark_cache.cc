#include "core/benchmark_cache.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/status.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace ucudnn::core {

namespace {

telemetry::Counter& cache_hits_metric() {
  static telemetry::Counter c = telemetry::MetricsRegistry::instance().counter(
      "ucudnn.benchmark_cache.hits");
  return c;
}

telemetry::Counter& cache_misses_metric() {
  static telemetry::Counter c = telemetry::MetricsRegistry::instance().counter(
      "ucudnn.benchmark_cache.misses");
  return c;
}

// Third field of a database line holding a partial entry.
constexpr std::string_view kPartialMarker = "partial";

}  // namespace

std::string BenchmarkCache::make_key(const std::string& device,
                                     ConvKernelType type,
                                     const kernels::ConvProblem& problem,
                                     std::int64_t micro_batch) {
  const TensorShape& x = problem.x;
  const FilterDesc& w = problem.w;
  const ConvGeometry& g = problem.geom;
  std::ostringstream os;
  os << device << "|" << to_string(type) << "|x" << x.n << "," << x.c << ","
     << x.h << "," << x.w << "|w" << w.k << "," << w.c << "," << w.r << ","
     << w.s << "|p" << g.pad_h << "," << g.pad_w << "|s" << g.stride_h << ","
     << g.stride_w << "|d" << g.dilation_h << "," << g.dilation_w << "|g"
     << g.groups << "|m" << static_cast<int>(g.mode) << "|" << micro_batch;
  return os.str();
}

std::string BenchmarkCache::blacklist_key(const std::string& device,
                                          ConvKernelType type, int algo) {
  std::ostringstream os;
  os << device << "|" << to_string(type) << "|" << algo;
  return os.str();
}

std::optional<std::vector<mcudnn::AlgoPerf>> BenchmarkCache::lookup(
    const std::string& device, ConvKernelType type,
    const kernels::ConvProblem& problem, std::int64_t micro_batch) const {
  std::optional<CachedPerfs> entry = find(device, type, problem, micro_batch);
  if (!entry || !entry->complete) return std::nullopt;
  return std::move(entry->perfs);
}

std::optional<CachedPerfs> BenchmarkCache::find(
    const std::string& device, ConvKernelType type,
    const kernels::ConvProblem& problem, std::int64_t micro_batch) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(make_key(device, type, problem, micro_batch));
  if (it == entries_.end()) {
    cache_misses_metric().add(1);
    return std::nullopt;
  }
  cache_hits_metric().add(1);
  if (blacklist_.empty()) return it->second;
  CachedPerfs filtered{{}, it->second.complete};
  filtered.perfs.reserve(it->second.perfs.size());
  std::copy_if(it->second.perfs.begin(), it->second.perfs.end(),
               std::back_inserter(filtered.perfs),
               [&](const mcudnn::AlgoPerf& p) {
                 return blacklist_.count(blacklist_key(device, type, p.algo)) ==
                        0;
               });
  if (filtered.complete && filtered.perfs.empty() &&
      !it->second.perfs.empty()) {
    // The blacklist emptied a non-empty entry. Returning the empty vector
    // would read as "this problem supports no algorithms at all" and make
    // the caller give up; a miss instead sends it back to find_algorithms,
    // which re-measures and applies the blacklist to fresh results.
    return std::nullopt;
  }
  return filtered;
}

void BenchmarkCache::store(const std::string& device, ConvKernelType type,
                           const kernels::ConvProblem& problem,
                           std::int64_t micro_batch,
                           const std::vector<mcudnn::AlgoPerf>& perfs) {
  MutexLock lock(mutex_);
  entries_[make_key(device, type, problem, micro_batch)] = {perfs, true};
}

void BenchmarkCache::merge(const std::string& device, ConvKernelType type,
                           const kernels::ConvProblem& problem,
                           std::int64_t micro_batch,
                           const std::vector<mcudnn::AlgoPerf>& evaluated,
                           bool complete) {
  MutexLock lock(mutex_);
  CachedPerfs& entry =
      entries_
          .try_emplace(make_key(device, type, problem, micro_batch),
                       CachedPerfs{{}, false})
          .first->second;
  for (const mcudnn::AlgoPerf& perf : evaluated) {
    const auto same = std::find_if(
        entry.perfs.begin(), entry.perfs.end(),
        [&](const mcudnn::AlgoPerf& p) { return p.algo == perf.algo; });
    if (same == entry.perfs.end()) {
      entry.perfs.push_back(perf);
    } else {
      *same = perf;
    }
  }
  const auto failed = [](const mcudnn::AlgoPerf& p) {
    return p.status != Status::kSuccess;
  };
  entry.complete = entry.complete || complete;
  if (entry.complete) {
    entry.perfs.erase(
        std::remove_if(entry.perfs.begin(), entry.perfs.end(), failed),
        entry.perfs.end());
  }
  std::stable_sort(entry.perfs.begin(), entry.perfs.end(),
                   [&](const mcudnn::AlgoPerf& l, const mcudnn::AlgoPerf& r) {
                     if (failed(l) != failed(r)) return failed(r);
                     return !failed(l) && l.time_ms < r.time_ms;
                   });
}

std::size_t BenchmarkCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

void BenchmarkCache::clear() {
  MutexLock lock(mutex_);
  entries_.clear();
  blacklist_.clear();
}

void BenchmarkCache::blacklist(const std::string& device, ConvKernelType type,
                               int algo) {
  MutexLock lock(mutex_);
  blacklist_.insert(blacklist_key(device, type, algo));
}

bool BenchmarkCache::is_blacklisted(const std::string& device,
                                    ConvKernelType type, int algo) const {
  MutexLock lock(mutex_);
  return blacklist_.count(blacklist_key(device, type, algo)) != 0;
}

std::size_t BenchmarkCache::blacklisted_count() const {
  MutexLock lock(mutex_);
  return blacklist_.size();
}

std::string BenchmarkCache::encode_perfs(
    const std::vector<mcudnn::AlgoPerf>& perfs) {
  std::ostringstream os;
  os.precision(17);
  for (std::size_t i = 0; i < perfs.size(); ++i) {
    if (i > 0) os << ",";
    os << perfs[i].algo << ":" << static_cast<int>(perfs[i].status) << ":"
       << perfs[i].time_ms << ":" << perfs[i].memory;
  }
  return os.str();
}

std::vector<mcudnn::AlgoPerf> BenchmarkCache::decode_perfs(
    const std::string& text) {
  std::vector<mcudnn::AlgoPerf> perfs;
  if (text.empty()) return perfs;
  std::istringstream items(text);
  std::string item;
  while (std::getline(items, item, ',')) {
    mcudnn::AlgoPerf perf;
    int status = 0;
    char sep1 = 0, sep2 = 0, sep3 = 0;
    std::istringstream is(item);
    is >> perf.algo >> sep1 >> status >> sep2 >> perf.time_ms >> sep3 >>
        perf.memory;
    // `is.peek() == EOF` rejects trailing bytes: the format has exactly four
    // fields and no whitespace, so "0:0:1.5:64junk" is corruption, not a
    // value — accepting it silently would load a truncated/damaged entry.
    check(!is.fail() && sep1 == ':' && sep2 == ':' && sep3 == ':' &&
              is.peek() == std::istringstream::traits_type::eof(),
          Status::kInternalError, "malformed benchmark cache entry: " + item);
    perf.status = static_cast<Status>(status);
    perfs.push_back(perf);
  }
  return perfs;
}

CacheLoadResult BenchmarkCache::load_file(const std::string& path) {
  const telemetry::ScopedSpan span("cache_load", [&] { return path; });
  std::ifstream in(path);
  if (!in) return CacheLoadResult::kMissing;  // missing cache files are fine

  // Parse into a staging map first: either the whole file is good and gets
  // merged, or none of it does.
  std::map<std::string, CachedPerfs> parsed;
  std::string why;
  bool corrupt = FaultInjector::instance().armed() &&
                 FaultInjector::instance().should_fail(FaultSite::kCacheLoad);
  if (corrupt) {
    why = "injected fault at site cache-load";
  } else {
    try {
      std::string line;
      while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        // key \t perfs [\t partial]: lines without the marker, which
        // includes every file written before partial entries existed, are
        // complete.
        const auto tab = line.find('\t');
        check(tab != std::string::npos, Status::kInternalError,
              "malformed benchmark cache line: " + line);
        const auto marker = line.find('\t', tab + 1);
        const bool partial = marker != std::string::npos;
        check(!partial || line.compare(marker + 1, std::string::npos,
                                       kPartialMarker) == 0,
              Status::kInternalError,
              "malformed benchmark cache line: " + line);
        parsed[line.substr(0, tab)] = {
            decode_perfs(line.substr(tab + 1, marker - tab - 1)), !partial};
      }
      // status-discipline: allow (recorded in `why`; quarantined + logged below)
    } catch (const Error& e) {
      corrupt = true;
      why = e.what();
    }
  }
  in.close();

  if (corrupt) {
    // Quarantine instead of throwing: a stale or damaged database must never
    // abort a run. The rename keeps the evidence for inspection.
    const std::string quarantine_path = path + ".corrupt";
    std::error_code ec;
    std::filesystem::rename(path, quarantine_path, ec);
    UCUDNN_LOG_WARN << "benchmark cache " << path << " is corrupt (" << why
                    << "); quarantined to " << quarantine_path
                    << (ec ? " (rename failed: " + ec.message() + ")" : "");
    return CacheLoadResult::kQuarantined;
  }

  MutexLock lock(mutex_);
  for (auto& [key, entry] : parsed) entries_[key] = std::move(entry);
  return CacheLoadResult::kLoaded;
}

void BenchmarkCache::save_file(const std::string& path) const {
  const telemetry::ScopedSpan span("cache_save", [&] { return path; });
  // Write-then-rename: readers either see the old complete database or the
  // new complete one, never a torn write.
  const std::string tmp_path = path + ".tmp";
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    check(static_cast<bool>(out), Status::kInternalError,
          "cannot open benchmark cache file for writing: " + tmp_path);
    out << "# ucudnn benchmark cache v1\n";
    {
      MutexLock lock(mutex_);
      for (const auto& [key, entry] : entries_) {
        out << key << "\t" << encode_perfs(entry.perfs);
        if (!entry.complete) out << "\t" << kPartialMarker;
        out << "\n";
      }
    }
    out.flush();
    check(!out.fail(), Status::kInternalError,
          "failed writing benchmark cache: " + tmp_path);
  }
  try {
    // Simulated crash between write and publish; the target must survive.
    FaultInjector::instance().fail_point(FaultSite::kCacheSave);
  } catch (const Error&) {
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    throw;
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  check(!ec, Status::kInternalError,
        "cannot publish benchmark cache " + path + ": " + ec.message());
}

}  // namespace ucudnn::core
