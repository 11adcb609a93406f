#include "core/benchmark_cache.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/status.h"
#include "kernels/registry.h"
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

void merge_perfs(std::vector<mcudnn::AlgoPerf>& entry,
                 const std::vector<mcudnn::AlgoPerf>& evaluated) {
  for (const mcudnn::AlgoPerf& perf : evaluated) {
    const auto same = std::find_if(
        entry.begin(), entry.end(),
        [&](const mcudnn::AlgoPerf& p) { return p.algo == perf.algo; });
    if (same == entry.end()) {
      entry.push_back(perf);
    } else {
      *same = perf;
    }
  }
  const auto failed = [](const mcudnn::AlgoPerf& p) {
    return p.status != Status::kSuccess;
  };
  std::stable_sort(entry.begin(), entry.end(),
                   [&](const mcudnn::AlgoPerf& l, const mcudnn::AlgoPerf& r) {
                     if (failed(l) != failed(r)) return failed(r);
                     return !failed(l) && l.time_ms < r.time_ms;
                   });
}

// An old key, "...|x<n>,...|m<mode>|<micro>", becomes its micro problem's.
std::string micro_problem_key(std::string key) {
  const auto mode = key.rfind("|m");
  const auto micro = mode == std::string::npos ? mode : key.find('|', mode + 1);
  if (micro == std::string::npos) return key;
  const char* last = key.data() + key.size();
  std::int64_t n = 0;
  const auto [end, ec] = std::from_chars(key.data() + micro + 1, last, n);
  const auto x = key.find("|x");
  check(ec == std::errc() && end == last && n > 0 && x < micro,
        Status::kInternalError, "malformed benchmark cache key: " + key);
  key.erase(micro);
  return key.replace(x + 2, key.find(',', x) - x - 2, std::to_string(n));
}

}  // namespace

std::string BenchmarkCache::make_key(const std::string& device,
                                     ConvKernelType type,
                                     const kernels::ConvProblem& problem) {
  const TensorShape& x = problem.x;
  const FilterDesc& w = problem.w;
  const ConvGeometry& g = problem.geom;
  std::ostringstream os;
  os << device << "|" << to_string(type) << "|x" << x.n << "," << x.c << ","
     << x.h << "," << x.w << "|w" << w.k << "," << w.c << "," << w.r << ","
     << w.s << "|p" << g.pad_h << "," << g.pad_w << "|s" << g.stride_h << ","
     << g.stride_w << "|d" << g.dilation_h << "," << g.dilation_w << "|g"
     << g.groups << "|m" << static_cast<int>(g.mode);
  return os.str();
}

std::optional<std::vector<mcudnn::AlgoPerf>> BenchmarkCache::find(
    const std::string& device, ConvKernelType type,
    const kernels::ConvProblem& problem) const {
  MutexLock lock(mutex_);
  const auto it = entries_.find(make_key(device, type, problem));
  if (it == entries_.end()) {
    cache_misses_metric().add(1);
    return std::nullopt;
  }
  cache_hits_metric().add(1);
  return it->second;
}

void BenchmarkCache::merge(const std::string& device, ConvKernelType type,
                           const kernels::ConvProblem& problem,
                           const std::vector<mcudnn::AlgoPerf>& evaluated) {
  MutexLock lock(mutex_);
  merge_perfs(entries_[make_key(device, type, problem)], evaluated);
}

void BenchmarkCache::store(const std::string& device, ConvKernelType type,
                           const kernels::ConvProblem& problem,
                           const std::vector<mcudnn::AlgoPerf>& perfs) {
  std::vector<mcudnn::AlgoPerf> all = perfs;
  for (int algo = 0; algo < kernels::algo_count(type); ++algo) {
    const auto same = [&](const mcudnn::AlgoPerf& p) { return p.algo == algo; };
    if (std::none_of(perfs.begin(), perfs.end(), same)) {
      all.push_back({.algo = algo});  // status kNotSupported
    }
  }
  merge(device, type, problem, all);
}

std::size_t BenchmarkCache::size() const {
  MutexLock lock(mutex_);
  return entries_.size();
}

bool BenchmarkCache::blacklist(const std::string& device, ConvKernelType type,
                               int algo) {
  MutexLock lock(mutex_);
  return blacklist_.emplace(device, type, algo).second;
}

bool BenchmarkCache::is_blacklisted(const std::string& device,
                                    ConvKernelType type, int algo) const {
  MutexLock lock(mutex_);
  return blacklist_.contains(std::tie(device, type, algo));
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
    is >> perf.algo >> sep1 >> status >> sep2 >> perf.time_ms >> sep3;
    // operator>> would wrap "-1" into a huge std::size_t.
    const bool unsigned_memory = std::isdigit(is.peek()) != 0;
    is >> perf.memory;
    // `is.peek() == EOF` rejects trailing bytes: the format has exactly four
    // fields and no whitespace, so "0:0:1.5:64junk" is corruption, not a
    // value — accepting it silently would load a truncated/damaged entry.
    check(!is.fail() && sep1 == ':' && sep2 == ':' && sep3 == ':' &&
              is.peek() == std::istringstream::traits_type::eof(),
          Status::kInternalError, "malformed benchmark cache entry: " + item);
    perf.status = static_cast<Status>(status);
    // A success the WR DP could pick needs a real timing; failures carry
    // AlgoPerf's -1.
    check(unsigned_memory && status >= 0 &&
              status <= static_cast<int>(Status::kShuttingDown) &&
              std::isfinite(perf.time_ms) &&
              (perf.time_ms >= 0.0 || perf.status != Status::kSuccess),
          Status::kInternalError, "invalid benchmark cache entry: " + item);
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
  std::map<std::string, std::vector<mcudnn::AlgoPerf>> parsed;
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
        // key \t perfs [\t partial]: files written while entries carried
        // a completeness flag mark some lines "partial"; the field says
        // nothing an entry's list does not, so it is accepted and ignored.
        const auto tab = line.find('\t');
        check(tab != std::string::npos, Status::kInternalError,
              "malformed benchmark cache line: " + line);
        const auto marker = line.find('\t', tab + 1);
        check(marker == std::string::npos ||
                  line.compare(marker + 1, std::string::npos, "partial") == 0,
              Status::kInternalError,
              "malformed benchmark cache line: " + line);
        const std::vector<mcudnn::AlgoPerf> perfs =
            decode_perfs(line.substr(tab + 1, marker - tab - 1));
        const std::string key = line.substr(0, tab);
        // Early databases keyed lines by a problem hash
        // ("HostCpu|Forward|<hex>|4"); no lookup can match one, so a
        // well-formed one is dropped rather than carried along by every save.
        if (key.find("|x") == std::string::npos ||
            key.find("|m") == std::string::npos) {
          continue;
        }
        merge_perfs(parsed[micro_problem_key(key)], perfs);
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
  for (const auto& [key, perfs] : parsed) merge_perfs(entries_[key], perfs);
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
        out << key << "\t" << encode_perfs(entry) << "\n";
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
