// Benchmark-result cache (§III-D): μ-cuDNN memoizes algorithm benchmarks per
// (device, kernel type, micro problem timed) in memory, and optionally in a
// file-based database so results survive across processes and can be shared
// over a network filesystem by a homogeneous cluster (offline benchmarking).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_annotations.h"
#include "kernels/conv_problem.h"
#include "mcudnn/mcudnn.h"

namespace ucudnn::core {

enum class CacheLoadResult {
  kMissing,      // no file at the path; nothing loaded
  kLoaded,       // entries merged successfully
  kQuarantined,  // file was corrupt; renamed to <path>.corrupt, nothing loaded
};

/// A cached (device, kernel type, micro problem) entry lists every
/// algorithm evaluated so far with its status, successes first by time. An
/// algorithm it does not list has not been evaluated yet; the benchmarker
/// times it when a plan needs it (§III-D, like cudnnFind*'s per-algorithm
/// status).
class BenchmarkCache {
 public:
  /// The entry as evaluated: the blacklist is not applied here. Counts one
  /// cache hit or miss.
  std::optional<std::vector<mcudnn::AlgoPerf>> find(
      const std::string& device, ConvKernelType type,
      const kernels::ConvProblem& problem) const;

  /// Adds newly evaluated algorithms to the entry (creating it if there is
  /// none), replacing earlier results for the same algorithms.
  void merge(const std::string& device, ConvKernelType type,
             const kernels::ConvProblem& problem,
             const std::vector<mcudnn::AlgoPerf>& evaluated);

  /// Test shorthand for a synthetic table: merges `perfs` and lists every
  /// other algorithm as kNotSupported, so nothing is left to evaluate.
  void store(const std::string& device, ConvKernelType type,
             const kernels::ConvProblem& problem,
             const std::vector<mcudnn::AlgoPerf>& perfs);

  std::size_t size() const;

  /// Marks an algorithm as persistently failing on a device; the
  /// benchmarker leaves it out of every table until the process exits.
  /// Blacklisting is kept in memory only — entries and the on-disk database
  /// stay untouched so one bad run does not poison the shared cluster cache
  /// (§III-D). Returns whether the algorithm was newly blacklisted.
  bool blacklist(const std::string& device, ConvKernelType type, int algo);
  bool is_blacklisted(const std::string& device, ConvKernelType type,
                      int algo) const;
  std::size_t blacklisted_count() const;

  /// Merges a database file's lines by merge()'s rule. A key that ends in
  /// a micro size after the mode field (keys once spelled the parent
  /// problem) is rewritten to that micro problem first. A missing file is
  /// fine (kMissing); a malformed file is quarantined — renamed to
  /// `<path>.corrupt` and logged — instead of throwing, so stale or
  /// damaged caches can never abort a run (kQuarantined). The cache is
  /// left unchanged unless the whole file parses (kLoaded).
  [[nodiscard]] CacheLoadResult load_file(const std::string& path);

  /// Writes the full cache to a database file atomically: the data goes to
  /// `<path>.tmp` in the same directory first and is renamed over `path`
  /// only once fully flushed, so a crash mid-save cannot corrupt a shared
  /// offline-benchmark database (§III-D NFS use case).
  void save_file(const std::string& path) const;

  /// Serialization helpers (exposed for tests).
  static std::string encode_perfs(const std::vector<mcudnn::AlgoPerf>& perfs);
  static std::vector<mcudnn::AlgoPerf> decode_perfs(const std::string& text);

 private:
  /// Every field of the problem by value (ConvProblem::to_string() omits
  /// dilation and mode; a hash alone may collide).
  static std::string make_key(const std::string& device, ConvKernelType type,
                              const kernels::ConvProblem& problem);

  mutable Mutex mutex_{"BenchmarkCache"};
  std::map<std::string, std::vector<mcudnn::AlgoPerf>> entries_
      GUARDED_BY(mutex_);
  std::set<std::tuple<std::string, ConvKernelType, int>, std::less<>>
      blacklist_ GUARDED_BY(mutex_);
};

}  // namespace ucudnn::core
