// Benchmark-result cache (§III-D): μ-cuDNN memoizes per-(device, kernel,
// problem, micro-batch) algorithm benchmarks in memory, and optionally in a
// file-based database so results survive across processes and can be shared
// over a network filesystem by a homogeneous cluster (offline benchmarking).
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
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

/// One cached (device, kernel, problem, micro size) entry. A complete entry
/// evaluated every usable algorithm and lists the successful ones; anything
/// it does not list is unusable. A partial entry lists only the algorithms
/// evaluated so far (failures with their status) and says nothing about the
/// rest, which a later planner measures when it needs them.
struct CachedPerfs {
  std::vector<mcudnn::AlgoPerf> perfs;
  bool complete = true;
};

class BenchmarkCache {
 public:
  /// The complete entry's results, with blacklisted algorithms filtered
  /// out, so a blacklist decision immediately affects every later plan. A
  /// partial entry is a miss here.
  std::optional<std::vector<mcudnn::AlgoPerf>> lookup(
      const std::string& device, ConvKernelType type,
      const kernels::ConvProblem& problem, std::int64_t micro_batch) const;

  /// The entry, complete or partial, with blacklisted algorithms filtered
  /// out. Counts one cache hit or miss.
  std::optional<CachedPerfs> find(const std::string& device,
                                  ConvKernelType type,
                                  const kernels::ConvProblem& problem,
                                  std::int64_t micro_batch) const;

  /// Stores a complete entry, replacing any previous one.
  void store(const std::string& device, ConvKernelType type,
             const kernels::ConvProblem& problem, std::int64_t micro_batch,
             const std::vector<mcudnn::AlgoPerf>& perfs);

  /// Adds newly evaluated algorithms to the entry (creating a partial one
  /// if there is none). `complete` says every usable algorithm has now been
  /// evaluated; the entry then keeps only the successful results.
  void merge(const std::string& device, ConvKernelType type,
             const kernels::ConvProblem& problem, std::int64_t micro_batch,
             const std::vector<mcudnn::AlgoPerf>& evaluated, bool complete);

  std::size_t size() const;
  void clear();

  /// Marks an algorithm as persistently failing on a device; lookups filter
  /// it from their results until the process exits. Blacklisting is kept in
  /// memory only — the on-disk database stays untouched so one bad run does
  /// not poison the shared cluster cache (§III-D).
  void blacklist(const std::string& device, ConvKernelType type, int algo);
  bool is_blacklisted(const std::string& device, ConvKernelType type,
                      int algo) const;
  std::size_t blacklisted_count() const;

  /// Merges entries from a database file. A missing file is fine
  /// (kMissing); a malformed file is quarantined — renamed to
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
  /// dilation and mode; a hash alone may collide), plus the micro size.
  static std::string make_key(const std::string& device, ConvKernelType type,
                              const kernels::ConvProblem& problem,
                              std::int64_t micro_batch);
  static std::string blacklist_key(const std::string& device,
                                   ConvKernelType type, int algo);

  mutable Mutex mutex_{"BenchmarkCache"};
  std::map<std::string, CachedPerfs> entries_ GUARDED_BY(mutex_);
  std::set<std::string> blacklist_ GUARDED_BY(mutex_);
};

}  // namespace ucudnn::core
