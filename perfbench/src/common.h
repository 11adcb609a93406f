// Shared pieces of the perfbench driver: run settings, the result every
// workload fills in, order statistics, and the in-memory span log the traced
// run records around calls into each layer's public functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline Clock::duration seconds_to_duration(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Command-line settings shared by every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  double seconds = 10.0;   ///< total timed seconds, split over the rounds
  bool trace = false;
  int rounds = 5;          ///< independent set-ups per run (medians reported)
  std::string trace_path;  ///< where the traced run writes its spans
};

/// Metric name -> value.
using Metrics = std::map<std::string, double>;

/// Everything a workload reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  Metrics metrics;

  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
  /// Counts one checked operation; a failed check also fails the run.
  void check_op(bool ok, const std::string& what);
};

// --- order statistics -----------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of unsorted samples; 0 when
/// empty. Same definition as Python's statistics.quantiles "inclusive".
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// "median [q1, q3] n=..." for the diagnostic lines.
std::string describe(const std::vector<double>& values);

/// Median over rounds of every metric. Prints each metric's per-round
/// median and quartiles as a diagnostic line.
Metrics median_over_rounds(const std::vector<Metrics>& rounds);

// --- span log -------------------------------------------------------------

/// Spans kept in memory and written out when the run ends (Chrome trace
/// format). One log per thread; a disabled log costs one branch per span.
class SpanLog {
 public:
  SpanLog(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  void set_enabled(bool on) noexcept { enabled_ = on; }

  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log) {
      if (log_.enabled_) index_ = log_.open(name);
    }
    ~Scope() {
      if (index_ >= 0) log_.close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int index_ = -1;
  };

  /// Prints, per span name, the count, total time and self time (duration
  /// minus the part covered by child spans), and writes every span as one
  /// Chrome trace JSON file at `path` (skipped when empty).
  static void report(const std::vector<const SpanLog*>& logs,
                     const std::string& path);

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point begin;
    Clock::time_point end;
  };
  int open(const char* name);
  void close(int index);

  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
