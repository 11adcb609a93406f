// Wall-clock timing helpers.
#pragma once

#include <chrono>

namespace ucudnn {

/// Monotonic stopwatch; result in (fractional) milliseconds.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(Clock::now() - start_)
        .count();
  }

  double elapsed_s() const { return elapsed_ms() * 1e-3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace ucudnn
