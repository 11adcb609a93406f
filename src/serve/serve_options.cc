#include "serve/serve_options.h"

#include <limits>
#include <sstream>

#include "common/env.h"
#include "common/status.h"

namespace ucudnn::serve {
namespace {

double env_fraction(const std::string& name, double fallback) {
  const std::optional<std::string> raw = env_raw(name);
  if (!raw) return fallback;
  std::istringstream stream(*raw);
  double value = 0.0;
  stream >> value;
  check(!stream.fail() && stream.eof(), Status::kInvalidValue,
        name + " expects a decimal fraction, got '" + *raw + "'");
  return value;
}

}  // namespace

ServeOptions ServeOptions::from_env() {
  ServeOptions opts;
  // Range-checked before narrowing; validate() then applies the semantic
  // bounds.
  constexpr std::int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  opts.workers = static_cast<int>(
      env_int("UCUDNN_SERVE_WORKERS", opts.workers, kIntMin, kIntMax));
  opts.queue_capacity = static_cast<std::size_t>(
      env_int("UCUDNN_SERVE_QUEUE_CAPACITY",
              static_cast<std::int64_t>(opts.queue_capacity), 0,
              std::numeric_limits<std::int64_t>::max()));
  opts.batch_window_us =
      env_int("UCUDNN_SERVE_BATCH_WINDOW_US", opts.batch_window_us);
  opts.max_batch = env_int("UCUDNN_SERVE_MAX_BATCH", opts.max_batch);
  opts.default_deadline_ms = env_fraction("UCUDNN_SERVE_DEADLINE_MS",
                                          opts.default_deadline_ms);
  opts.max_retries = static_cast<int>(env_int(
      "UCUDNN_SERVE_MAX_RETRIES", opts.max_retries, kIntMin, kIntMax));
  opts.retry_backoff_us =
      env_int("UCUDNN_SERVE_RETRY_BACKOFF_US", opts.retry_backoff_us);
  opts.window_watermark =
      env_fraction("UCUDNN_SERVE_WINDOW_WATERMARK", opts.window_watermark);
  opts.shed_watermark =
      env_fraction("UCUDNN_SERVE_SHED_WATERMARK", opts.shed_watermark);
  opts.pad_to_pow2 = env_bool("UCUDNN_SERVE_PAD_POW2", opts.pad_to_pow2);
  opts.watchdog_ms = env_int("UCUDNN_WATCHDOG_MS", opts.watchdog_ms);
  return opts;
}

void ServeOptions::validate() const {
  check_param(workers >= 0, "UCUDNN_SERVE_WORKERS must be >= 0");
  check_param(queue_capacity >= 1, "UCUDNN_SERVE_QUEUE_CAPACITY must be >= 1");
  check_param(batch_window_us >= 0,
              "UCUDNN_SERVE_BATCH_WINDOW_US must be >= 0");
  check_param(max_batch >= 1, "UCUDNN_SERVE_MAX_BATCH must be >= 1");
  check_param(default_deadline_ms >= 0.0,
              "UCUDNN_SERVE_DEADLINE_MS must be >= 0");
  check_param(max_retries >= 0, "UCUDNN_SERVE_MAX_RETRIES must be >= 0");
  check_param(retry_backoff_us >= 0,
              "UCUDNN_SERVE_RETRY_BACKOFF_US must be >= 0");
  check_param(window_watermark >= 0.0 && window_watermark <= 1.0,
              "UCUDNN_SERVE_WINDOW_WATERMARK must be in [0, 1]");
  check_param(shed_watermark >= 0.0 && shed_watermark <= 1.0,
              "UCUDNN_SERVE_SHED_WATERMARK must be in [0, 1]");
  check_param(window_watermark <= shed_watermark,
              "UCUDNN_SERVE_WINDOW_WATERMARK must not exceed "
              "UCUDNN_SERVE_SHED_WATERMARK");
  check_param(watchdog_ms >= 0, "UCUDNN_WATCHDOG_MS must be >= 0");
}

}  // namespace ucudnn::serve
