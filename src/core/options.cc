#include "core/options.h"

#include <limits>

#include "common/env.h"

namespace ucudnn::core {

Options Options::from_env() {
  Options opts;
  opts.batch_size_policy = parse_batch_size_policy(
      env_string("UCUDNN_BATCH_SIZE_POLICY", "powerOfTwo"));
  opts.workspace_policy =
      parse_workspace_policy(env_string("UCUDNN_WORKSPACE_POLICY", "wr"));
  if (const auto raw = env_raw("UCUDNN_WORKSPACE_LIMIT")) {
    opts.workspace_limit = parse_bytes(*raw);
  }
  opts.total_workspace_size =
      env_bytes("UCUDNN_TOTAL_WORKSPACE_SIZE", std::size_t{64} << 20);
  opts.share_wr_workspace = env_bool("UCUDNN_SHARED_WORKSPACE", false);
  opts.cache_path = env_string("UCUDNN_CACHE_PATH", "");
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  opts.max_retries =
      static_cast<int>(env_int("UCUDNN_MAX_RETRIES", 3, 0, kIntMax));
  opts.fail_fast = env_bool("UCUDNN_FAIL_FAST", false);
  return opts;
}

}  // namespace ucudnn::core
