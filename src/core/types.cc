#include "core/types.h"

#include <sstream>

#include "common/mathutil.h"
#include "kernels/registry.h"

namespace ucudnn::core {

bool DegradationStats::any() const noexcept {
  return retries.value() != 0 || degraded_allocations.value() != 0 ||
         blacklisted_algorithms.value() != 0 || solver_fallbacks.value() != 0 ||
         cache_quarantines.value() != 0 || wd_unrecorded_fallbacks.value() != 0;
}

std::string DegradationStats::to_string() const {
  std::ostringstream os;
  os << "retries=" << retries.value()
     << " degraded_allocations=" << degraded_allocations.value()
     << " blacklisted_algorithms=" << blacklisted_algorithms.value()
     << " solver_fallbacks=" << solver_fallbacks.value()
     << " cache_quarantines=" << cache_quarantines.value()
     << " wd_unrecorded_fallbacks=" << wd_unrecorded_fallbacks.value();
  return os.str();
}

std::string Configuration::to_string(ConvKernelType type) const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < micro.size(); ++i) {
    if (i > 0) os << ", ";
    os << micro[i].batch << ":" << kernels::algo_name(type, micro[i].algo);
  }
  os << "]";
  return os.str();
}

BatchSizePolicy parse_batch_size_policy(const std::string& text) {
  if (text == "all") return BatchSizePolicy::kAll;
  if (text == "powerOfTwo") return BatchSizePolicy::kPowerOfTwo;
  if (text == "undivided") return BatchSizePolicy::kUndivided;
  throw Error(Status::kInvalidValue, "unknown batch size policy: " + text);
}

WorkspacePolicy parse_workspace_policy(const std::string& text) {
  if (text == "wr" || text == "WR") return WorkspacePolicy::kWR;
  if (text == "wd" || text == "WD") return WorkspacePolicy::kWD;
  throw Error(Status::kInvalidValue, "unknown workspace policy: " + text);
}

std::vector<std::int64_t> candidate_micro_sizes(BatchSizePolicy policy,
                                                std::int64_t batch) {
  check_param(batch >= 1, "batch must be >= 1");
  std::vector<std::int64_t> sizes;
  switch (policy) {
    case BatchSizePolicy::kAll:
      sizes.reserve(static_cast<std::size_t>(batch));
      for (std::int64_t b = 1; b <= batch; ++b) sizes.push_back(b);
      break;
    case BatchSizePolicy::kPowerOfTwo:
      for (std::int64_t b = 1; b <= batch; b <<= 1) sizes.push_back(b);
      if (!is_pow2(static_cast<std::size_t>(batch))) sizes.push_back(batch);
      break;
    case BatchSizePolicy::kUndivided:
      sizes.push_back(batch);
      break;
  }
  return sizes;
}

}  // namespace ucudnn::core
