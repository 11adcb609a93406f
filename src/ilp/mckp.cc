// Multiple-choice knapsack DP over a bucketed weight grid: the default WD
// solve path.
//
// Weights are rounded UP to buckets of ceil(capacity / buckets) units, so a
// returned selection is always feasible for the true capacity. The optimum
// is exact only when capacity <= buckets (one unit per bucket). Otherwise
// it is exact on the rounded weights and may miss a selection that fits
// only by less than one bucket per kernel: for the default 64 MiB WD arena
// and 65536 buckets a bucket is 1 KiB, coarser than the 256 B segment
// alignment of the weights.
#include <algorithm>
#include <cmath>
#include <limits>

#include "common/mathutil.h"
#include "common/status.h"
#include "ilp/ilp.h"

namespace ucudnn::ilp {

MckpResult solve_mckp(const MckpProblem& problem, std::int64_t buckets) {
  MckpResult result;
  const std::size_t groups = problem.groups.size();
  if (groups == 0) {
    result.feasible = true;
    return result;
  }
  check_param(problem.capacity >= 0, "negative knapsack capacity");
  check_param(buckets >= 1, "need at least one weight bucket");

  // Bucket scale: ceil so that bucketed feasibility implies true feasibility.
  const std::int64_t scale =
      problem.capacity <= buckets ? 1 : ceil_div(problem.capacity, buckets);
  const std::int64_t cap_b = problem.capacity / scale;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t width = static_cast<std::size_t>(cap_b) + 1;

  std::vector<double> dp(width, kInf);
  std::vector<double> next(width, kInf);
  dp[0] = 0.0;

  // choice[g][w]: item index used to reach exact bucketed weight w after
  // group g (-1 = unreachable).
  std::vector<std::vector<std::int16_t>> choice(
      groups, std::vector<std::int16_t>(width, -1));

  for (std::size_t g = 0; g < groups; ++g) {
    const auto& group = problem.groups[g];
    check_param(!group.empty(), "empty MCKP group");
    check_param(group.size() <= 32767, "MCKP group too large");
    std::fill(next.begin(), next.end(), kInf);
    for (std::size_t item = 0; item < group.size(); ++item) {
      check_param(group[item].weight >= 0, "negative item weight");
      const std::int64_t wb = ceil_div(group[item].weight, scale);
      if (wb > cap_b) continue;
      const double cost = group[item].cost;
      for (std::int64_t w = 0; w + wb <= cap_b; ++w) {
        const double base = dp[static_cast<std::size_t>(w)];
        if (base == kInf) continue;
        const std::size_t dest = static_cast<std::size_t>(w + wb);
        if (base + cost < next[dest]) {
          next[dest] = base + cost;
          choice[g][dest] = static_cast<std::int16_t>(item);
        }
      }
    }
    dp.swap(next);
  }

  // Best reachable final weight.
  std::size_t best_w = width;
  double best_cost = kInf;
  for (std::size_t w = 0; w < width; ++w) {
    if (dp[w] < best_cost) {
      best_cost = dp[w];
      best_w = w;
    }
  }
  if (best_w == width) return result;  // infeasible

  // Reconstruct the selection by walking groups backwards.
  result.feasible = true;
  result.cost = best_cost;
  result.selection.assign(groups, -1);
  std::size_t w = best_w;
  for (std::size_t g = groups; g-- > 0;) {
    const int item = choice[g][w];
    check(item >= 0, Status::kInternalError, "MCKP reconstruction failed");
    result.selection[g] = item;
    const std::int64_t wb =
        ceil_div(problem.groups[g][static_cast<std::size_t>(item)].weight,
                 scale);
    w -= static_cast<std::size_t>(wb);
  }
  return result;
}

}  // namespace ucudnn::ilp
